package aurora

import (
	"bufio"
	"context"
	"os"
	"strconv"
	"strings"
	"testing"
)

// The headline regression net: the paper's top-line *shapes* — who wins, in
// which direction the knees fall — pinned both against the checked-in
// results_full.txt artifact and against a fresh quick simulation. Where
// TestGoldenReports pins every counter, this test pins the conclusions, so
// a regenerated artifact that silently flips a verdict fails review here.

// fig4Row is one model point of results_full.txt's Figure 4 block.
type fig4Row struct {
	model   string
	issue   int
	latency int
	cost    int
	avgCPI  float64
}

func parseFigure4(t *testing.T) []fig4Row {
	t.Helper()
	f, err := os.Open("results_full.txt")
	if err != nil {
		t.Fatalf("results_full.txt missing (regenerate with go run ./cmd/aurora-experiments): %v", err)
	}
	defer f.Close()
	var rows []fig4Row
	in := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "Figure 4:"):
			in = true
		case in && strings.HasPrefix(line, "----"):
			return rows
		case in:
			fields := strings.Fields(line)
			if len(fields) != 7 || fields[0] == "model" {
				continue
			}
			issue, err1 := strconv.Atoi(fields[1])
			lat, err2 := strconv.Atoi(fields[2])
			cost, err3 := strconv.Atoi(fields[3])
			avg, err4 := strconv.ParseFloat(fields[5], 64)
			if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
				t.Fatalf("unparseable Figure 4 row: %q", line)
			}
			rows = append(rows, fig4Row{fields[0], issue, lat, cost, avg})
		}
	}
	t.Fatal("results_full.txt has no Figure 4 block")
	return nil
}

// TestGoldenHeadlines pins the paper's headline shapes against the published
// artifact: more resources help, dual issue wins, longer memory latency
// hurts, and costs order small < baseline < large.
func TestGoldenHeadlines(t *testing.T) {
	rows := parseFigure4(t)
	if len(rows) != 12 {
		t.Fatalf("Figure 4 should have 12 model points (3 models × 2 issue × 2 latencies), got %d", len(rows))
	}
	get := func(model string, issue, lat int) fig4Row {
		for _, r := range rows {
			if r.model == model && r.issue == issue && r.latency == lat {
				return r
			}
		}
		t.Fatalf("Figure 4 missing %s/issue=%d/latency=%d", model, issue, lat)
		return fig4Row{}
	}
	for _, issue := range []int{1, 2} {
		for _, lat := range []int{17, 35} {
			s, b, l := get("small", issue, lat), get("baseline", issue, lat), get("large", issue, lat)
			if !(l.avgCPI < b.avgCPI && b.avgCPI < s.avgCPI) {
				t.Errorf("issue=%d latency=%d: CPI must order large < baseline < small, got %.3f / %.3f / %.3f",
					issue, lat, l.avgCPI, b.avgCPI, s.avgCPI)
			}
			if !(s.cost < b.cost && b.cost < l.cost) {
				t.Errorf("issue=%d latency=%d: cost must order small < baseline < large, got %d / %d / %d",
					issue, lat, s.cost, b.cost, l.cost)
			}
		}
	}
	for _, model := range []string{"small", "baseline", "large"} {
		for _, lat := range []int{17, 35} {
			if single, dual := get(model, 1, lat), get(model, 2, lat); dual.avgCPI >= single.avgCPI {
				t.Errorf("%s latency=%d: dual issue must beat single (%.3f vs %.3f)",
					model, lat, dual.avgCPI, single.avgCPI)
			}
		}
		for _, issue := range []int{1, 2} {
			if fast, slow := get(model, issue, 17), get(model, issue, 35); slow.avgCPI < fast.avgCPI {
				t.Errorf("%s issue=%d: 35-cycle memory must not beat 17-cycle (%.3f vs %.3f)",
					model, issue, slow.avgCPI, fast.avgCPI)
			}
		}
	}
	// The paper's §5.6 sweet spot: dual-issue baseline reaches CPI ~1.
	if r := get("baseline", 2, 17); r.avgCPI >= 1.2 {
		t.Errorf("dual-issue baseline at 17 cycles should approach CPI 1, got %.3f", r.avgCPI)
	}
}

// TestExperimentVerdicts pins the shape of EXPERIMENTS.md's conclusions: the
// exact set of verdict lines, and that no claim has regressed to ✗. Update
// deliberately (with the experiment rerun that justifies it), never by
// accident.
func TestExperimentVerdicts(t *testing.T) {
	data, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	var full, partial, failed int
	for _, line := range strings.Split(string(data), "\n") {
		switch {
		case strings.HasPrefix(line, "**✓/◐"):
			partial++
		case strings.HasPrefix(line, "**✓"):
			full++
		case strings.HasPrefix(line, "**◐"):
			partial++
		case strings.HasPrefix(line, "**✗"):
			failed++
		}
	}
	if failed != 0 {
		t.Errorf("EXPERIMENTS.md records %d failed (✗) verdicts; the reproduction previously had none", failed)
	}
	if full != 3 || partial != 3 {
		t.Errorf("EXPERIMENTS.md verdict census changed: %d reproduced, %d partial (want 3 and 3) — "+
			"if the experiments were deliberately rerun, update this pin", full, partial)
	}
}

// TestLiveHeadlineShapes re-derives the Figure 4 orderings from a fresh
// quick simulation, so the headline claims are checked against the current
// simulator too (including in -short runs, where the full golden matrix is
// skipped).
func TestLiveHeadlineShapes(t *testing.T) {
	const budget = 30_000
	w, err := GetWorkload("espresso")
	if err != nil {
		t.Fatal(err)
	}
	cpi := func(cfg Config) float64 {
		rep, err := Run(context.Background(), cfg, w, RunOptions{Budget: budget})
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		return rep.CPI()
	}
	small, base, large := cpi(Small()), cpi(Baseline()), cpi(Large())
	if !(large <= base && base <= small) {
		t.Errorf("live CPI must order large <= baseline <= small, got %.3f / %.3f / %.3f", large, base, small)
	}
	single := Baseline()
	single.IssueWidth = 1
	if singleCPI := cpi(single); singleCPI <= base {
		t.Errorf("live: single-issue baseline (%.3f) must not beat dual issue (%.3f)", singleCPI, base)
	}
	slow := Baseline()
	slow.Memory.Latency = 35
	if slowCPI := cpi(slow); slowCPI < base {
		t.Errorf("live: 35-cycle memory (%.3f) must not beat 17-cycle (%.3f)", slowCPI, base)
	}
}
