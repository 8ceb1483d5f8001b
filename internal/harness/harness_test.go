package harness

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"aurora/internal/core"
)

// testRunner is shared across the package tests: the memo table lets tests
// that revisit the same configurations (Tables 3-5, Figures 6-7) reuse each
// other's simulations, exactly as Render does.
var testRunner = NewRunner(0)

// Harness tests run at Quick scale: they verify structure, bounds and
// rendering rather than the calibrated values (integration tests and the
// bench targets cover those at full scale).

func TestFig1Fit(t *testing.T) {
	r := Fig1()
	if len(r.Points) < 10 {
		t.Fatalf("only %d data points", len(r.Points))
	}
	if r.GrowthRate < 0.30 || r.GrowthRate > 0.50 {
		t.Errorf("growth rate %.2f outside the paper's ~40%%/yr claim", r.GrowthRate)
	}
	if r.DoublingYears < 1.5 || r.DoublingYears > 3 {
		t.Errorf("doubling time %.1f years implausible", r.DoublingYears)
	}
	// Monotone increasing frequencies.
	for i := 1; i < len(r.Points); i++ {
		if r.Points[i].MHz < r.Points[i-1].MHz {
			t.Errorf("frequency regressed at %d", r.Points[i].Year)
		}
	}
}

func TestFig4Structure(t *testing.T) {
	pts, err := Fig4(context.Background(), testRunner, Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 12 {
		t.Fatalf("got %d configurations want 12", len(pts))
	}
	for _, p := range pts {
		if p.MinCPI > p.AvgCPI || p.AvgCPI > p.MaxCPI {
			t.Errorf("%s/%d/%d: min %.3f avg %.3f max %.3f not ordered",
				p.Model, p.Issue, p.Latency, p.MinCPI, p.AvgCPI, p.MaxCPI)
		}
		if p.CostRBE <= 0 {
			t.Errorf("%s: cost %d", p.Model, p.CostRBE)
		}
		if len(p.PerBench) != 6 {
			t.Errorf("%s: %d benches", p.Model, len(p.PerBench))
		}
	}
	// Dual issue must cost exactly one pipeline more than single.
	for i := 0; i < 3; i++ {
		if pts[3+i].CostRBE-pts[i].CostRBE != 8192 {
			t.Errorf("pipeline cost delta %d want 8192", pts[3+i].CostRBE-pts[i].CostRBE)
		}
	}
}

func TestRateTablesStructure(t *testing.T) {
	for _, gen := range []func(context.Context, *Runner, Options) (*RateTable, error){Table3, Table4, Table5} {
		tab, err := gen(context.Background(), testRunner, Quick())
		if err != nil {
			t.Fatal(err)
		}
		if len(tab.Models) != 3 || len(tab.Benches) != 6 {
			t.Fatalf("%s: %dx%d", tab.Name, len(tab.Models), len(tab.Benches))
		}
		for _, row := range tab.Rows {
			for i, v := range row {
				if v < 0 || v > 100 {
					t.Errorf("%s[%s]: %.2f out of range", tab.Name, tab.Benches[i], v)
				}
			}
		}
	}
}

func TestFig6Conservation(t *testing.T) {
	rows, err := Fig6(context.Background(), testRunner, Quick())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		var sum float64
		for _, s := range r.Stalls {
			sum += s
		}
		if r.BaseCPI+sum-r.TotalCPI > 1e-9 || r.TotalCPI-r.BaseCPI-sum > 1e-9 {
			t.Errorf("%s: base %.3f + stalls %.3f != total %.3f", r.Model, r.BaseCPI, sum, r.TotalCPI)
		}
		if r.BaseCPI < 0.4 {
			t.Errorf("%s: base CPI %.3f below the issue bound", r.Model, r.BaseCPI)
		}
	}
}

func TestFig7Monotone(t *testing.T) {
	pts, err := Fig7(context.Background(), testRunner, Quick())
	if err != nil {
		t.Fatal(err)
	}
	byModel := map[string][]Fig7Point{}
	for _, p := range pts {
		byModel[p.Model] = append(byModel[p.Model], p)
	}
	for model, ps := range byModel {
		for i := 1; i < len(ps); i++ {
			if ps[i].AvgCPI > ps[i-1].AvgCPI*1.02 {
				t.Errorf("%s: CPI rose from %.3f to %.3f adding MSHRs",
					model, ps[i-1].AvgCPI, ps[i].AvgCPI)
			}
		}
	}
}

func TestFig8CallOuts(t *testing.T) {
	pts, err := Fig8(context.Background(), testRunner, Quick())
	if err != nil {
		t.Fatal(err)
	}
	var haveA, haveB, haveC, haveD, haveE int
	for _, p := range pts {
		switch {
		case strings.HasPrefix(p.Label, "A:"):
			haveA++
		case strings.HasPrefix(p.Label, "B:"):
			haveB++
		case strings.HasPrefix(p.Label, "C:"):
			haveC++
		case strings.HasPrefix(p.Label, "D:"):
			haveD++
		case strings.HasPrefix(p.Label, "E:"):
			haveE++
		}
	}
	if haveA < 3 || haveB != 1 || haveC < 3 || haveD != 1 || haveE != 1 {
		t.Errorf("call-outs A=%d B=%d C=%d D=%d E=%d", haveA, haveB, haveC, haveD, haveE)
	}
}

func TestTable6Structure(t *testing.T) {
	rows, err := Table6(context.Background(), testRunner, Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 { // 9 benchmarks + average
		t.Fatalf("%d rows", len(rows))
	}
	avg := rows[len(rows)-1]
	if avg.Bench != "Average" {
		t.Fatalf("last row %q", avg.Bench)
	}
	if !(avg.InOrder >= avg.Single && avg.Single >= avg.Dual) {
		t.Errorf("policy averages not ordered: %.3f %.3f %.3f",
			avg.InOrder, avg.Single, avg.Dual)
	}
}

func TestFig9QueuesShape(t *testing.T) {
	iq, lq, rob, err := Fig9Queues(context.Background(), testRunner, Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(iq) != 5 || len(lq) != 5 || len(rob) != 5 {
		t.Fatalf("sweep lengths %d/%d/%d", len(iq), len(lq), len(rob))
	}
	// Bigger queues can only help (within tolerance).
	if iq[4].AvgCPI > iq[0].AvgCPI*1.01 {
		t.Errorf("IQ5 (%.3f) worse than IQ1 (%.3f)", iq[4].AvgCPI, iq[0].AvgCPI)
	}
	if lq[4].AvgCPI > lq[0].AvgCPI*1.01 {
		t.Errorf("LQ5 worse than LQ1")
	}
}

func TestFig9LatencyShape(t *testing.T) {
	res, err := Fig9Latencies(context.Background(), testRunner, Quick())
	if err != nil {
		t.Fatal(err)
	}
	// Longer latencies can only hurt.
	if res.Add[0].AvgCPI > res.Add[len(res.Add)-1].AvgCPI*1.01 {
		t.Error("add latency sweep inverted")
	}
	if res.Div[0].AvgCPI > res.Div[len(res.Div)-1].AvgCPI*1.01 {
		t.Error("divide latency sweep inverted")
	}
	// Faster units cost more area (Table 2).
	if res.Add[0].CostRBE <= res.Add[len(res.Add)-1].CostRBE {
		t.Error("add cost not decreasing with latency")
	}
	// Unpipelining hurts, but the paper says < 5%; allow up to 12% at
	// quick scale.
	if res.UnpipelinedCPI < res.PipelinedCPI {
		t.Error("unpipelining helped?")
	}
	if res.UnpipelinedCPI > res.PipelinedCPI*1.12 {
		t.Errorf("unpipelining cost %.1f%%, paper says <5%%",
			100*(res.UnpipelinedCPI/res.PipelinedCPI-1))
	}
}

func TestWriteTrafficOrdering(t *testing.T) {
	wt, err := WriteTraffic(context.Background(), testRunner, Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(wt) != 3 || wt[0].Model != "small" || wt[1].Model != "baseline" || wt[2].Model != "large" {
		t.Fatalf("traffic rows not in model order: %+v", wt)
	}
	if !(wt[0].Ratio > wt[1].Ratio && wt[1].Ratio > wt[2].Ratio) {
		t.Errorf("traffic ratios not decreasing: %+v", wt)
	}
}

func TestExtensionsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("extensions at quick scale still cost ~30s")
	}
	var buf bytes.Buffer
	if err := Render(context.Background(), &buf, testRunner, Quick(), Artifacts(ExtensionArtifact), nil); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"instruction queue under dual issue",
		"CPI vs secondary memory latency",
		"branch folding ablation",
		"write-cache size sweep",
		"area-aware clocking",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("extensions output missing %q", want)
		}
	}
}

func TestCycleTimeFactorMonotone(t *testing.T) {
	s, b, l := CycleTimeFactor(core.Small()), CycleTimeFactor(core.Baseline()), CycleTimeFactor(core.Large())
	if !(s < b && b < l) {
		t.Errorf("cycle-time factors not increasing: %.3f %.3f %.3f", s, b, l)
	}
	if s != 1.0 {
		t.Errorf("small model cycle time %.3f want 1.0 (the reference)", s)
	}
}

func TestRenderQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("full render costs minutes")
	}
	var buf bytes.Buffer
	paper := Artifacts(PaperArtifact)
	if err := Render(context.Background(), &buf, testRunner, Quick(), paper, nil); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"Figure 1", "Figure 4", "Table 3", "Table 4", "Table 5",
		"Figure 5", "Figure 6", "Figure 7", "Figure 8", "Table 6",
		"Figure 9(a)", "Figure 9(d)",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("render output missing %q", want)
		}
	}
	// One divider between each pair of adjacent paper sections.
	div := strings.Repeat("-", 72) + "\n"
	if n := strings.Count(buf.String(), div); n != len(paper)-1 {
		t.Errorf("render output has %d dividers, want %d", n, len(paper)-1)
	}
}
