package harness

import (
	"context"
	"math"
	"strings"
	"sync"
	"testing"

	"aurora/internal/faultinject"
	"aurora/internal/sample"
)

// exploreTestSpec is a slightly wider grid than the tiny preset — eight
// candidates across three axes — small enough to finish in seconds at
// screening budgets but wide enough that the screens actually drop points.
func exploreTestSpec() ExploreSpec {
	return ExploreSpec{
		IssueWidths: []int{1, 2},
		ICacheKB:    []int{1, 2},
		WCLines:     []int{2, 4},
		ROBs:        []int{6},
		MSHRs:       []int{2},
		PFBufs:      []int{4},
		FullBudget:  30_000,
		Rungs:       2,
		Slack:       0.15,
	}
}

// TestExploreFrontierDominance is the search's core property: no emitted
// frontier point is dominated by another emitted point, the frontier is
// cost-ascending, and along it CPI strictly improves as cost rises (a
// costlier point that is not faster would be dominated).
func TestExploreFrontierDominance(t *testing.T) {
	ex := &Explorer{Runner: NewRunner(4), Spec: exploreTestSpec()}
	res, err := ex.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Frontier) == 0 {
		t.Fatal("healthy search produced an empty frontier")
	}
	for i, p := range res.Frontier {
		if math.IsNaN(p.CPI) {
			t.Fatalf("frontier point %s has NaN CPI", p.Label)
		}
		for j, q := range res.Frontier {
			if i == j {
				continue
			}
			if q.CostRBE <= p.CostRBE && q.CPI <= p.CPI && (q.CostRBE < p.CostRBE || q.CPI < p.CPI) {
				t.Errorf("frontier point %s (%d RBE, %.4f CPI) is dominated by %s (%d RBE, %.4f CPI)",
					p.Label, p.CostRBE, p.CPI, q.Label, q.CostRBE, q.CPI)
			}
		}
		if i > 0 {
			prev := res.Frontier[i-1]
			if p.CostRBE < prev.CostRBE {
				t.Errorf("frontier not cost-ascending: %s (%d) after %s (%d)",
					p.Label, p.CostRBE, prev.Label, prev.CostRBE)
			}
			if p.CostRBE > prev.CostRBE && p.CPI >= prev.CPI {
				t.Errorf("frontier point %s costs more than %s without improving CPI (%.4f vs %.4f)",
					p.Label, prev.Label, p.CPI, prev.CPI)
			}
		}
	}
	// The cheapest candidate can never be dominated (nothing costs less),
	// so it must appear on the frontier.
	cands, _, err := res.Spec.candidates()
	if err != nil {
		t.Fatal(err)
	}
	cheapest := cands[0]
	for _, c := range cands {
		if c.CostRBE < cheapest.CostRBE {
			cheapest = c
		}
	}
	found := false
	for _, p := range res.Frontier {
		if p.Label == cheapest.Label {
			found = true
		}
	}
	if !found {
		t.Errorf("cheapest candidate %s (%d RBE) missing from the frontier", cheapest.Label, cheapest.CostRBE)
	}
}

// TestExplorePromotionAccounting pins the halving ladder's bookkeeping:
// the first rung admits the whole grid, every rung's entries split exactly
// into promoted/dropped/faulted, each rung admits exactly the previous
// rung's survivors, and the final rung's promotions are the frontier.
func TestExplorePromotionAccounting(t *testing.T) {
	ex := &Explorer{Runner: NewRunner(4), Spec: exploreTestSpec()}
	res, err := ex.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rungs) != res.Spec.Rungs {
		t.Fatalf("%d rungs recorded, want %d", len(res.Rungs), res.Spec.Rungs)
	}
	if res.Rungs[0].Entered != res.Candidates {
		t.Errorf("rung 0 entered %d, want the whole grid (%d)", res.Rungs[0].Entered, res.Candidates)
	}
	for i, rung := range res.Rungs {
		if rung.Rung != i {
			t.Errorf("rung %d recorded index %d", i, rung.Rung)
		}
		if rung.Promoted+rung.Dropped+rung.Faulted != rung.Entered {
			t.Errorf("rung %d: %d promoted + %d dropped + %d faulted != %d entered",
				i, rung.Promoted, rung.Dropped, rung.Faulted, rung.Entered)
		}
		if i > 0 && rung.Entered != res.Rungs[i-1].Promoted {
			t.Errorf("rung %d entered %d, want rung %d's %d promotions",
				i, rung.Entered, i-1, res.Rungs[i-1].Promoted)
		}
		if i > 0 && res.Rungs[i-1].Budget >= rung.Budget {
			t.Errorf("rung budgets not ascending: %d then %d", res.Rungs[i-1].Budget, rung.Budget)
		}
	}
	last := res.Rungs[len(res.Rungs)-1]
	if last.Promoted != len(res.Frontier) {
		t.Errorf("final rung promoted %d, want the frontier size %d", last.Promoted, len(res.Frontier))
	}
	if last.Budget != res.Spec.FullBudget {
		t.Errorf("final rung budget %d, want FullBudget %d", last.Budget, res.Spec.FullBudget)
	}
	if got, want := res.Evaluations(), res.Rungs[0].Entered+res.Rungs[1].Entered; got != want {
		t.Errorf("Evaluations() = %d, want %d", got, want)
	}
}

// TestExploreDeterminismAcrossWorkers: the rendered frontier and the CSV
// artifact are byte-identical through a serial runner and a wide pool —
// worker count is scheduling, never results — and match
// testdata/explore.golden.
func TestExploreDeterminismAcrossWorkers(t *testing.T) {
	render := func(workers int) (string, string) {
		t.Helper()
		ex := &Explorer{Runner: NewRunner(workers), Spec: exploreTestSpec()}
		res, err := ex.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return text(res.Table()), csvText(t, res.Table())
	}
	text1, csv1 := render(1)
	text8, csv8 := render(8)
	if text1 != text8 {
		t.Errorf("rendered exploration differs across worker counts:\n-j1:\n%s\n-j8:\n%s", text1, text8)
	}
	if csv1 != csv8 {
		t.Errorf("exploration CSV differs across worker counts:\n-j1:\n%s\n-j8:\n%s", csv1, csv8)
	}
	checkGolden(t, "explore.golden", text1+csvSection("explore", csv1))
}

// TestExploreStoreBackedRerun is the incremental-search acceptance
// property: a second exploration by a "fresh process" (fresh runner, fresh
// store handle on the same directory) re-simulates nothing and reproduces
// the frontier byte for byte.
func TestExploreStoreBackedRerun(t *testing.T) {
	dir := t.TempDir()
	spec := exploreTestSpec()

	cold := NewRunner(4)
	cold.Store = openStore(t, dir)
	res1, err := (&Explorer{Runner: cold, Spec: spec}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	st1 := cold.Stats()
	if st1.Simulated == 0 {
		t.Fatalf("cold exploration simulated nothing: %+v", st1)
	}

	warm := NewRunner(4)
	warm.Store = openStore(t, dir)
	res2, err := (&Explorer{Runner: warm, Spec: spec}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	st2 := warm.Stats()
	if st2.Simulated != 0 {
		t.Errorf("warm exploration re-simulated %d candidates, want 0 (stats %+v)", st2.Simulated, st2)
	}
	if st2.StoreHits == 0 {
		t.Errorf("warm exploration took no store hits: %+v", st2)
	}
	if out1, out2 := text(res1.Table()), text(res2.Table()); out1 != out2 {
		t.Errorf("store-served exploration differs from the cold one:\ncold:\n%s\nwarm:\n%s", out1, out2)
	}
}

// TestExploreFaultedCandidatesDropped: with a hot-path site armed every
// candidate faults; the search must end cleanly with an empty frontier and
// the faults recorded — never crash, never error.
func TestExploreFaultedCandidatesDropped(t *testing.T) {
	faultinject.Reset()
	faultinject.Arm(faultinject.LSUDispatch)
	defer faultinject.Reset()

	var mu sync.Mutex
	var events []ExploreEvent
	ex := &Explorer{
		Runner: NewRunner(2),
		Spec:   TinyExploreSpec(),
		Observe: func(ev ExploreEvent) {
			mu.Lock()
			defer mu.Unlock()
			events = append(events, ev)
		},
	}
	res, err := ex.Run(context.Background())
	if err != nil {
		t.Fatalf("fully-faulted search errored: %v", err)
	}
	if len(res.Frontier) != 0 {
		t.Errorf("faulted search produced a frontier: %+v", res.Frontier)
	}
	if len(res.Rungs) != 1 {
		t.Fatalf("%d rungs recorded, want the search to end after the first fully-faulted rung", len(res.Rungs))
	}
	r0 := res.Rungs[0]
	if r0.Faulted != res.Candidates || r0.Promoted != 0 || r0.Dropped != 0 {
		t.Errorf("rung 0 accounting %+v, want every one of the %d candidates faulted", r0, res.Candidates)
	}
	if len(res.Faults) != res.Candidates {
		t.Fatalf("%d faults recorded, want %d", len(res.Faults), res.Candidates)
	}
	for _, f := range res.Faults {
		if f.Fault == nil || f.Fault.Subsystem != "ipu" {
			t.Errorf("fault %+v missing the typed ipu fault", f)
		}
		if f.Cell == "" {
			t.Errorf("fault for %s has no cell annotation", f.Label)
		}
	}
	if len(events) != res.Candidates {
		t.Fatalf("%d observed events, want %d", len(events), res.Candidates)
	}
	for _, ev := range events {
		if ev.Fault == nil || !math.IsNaN(ev.CPI) {
			t.Errorf("faulted event %+v must carry the fault and a NaN CPI", ev)
		}
	}
}

// TestExploreSpecPresets: the grid presets resolve (an unknown one is an
// error), and the schedule overlay replaces exactly the fields it sets.
func TestExploreSpecPresets(t *testing.T) {
	if _, err := ExploreSpecFor("galactic", ExploreSpec{}); err == nil {
		t.Error("unknown grid accepted")
	}
	if _, err := ExploreSpecFor("tiny", ExploreSpec{Workload: "warp9"}); err == nil {
		t.Error("unknown workload accepted")
	}
	if _, err := ExploreSpecFor("tiny", ExploreSpec{Sample: sample.Params{Window: 5000}}); err == nil {
		t.Error("sample parameters without sampled screening were silently ignored")
	}
	tiny, err := ExploreSpecFor("tiny", ExploreSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if tiny.Rungs != 2 || len(tiny.ICacheKB) != 2 {
		t.Errorf("tiny preset = %+v, want the 2-rung 4-candidate smoke grid", tiny)
	}
	for _, grid := range []string{"default", ""} {
		def, err := ExploreSpecFor(grid, ExploreSpec{})
		if err != nil {
			t.Fatal(err)
		}
		if n := def.Normalize(); n.Rungs != 3 || n.Workload != "espresso" {
			t.Errorf("grid %q normalizes to %+v, want the standard 3-rung espresso search", grid, n)
		}
	}

	over := ExploreSpec{Workload: "li", FullBudget: 9_000, Rungs: 3, Halve: 2, Slack: 0.3, MaxCostRBE: 50_000}
	got, err := ExploreSpecFor("tiny", over)
	if err != nil {
		t.Fatal(err)
	}
	if got.Workload != "li" || got.FullBudget != 9_000 || got.Rungs != 3 || got.Halve != 2 ||
		got.Slack != 0.3 || got.MaxCostRBE != 50_000 || got.Sampled {
		t.Errorf("overlay = %+v, want every set field applied and exact screens", got)
	}
	if len(got.ICacheKB) != 2 {
		t.Errorf("overlay replaced the tiny grid's axes: %+v", got.ICacheKB)
	}
	over = ExploreSpec{Sampled: true, Sample: sample.Params{WarmUp: 2_000, Interval: 3_000, Window: 500}}
	if got, _ := ExploreSpecFor("tiny", over); !got.Sampled || got.Sample.Window != 500 {
		t.Errorf("sampled overlay = %+v, want sampled screens with the given window", got)
	}
}

// TestExploreSpecRejectsShortSampledScreens: a sampled search whose first
// screen budget fits fewer than two windows used to start and then fail
// mid-search; the tiny grid screens at 10k instructions, below the default
// 50k warm-up alone. It is rejected before anything runs, naming the rung
// budget and the parameters it falls short of.
func TestExploreSpecRejectsShortSampledScreens(t *testing.T) {
	_, err := ExploreSpecFor("tiny", ExploreSpec{Sampled: true})
	if err == nil {
		t.Fatal("tiny grid with default sampling accepted")
	}
	for _, want := range []string{"10000", "warm-up 50000", "interval 30000"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
	// The boundary: the smallest screen budget that fits two windows passes.
	p := sample.Params{WarmUp: 2_000, Interval: 3_000, Window: 1_000}
	need := p.MinBudget(2)
	ok := ExploreSpec{Sampled: true, Sample: p, FullBudget: 4 * need, Rungs: 2, Halve: 4}
	if _, err := ExploreSpecFor("tiny", ok); err != nil {
		t.Errorf("screen budget %d = MinBudget(2) rejected: %v", need, err)
	}
	ok.FullBudget--
	if _, err := ExploreSpecFor("tiny", ok); err == nil {
		t.Errorf("screen budget %d, one short of MinBudget(2), accepted", (4*need-1)/4)
	}
	// Without screening rungs nothing runs sampled.
	if _, err := ExploreSpecFor("tiny", ExploreSpec{Sampled: true, Rungs: 1}); err != nil {
		t.Errorf("a one-rung (all exact) sampled search rejected: %v", err)
	}
}
