package aurora

import (
	"context"
	"math"
	"testing"

	"aurora/internal/core"
	"aurora/internal/sample"
)

// TestSampledCPIWithinBound is the headline differential test of the sampled
// mode: for every kernel in the corpus (on every pinned model, unless
// -short), the sampled estimate's reported confidence bound must cover the
// observed error against the full cycle-accurate simulation of the same
// budget. It keeps the default sampling parameters honest — if a schedule
// change under-samples a kernel's phase behaviour, this fails before a
// sweep silently reports wrong CPIs.
func TestSampledCPIWithinBound(t *testing.T) {
	const budget = 300_000
	ctx := context.Background()
	models := []Config{core.Small(), core.Baseline(), core.Large(), core.RecommendedE()}
	if testing.Short() {
		models = models[1:2]
	}
	p := sample.Params{}.Normalize()

	for _, wn := range WorkloadNames() {
		w, err := GetWorkload(wn)
		if err != nil {
			t.Fatal(err)
		}
		// One captured functional pass per workload, shared by every model —
		// the same sharing a sweep uses.
		cp, err := sample.NewCheckpoint(ctx, w, budget, p)
		if err != nil {
			t.Fatalf("%s: checkpoint: %v", wn, err)
		}
		for _, cfg := range models {
			full, err := Run(ctx, cfg, w, RunOptions{Budget: budget})
			if err != nil {
				t.Fatalf("%s on %s: full run: %v", wn, cfg.Name, err)
			}
			est, err := cp.Run(ctx, cfg, budget, p)
			if err != nil {
				t.Fatalf("%s on %s: sampled run: %v", wn, cfg.Name, err)
			}
			absErr := math.Abs(est.CPI - full.CPI())
			if absErr > est.CPIError {
				t.Errorf("%s on %s: |sampled %.4f - full %.4f| = %.4f exceeds reported bound %.4f (%d windows)",
					wn, cfg.Name, est.CPI, full.CPI(), absErr, est.CPIError, est.Windows)
			}
			if est.Instructions != full.Instructions {
				t.Errorf("%s on %s: sampled covered %d instructions, full simulated %d",
					wn, cfg.Name, est.Instructions, full.Instructions)
			}
		}
	}
}

// TestSampledCPIWithinBoundBPred extends the bound-coverage contract to the
// predictor axis: a sampled estimate of a machine with a branch predictor
// (whose mispredict redirects are new timing behaviour the sampling windows
// must capture) still covers the observed error against the full run. The
// checkpoint is predictor-independent — the functional pass does not time
// branches — so every predictor cell shares one capture per workload,
// exactly as a -bpred sampled sweep does.
func TestSampledCPIWithinBoundBPred(t *testing.T) {
	const budget = 300_000
	ctx := context.Background()
	specs := []string{"gshare", "tage"}
	if testing.Short() {
		specs = specs[:1]
	}
	p := sample.Params{}.Normalize()

	for _, wn := range WorkloadNames() {
		w, err := GetWorkload(wn)
		if err != nil {
			t.Fatal(err)
		}
		cp, err := sample.NewCheckpoint(ctx, w, budget, p)
		if err != nil {
			t.Fatalf("%s: checkpoint: %v", wn, err)
		}
		for _, spec := range specs {
			bp, err := ParseBPred(spec)
			if err != nil {
				t.Fatal(err)
			}
			cfg := core.Baseline().WithBPred(bp)
			full, err := Run(ctx, cfg, w, RunOptions{Budget: budget})
			if err != nil {
				t.Fatalf("%s +%s: full run: %v", wn, spec, err)
			}
			est, err := cp.Run(ctx, cfg, budget, p)
			if err != nil {
				t.Fatalf("%s +%s: sampled run: %v", wn, spec, err)
			}
			absErr := math.Abs(est.CPI - full.CPI())
			if absErr > est.CPIError {
				t.Errorf("%s +%s: |sampled %.4f - full %.4f| = %.4f exceeds reported bound %.4f (%d windows)",
					wn, spec, est.CPI, full.CPI(), absErr, est.CPIError, est.Windows)
			}
		}
	}
}

// TestFastForwardThenWindow exercises the public Simulation fast-forward
// surface: skipping ahead functionally, then stepping a detailed window,
// must retire the remaining instructions without disturbing the budget
// accounting.
func TestFastForwardThenWindow(t *testing.T) {
	w, err := GetWorkload("espresso")
	if err != nil {
		t.Fatal(err)
	}
	sim, err := NewSimulation(context.Background(), Baseline(), w, RunOptions{Budget: 50_000})
	if err != nil {
		t.Fatal(err)
	}

	skipped, err := sim.FastForward(40_000)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 40_000 {
		t.Fatalf("FastForward skipped %d instructions, want 40000", skipped)
	}
	for sim.Step() {
	}
	if err := sim.Err(); err != nil {
		t.Fatal(err)
	}
	// The detailed window retired only the post-fast-forward remainder.
	if got := sim.Instructions(); got != 10_000 {
		t.Errorf("detailed window retired %d instructions, want 10000", got)
	}
	if sim.Cycles() == 0 {
		t.Error("detailed window simulated zero cycles")
	}

	// Fast-forwarding past the budget stops at the budget.
	sim2, err := NewSimulation(context.Background(), Baseline(), w, RunOptions{Budget: 5_000})
	if err != nil {
		t.Fatal(err)
	}
	skipped, err = sim2.FastForward(10_000)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 5_000 {
		t.Errorf("FastForward past the budget skipped %d, want 5000", skipped)
	}
}
