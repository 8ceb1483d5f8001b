package sample

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"aurora/internal/core"
	"aurora/internal/workloads"
)

func testParams() Params {
	return Params{WarmUp: 20_000, Interval: 10_000, Window: 2_000}.Normalize()
}

func getWorkload(t *testing.T, name string) *workloads.Workload {
	t.Helper()
	w, err := workloads.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// runPrivate is one sampled run on a checkpoint of its own: capture, then
// replay through cfg.
func runPrivate(ctx context.Context, cfg core.Config, w *workloads.Workload, budget uint64, p Params) (*Report, error) {
	p = p.Normalize()
	cp, err := NewCheckpoint(ctx, w, budget, p)
	if err != nil {
		return nil, err
	}
	return cp.Run(ctx, cfg, budget, p)
}

func TestParamsNormalize(t *testing.T) {
	p := Params{}.Normalize()
	want := Params{
		WarmUp:     DefaultWarmUp,
		Interval:   DefaultInterval,
		Window:     DefaultWindow,
		WindowWarm: DefaultWindowWarm,
		Confidence: DefaultConfidence,
		BiasGuard:  DefaultBiasGuard,
	}
	if p != want {
		t.Errorf("Normalize zero value = %+v, want defaults %+v", p, want)
	}

	// Inconsistent values are clamped, never left to misbehave.
	p = Params{Window: 100, WindowWarm: 200, Interval: 50}.Normalize()
	if p.WindowWarm >= p.Window {
		t.Errorf("WindowWarm %d not clamped below Window %d", p.WindowWarm, p.Window)
	}
	if p.Interval < p.Window {
		t.Errorf("Interval %d < Window %d after Normalize", p.Interval, p.Window)
	}
	if c := (Params{Confidence: 0.5}).Normalize().Confidence; c != DefaultConfidence {
		t.Errorf("unsupported confidence normalized to %g, want %g", c, DefaultConfidence)
	}
}

func TestParamsKey(t *testing.T) {
	// The key is versioned and a pure function of the normalized params.
	if k := (Params{}).Key(); !strings.HasPrefix(k, "sampled/v1:") {
		t.Errorf("key %q lacks the version prefix", k)
	}
	if (Params{}).Key() != (Params{WarmUp: DefaultWarmUp}).Key() {
		t.Error("two Params that normalize equally produced different keys")
	}
	if (Params{}).Key() == (Params{WarmUp: 12_345}).Key() {
		t.Error("distinct warm-up lengths share a key")
	}
	if (Params{}).Key() == (Params{Confidence: 0.90}).Key() {
		t.Error("distinct confidence levels share a key")
	}
}

func TestTQuantile(t *testing.T) {
	for _, tc := range []struct {
		conf float64
		df   int
		want float64
	}{
		{0.95, 1, 12.706}, {0.95, 30, 2.042}, {0.95, 1000, 1.960},
		{0.99, 8, 3.355}, {0.90, 5, 2.015},
	} {
		got, err := tQuantile(tc.conf, tc.df)
		if err != nil || got != tc.want {
			t.Errorf("tQuantile(%g, %d) = %g, %v; want %g", tc.conf, tc.df, got, err, tc.want)
		}
	}
	if _, err := tQuantile(0.5, 3); err == nil {
		t.Error("tQuantile accepted an unsupported confidence level")
	}
	if _, err := tQuantile(0.95, 0); err == nil {
		t.Error("tQuantile accepted df 0")
	}
}

// TestSampleSmoke is the `make sample-smoke` target: one sampled run end to
// end, asserting the estimate arrives with a positive error bound and the
// detailed fraction actually is a fraction.
func TestSampleSmoke(t *testing.T) {
	w := getWorkload(t, "espresso")
	rep, err := runPrivate(context.Background(), core.Baseline(), w, 120_000, testParams())
	if err != nil {
		t.Fatal(err)
	}
	if rep.CPI <= 0 {
		t.Errorf("CPI = %g, want > 0", rep.CPI)
	}
	if rep.CPIError <= 0 {
		t.Errorf("CPIError = %g, want a positive reported bound", rep.CPIError)
	}
	if rep.Windows < 2 {
		t.Errorf("windows = %d, want at least 2", rep.Windows)
	}
	if rep.DetailedInstructions >= rep.Instructions {
		t.Errorf("detailed %d >= total %d: nothing was fast-forwarded",
			rep.DetailedInstructions, rep.Instructions)
	}
	if rep.SampleKey != testParams().Key() {
		t.Errorf("SampleKey = %q, want %q", rep.SampleKey, testParams().Key())
	}
	if rep.Confidence != DefaultConfidence {
		t.Errorf("Confidence = %g, want default %g", rep.Confidence, DefaultConfidence)
	}
}

// TestCheckpointSharedIdenticalToPrivate is the checkpoint-sharing
// regression: a sweep replaying one shared checkpoint must produce
// byte-identical sampled reports to a private checkpoint captured afresh
// for each configuration.
func TestCheckpointSharedIdenticalToPrivate(t *testing.T) {
	ctx := context.Background()
	w := getWorkload(t, "espresso")
	p := testParams()
	const budget = 120_000

	shared, err := NewCheckpoint(ctx, w, budget, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range append(core.Models(), core.RecommendedE()) {
		got, err := shared.Run(ctx, cfg, budget, p)
		if err != nil {
			t.Fatalf("%s: shared run: %v", cfg.Name, err)
		}
		want, err := runPrivate(ctx, cfg, w, budget, p)
		if err != nil {
			t.Fatalf("%s: private run: %v", cfg.Name, err)
		}
		gj, _ := json.Marshal(got)
		wj, _ := json.Marshal(want)
		if string(gj) != string(wj) {
			t.Errorf("%s: shared-checkpoint report differs from private:\nshared:  %s\nprivate: %s",
				cfg.Name, gj, wj)
		}
	}
}

// TestCheckpointBackToBackWindows: with Interval == Window there is no
// fast-forward stretch, so every capture after the warm-up reads zero
// instructions — it must log nothing and execute nothing, not run the VM
// to the budget.
func TestCheckpointBackToBackWindows(t *testing.T) {
	ctx := context.Background()
	p := Params{WarmUp: 5000, Interval: 2000, Window: 2000}
	const budget = 40_000
	cp, err := NewCheckpoint(ctx, getWorkload(t, "espresso"), budget, p)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Executed != budget {
		t.Errorf("Executed = %d, want %d", cp.Executed, budget)
	}
	if len(cp.segs) != 18 {
		t.Fatalf("%d segments, want 18", len(cp.segs))
	}
	for i, seg := range cp.segs {
		if i < len(cp.segs)-1 && len(seg.win) != 2000 {
			t.Errorf("segment %d: window of %d records, want 2000", i, len(seg.win))
		}
		if i > 0 && len(seg.warm) != 0 {
			t.Errorf("segment %d: %d warm entries, want none", i, len(seg.warm))
		}
	}
	rep, err := cp.Run(ctx, core.Baseline(), budget, p)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Windows != 17 {
		t.Errorf("%d windows, want 17", rep.Windows)
	}
}

// TestCheckpointInvalidation: a checkpoint refuses to serve any (workload,
// layout, budget) other than the one it captured — changed warm-up, changed
// budget, changed workload — instead of silently producing a wrong estimate.
func TestCheckpointInvalidation(t *testing.T) {
	ctx := context.Background()
	p := testParams()
	const budget = 60_000
	cp, err := NewCheckpoint(ctx, getWorkload(t, "li"), budget, p)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := cp.Run(ctx, core.Baseline(), budget+1, p); err == nil {
		t.Error("checkpoint accepted a different budget")
	}
	warm := p
	warm.WarmUp += 1_000
	if _, err := cp.Run(ctx, core.Baseline(), budget, warm); err == nil {
		t.Error("checkpoint accepted a different warm-up length")
	}
	win := p
	win.Window *= 2
	if _, err := cp.Run(ctx, core.Baseline(), budget, win); err == nil {
		t.Error("checkpoint accepted a different window length")
	}
	if cp.CaptureKey == p.CaptureKey("espresso", budget) {
		t.Error("checkpoint claims to match a different workload")
	}
	if cp.CaptureKey != p.CaptureKey("li", budget) {
		t.Error("checkpoint rejects its own identity")
	}

	// Estimator-only knobs do not invalidate: one capture serves any
	// confidence level or window-warm prefix.
	est := p
	est.Confidence = 0.90
	est.WindowWarm = p.Window / 4
	if _, err := cp.Run(ctx, core.Baseline(), budget, est); err != nil {
		t.Errorf("estimator-only change invalidated the checkpoint: %v", err)
	}
}

// TestCheckpointRejectsTinyCacheLines: warm-log dedup is exact only for
// lines >= warmDedupBlock bytes; smaller geometries must be rejected.
func TestCheckpointRejectsTinyCacheLines(t *testing.T) {
	ctx := context.Background()
	p := testParams()
	cp, err := NewCheckpoint(ctx, getWorkload(t, "li"), 60_000, p)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Baseline()
	cfg.LineBytes = 8
	if _, err := cp.Run(ctx, cfg, 60_000, p); err == nil {
		t.Fatal("checkpoint replayed into 8-byte cache lines")
	}
}

// TestRunHaltedKernel: a kernel that halts inside the budget still yields an
// estimate when at least two windows completed, and reports Halted.
func TestRunHaltedKernel(t *testing.T) {
	w := getWorkload(t, "li")
	// A budget beyond any kernel's natural length: li halts first.
	p := Params{WarmUp: 5_000, Interval: 4_000, Window: 1_000}.Normalize()
	rep, err := runPrivate(context.Background(), core.Baseline(), w, 0, p)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Halted {
		t.Error("kernel ran to completion but Halted is false")
	}
	if rep.Windows < 2 || rep.CPIError <= 0 {
		t.Errorf("halted-kernel estimate incomplete: %d windows, bound %g", rep.Windows, rep.CPIError)
	}
}

// TestRunTooFewWindows: a budget that fits under two windows is a
// descriptive error, not a NaN-bearing report.
func TestRunTooFewWindows(t *testing.T) {
	w := getWorkload(t, "espresso")
	p := Params{WarmUp: 50_000, Interval: 30_000, Window: 3_000}
	_, err := runPrivate(context.Background(), core.Baseline(), w, 60_000, p)
	if err == nil {
		t.Fatal("sampled run with <2 windows returned a report")
	}
	if !strings.Contains(err.Error(), "window") {
		t.Errorf("error %q does not explain the window shortfall", err)
	}
}

// TestMinBudgetYieldsTwoWindows pins MinBudget to the capture layout: at
// MinBudget(2) a run measures two windows, and a budget that cuts the
// second window back to its warm prefix measures one and fails.
func TestMinBudgetYieldsTwoWindows(t *testing.T) {
	p := Params{WarmUp: 2_000, Interval: 3_000, Window: 1_000}.Normalize()
	w := getWorkload(t, "espresso")
	rep, err := runPrivate(context.Background(), core.Baseline(), w, p.MinBudget(2), p)
	if err != nil {
		t.Fatalf("budget MinBudget(2) = %d: %v", p.MinBudget(2), err)
	}
	if rep.Windows != 2 {
		t.Errorf("budget MinBudget(2) = %d measured %d windows, want 2", p.MinBudget(2), rep.Windows)
	}
	short := p.WarmUp + p.Interval + p.WindowWarm
	if _, err := runPrivate(context.Background(), core.Baseline(), w, short, p); err == nil {
		t.Errorf("budget %d, a second window of only its warm prefix, measured two windows", short)
	}
}
