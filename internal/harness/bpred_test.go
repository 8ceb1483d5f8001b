package harness

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"aurora/internal/bpred"
	"aurora/internal/core"
	"aurora/internal/faultinject"
	"aurora/internal/sample"
	"aurora/internal/workloads"
)

func parseBPred(t *testing.T, spec string) bpred.Config {
	t.Helper()
	bp, err := bpred.Parse(spec)
	if err != nil {
		t.Fatalf("Parse(%q): %v", spec, err)
	}
	return bp
}

// TestMemoKeyBPredSeparation extends the memo-key axes to the predictor:
// configs differing only in the branch predictor never share an entry, while
// the same predictor reached through cfg.BPred and through the Options
// overlay is one machine and must share one.
func TestMemoKeyBPredSeparation(t *testing.T) {
	r := NewRunner(2)
	w := tinyWorkload("bpred-memo")
	base := core.Baseline()
	opts := Options{Budget: 150}

	repDef, err := r.Run(context.Background(), base, w, opts)
	if err != nil {
		t.Fatal(err)
	}

	// Every predictor is its own job; no pair may collide.
	seen := map[*core.Report]string{repDef: "folding"}
	for _, spec := range []string{"static", "bimodal", "bimodal:entries=512", "gshare", "tage"} {
		rep, err := r.Run(context.Background(), base.WithBPred(parseBPred(t, spec)), w, opts)
		if err != nil {
			t.Fatal(err)
		}
		if prev, dup := seen[rep]; dup {
			t.Errorf("predictor %q shared a memo entry with %q", spec, prev)
		}
		seen[rep] = spec
	}
	if s := r.Stats(); s.Misses != 6 || s.Hits != 0 {
		t.Fatalf("stats %+v, want 6 misses / 0 hits", s)
	}

	// The Options overlay names the same machine as the explicit config:
	// it must hit the explicit config's entry, not create a new one.
	gs := parseBPred(t, "gshare")
	viaOpts, err := r.Run(context.Background(), base, w, Options{Budget: 150, BPred: gs})
	if err != nil {
		t.Fatal(err)
	}
	viaCfg, err := r.Run(context.Background(), base.WithBPred(gs), w, opts)
	if err != nil {
		t.Fatal(err)
	}
	if viaOpts != viaCfg {
		t.Error("overlay and explicit gshare config did not share a memo entry")
	}

	// An explicit per-config predictor wins over the overlay: the sweep's
	// folding anchor must stay folding under a sweep-wide -bpred override.
	// (A config can't carry an explicit folding marker — the zero value IS
	// default — so the precedence is observable via a non-default explicit
	// predictor instead.)
	explicit, err := r.Run(context.Background(),
		base.WithBPred(parseBPred(t, "static")), w, Options{Budget: 150, BPred: gs})
	if err != nil {
		t.Fatal(err)
	}
	if explicit == viaCfg {
		t.Error("overlay clobbered an explicit per-config predictor")
	}
	if seen[explicit] != "static" {
		t.Errorf("explicit static under a gshare overlay resolved to %q, want the static entry",
			seen[explicit])
	}
}

// TestSampledKeyBPredSeparation: the predictor axis also separates sampled
// estimates — same workload, same sampling parameters, different predictor
// must be two jobs, while a repeat is a hit.
func TestSampledKeyBPredSeparation(t *testing.T) {
	r := NewRunner(2)
	w, err := workloads.Get("espresso")
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Budget: 60_000}
	p := sample.Params{WarmUp: 5_000, Interval: 10_000, Window: 2_000}

	def, err := r.RunSampled(context.Background(), core.Baseline(), w, opts, p)
	if err != nil {
		t.Fatal(err)
	}
	gs, err := r.RunSampled(context.Background(),
		core.Baseline().WithBPred(parseBPred(t, "gshare")), w, opts, p)
	if err != nil {
		t.Fatal(err)
	}
	if def == gs {
		t.Error("sampled estimates for folding and gshare shared a memo entry")
	}
	again, err := r.RunSampled(context.Background(),
		core.Baseline().WithBPred(parseBPred(t, "gshare")), w, opts, p)
	if err != nil {
		t.Fatal(err)
	}
	if again != gs {
		t.Error("repeated sampled gshare job missed the memo")
	}
	if s := r.Stats(); s.Misses != 2 || s.Hits != 1 {
		t.Fatalf("stats %+v, want 2 misses / 1 hit", s)
	}
}

// TestBPredReportDeterminism: the same (config, workload, budget) job
// produces a byte-identical report through a serial runner and a wide
// parallel one — worker count is scheduling, never results.
func TestBPredReportDeterminism(t *testing.T) {
	w, err := workloads.Get("espresso")
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Budget: 40_000}
	for _, spec := range []string{"static", "gshare", "tage"} {
		cfg := core.Baseline().WithBPred(parseBPred(t, spec))
		serial, err := NewRunner(1).Run(context.Background(), cfg, w, opts)
		if err != nil {
			t.Fatal(err)
		}
		wide, err := NewRunner(8).Run(context.Background(), cfg, w, opts)
		if err != nil {
			t.Fatal(err)
		}
		if *serial != *wide {
			t.Errorf("%s: reports differ across worker counts:\n-j1 %+v\n-j8 %+v", spec, serial, wide)
		}
		if fmt.Sprintf("%+v", serial) != fmt.Sprintf("%+v", wide) {
			t.Errorf("%s: rendered reports differ across worker counts", spec)
		}
	}
}

// TestPredictorSweepShapes pins the bits-vs-CPI figure's shape at Quick
// scale: the folding anchor is free and perfect, static is the worst
// predictor, training predictors order by sophistication on misprediction
// rate, and the costing columns agree with the config they label.
func TestPredictorSweepShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("predictor sweep at Quick scale is not a -short test")
	}
	res, err := PredictorSweep(context.Background(), testRunner, core.Baseline(), Quick())
	if err != nil {
		t.Fatal(err)
	}
	if res.Model != "baseline" {
		t.Errorf("sweep model %q, want baseline", res.Model)
	}
	if len(res.Points) != len(bpredSweepSpec) {
		t.Fatalf("%d points, want %d", len(res.Points), len(bpredSweepSpec))
	}
	byLabel := map[string]BPredPoint{}
	for i, p := range res.Points {
		if p.Label != bpredSweepSpec[i] {
			t.Errorf("point %d label %q, want %q (sweep order is part of the figure)",
				i, p.Label, bpredSweepSpec[i])
		}
		if p.Faults != 0 {
			t.Errorf("%s: %d faulted cells", p.Label, p.Faults)
		}
		if math.IsNaN(p.IntCPI) || math.IsNaN(p.FPCPI) {
			t.Errorf("%s: NaN CPI", p.Label)
		}
		bp := parseBPred(t, p.Label)
		if p.Key != bp.Key() || p.Bits != bp.StorageBits() {
			t.Errorf("%s: point identity (%s, %d bits) disagrees with its config (%s, %d)",
				p.Label, p.Key, p.Bits, bp.Key(), bp.StorageBits())
		}
		cost, err := core.Baseline().WithBPred(bp).CostRBE()
		if err != nil {
			t.Fatal(err)
		}
		if p.CostRBE != cost {
			t.Errorf("%s: CostRBE %d, want %d", p.Label, p.CostRBE, cost)
		}
		byLabel[p.Label] = p
	}

	folding := byLabel["folding"]
	if folding.Bits != 0 || folding.CostRBE != byLabel["static"].CostRBE {
		t.Errorf("folding and static must both be free: %+v vs %+v", folding, byLabel["static"])
	}
	if folding.IntMispredict != 0 {
		t.Errorf("folding mispredict rate %.4f, want 0 (it never predicts)", folding.IntMispredict)
	}
	for _, p := range res.Points {
		if p.IntCPI < folding.IntCPI || p.FPCPI < folding.FPCPI {
			t.Errorf("%s beat the free-folding anchor (int %.4f vs %.4f, fp %.4f vs %.4f)",
				p.Label, p.IntCPI, folding.IntCPI, p.FPCPI, folding.FPCPI)
		}
		if p.Label != "folding" && p.IntCPI > byLabel["static"].IntCPI {
			t.Errorf("%s has worse integer CPI than static BTFNT (%.4f vs %.4f)",
				p.Label, p.IntCPI, byLabel["static"].IntCPI)
		}
	}

	// Misprediction rates order by sophistication where the relation is
	// budget-independent: every trained predictor beats heuristic-only
	// static, and TAGE (which subsumes both a bimodal base and history
	// correlation) is at least as good as either single-mechanism table.
	// (gshare vs bimodal flips with training budget — short runs penalize
	// history-indexed tables — so that pair is deliberately not ordered.)
	static := byLabel["static"].IntMispredict
	tage := byLabel["tage:tables=4,entries=1024,tag=8"].IntMispredict
	for _, label := range []string{"bimodal:entries=4096", "gshare:entries=4096,hist=12"} {
		if m := byLabel[label].IntMispredict; m > static {
			t.Errorf("%s mispredicts more than static BTFNT (%.4f vs %.4f)", label, m, static)
		}
		if tage > byLabel[label].IntMispredict {
			t.Errorf("tage mispredicts more than %s (%.4f vs %.4f)",
				label, tage, byLabel[label].IntMispredict)
		}
	}

	// Within a kind, more storage means more bits on the x-axis.
	if byLabel["bimodal:entries=512"].Bits >= byLabel["bimodal:entries=4096"].Bits {
		t.Error("bimodal bits not ascending with table size")
	}
	if byLabel["gshare:entries=1024,hist=10"].Bits >= byLabel["gshare:entries=4096,hist=12"].Bits {
		t.Error("gshare bits not ascending with table size")
	}
}

// TestPredictorSweepAllFaultedMispredictNaN is the regression test for the
// zero-on-dead-suite bug: with every integer cell faulted there are no
// branch counters to aggregate, and the sweep once reported the rate as a
// perfect 0.0. It must report NaN, exactly like suiteStats does for the
// CPIs of a fully-faulted suite.
func TestPredictorSweepAllFaultedMispredictNaN(t *testing.T) {
	faultinject.Reset()
	faultinject.Arm(faultinject.LSUDispatch)
	defer faultinject.Reset()

	res, err := PredictorSweep(context.Background(), NewRunner(2), core.Baseline(),
		Options{Budget: 20_000})
	if err != nil {
		t.Fatalf("keep-going sweep aborted: %v", err)
	}
	for _, p := range res.Points {
		if !math.IsNaN(p.IntCPI) {
			t.Errorf("%s: IntCPI %.4f with every integer cell faulted, want NaN", p.Label, p.IntCPI)
		}
		if !math.IsNaN(p.IntMispredict) {
			t.Errorf("%s: IntMispredict %.4f with every integer cell faulted, want NaN (0 would read as a perfect front end)",
				p.Label, p.IntMispredict)
		}
		if p.Faults == 0 {
			t.Errorf("%s: no faults counted under an armed hot-path site", p.Label)
		}
	}
}

// TestBPredOverrideReachesSweepFigures is the regression test for the sweep
// options dropping the -bpred override: Figures 8 and 9 rebuilt their
// options from the two budgets alone, so a static predictor left every
// Figure 8 CPI byte-identical to the folding front end.
func TestBPredOverrideReachesSweepFigures(t *testing.T) {
	opts := Options{Budget: 20_000, SweepBudget: 5_000}
	r := NewRunner(2)
	plain, err := Fig8(context.Background(), r, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.BPred = parseBPred(t, "static")
	static, err := Fig8(context.Background(), r, opts)
	if err != nil {
		t.Fatal(err)
	}
	changed := 0
	for i := range plain {
		if static[i].CPI != plain[i].CPI {
			changed++
		}
	}
	if changed == 0 {
		t.Error("-bpred static left every Figure 8 CPI unchanged; the override never reached the sweep")
	}
}

// TestPredictorSweepFoldingRowIgnoresOverride: the predictor sweep names
// every point's predictor itself, so a sweep-wide override must leave its
// folding anchor row identical to a run without one.
func TestPredictorSweepFoldingRowIgnoresOverride(t *testing.T) {
	opts := Options{Budget: 20_000, SweepBudget: 5_000}
	r := NewRunner(2)
	plain, err := PredictorSweep(context.Background(), r, core.Baseline(), opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.BPred = parseBPred(t, "static")
	over, err := PredictorSweep(context.Background(), r, core.Baseline(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Points[0].Label != "folding" {
		t.Fatalf("first sweep point is %q, want the folding anchor", plain.Points[0].Label)
	}
	if !reflect.DeepEqual(plain.Points[0], over.Points[0]) {
		t.Errorf("folding row under an override = %+v, want %+v", over.Points[0], plain.Points[0])
	}
}
