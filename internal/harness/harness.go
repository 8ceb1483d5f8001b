// Package harness defines one experiment per table and figure of the
// paper's evaluation (§4-§5) and regenerates their rows and series from the
// timing simulator. The bench targets in the repository root and the
// cmd/aurora-experiments tool are thin wrappers over these functions.
package harness

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"

	"aurora/internal/bpred"
	"aurora/internal/core"
	"aurora/internal/fpu"
	"aurora/internal/simfault"
	"aurora/internal/workloads"
)

// Options controls experiment scale and failure policy.
type Options struct {
	// Budget bounds each benchmark run's dynamic instructions.
	// 0 runs every kernel to natural completion.
	Budget uint64
	// SweepBudget bounds the runs of wide parameter sweeps (Figures 8, 9).
	// 0 uses Budget.
	SweepBudget uint64
	// Scheduled applies the §6 compiler-scheduling trace pass.
	Scheduled bool
	// FailFast aborts a sweep on its first job fault, cancelling queued
	// jobs at the runner's admission gate. The default (keep-going) lets
	// every job run and renders partial tables with faulted cells marked,
	// so one bad design point degrades one cell instead of the study.
	// Not part of the memo key: it changes scheduling, never results.
	FailFast bool
	// BPred, when non-default, overlays a branch predictor onto every
	// configuration whose own BPred is unset — the -bpred "what if the
	// whole study ran on this front end" override. It rewrites the config
	// before fingerprinting at the runner's single chokepoint, so memo and
	// store keys always describe the machine actually simulated; the
	// default (folding) value leaves every figure byte-identical.
	BPred bpred.Config
}

// Quick returns reduced budgets for tests.
func Quick() Options { return Options{Budget: 250_000, SweepBudget: 150_000} }

// Full returns the full experiment scale.
func Full() Options { return Options{Budget: 0, SweepBudget: 600_000} }

// sweep returns the options of a wide parameter sweep: the sweep budget
// becomes the run budget, and every other field — FailFast, Scheduled and
// the BPred override — carries through unchanged.
func (o Options) sweep() Options {
	if o.SweepBudget != 0 {
		o.Budget = o.SweepBudget
	}
	o.SweepBudget = o.Budget
	return o
}

// applyBPred overlays the sweep-wide predictor override onto one job's
// configuration. Explicit per-point predictors win (the predictor sweep
// sets its own); the override fills only configs still on the default
// folding front end. Applied before fingerprinting, so keys always
// describe the machine actually simulated.
func applyBPred(cfg core.Config, opts Options) core.Config {
	if opts.BPred.IsDefault() || !cfg.BPred.IsDefault() {
		return cfg
	}
	return cfg.WithBPred(opts.BPred)
}

// ModelNames are the machine models ModelByName resolves, in the paper's
// order.
var ModelNames = []string{"small", "baseline", "large", "pointE"}

// ModelByName resolves a Table 1 model name ("small", "baseline",
// "large") or the §5.6 recommendation ("pointE").
func ModelByName(name string) (core.Config, error) {
	switch name {
	case "small":
		return core.Small(), nil
	case "baseline", "base":
		return core.Baseline(), nil
	case "large":
		return core.Large(), nil
	case "pointE", "pointe", "e":
		return core.RecommendedE(), nil
	}
	return core.Config{}, fmt.Errorf("unknown model %q (%s)", name, strings.Join(ModelNames, ", "))
}

// effectiveBudget resolves Options.Budget to the per-workload instruction
// budget actually simulated (0 selects the workload's default with headroom:
// kernels halt on their own). Runner keys memo entries by this value so
// explicit and defaulted budgets collapse to one job.
func effectiveBudget(w *workloads.Workload, opts Options) uint64 {
	if opts.Budget != 0 {
		return opts.Budget
	}
	return w.DefaultBudget * 4
}

// faultCell classifies a job error under the sweep policy: in keep-going
// mode (the default) a *simfault.Fault is data — the caller marks that cell
// and keeps the rest of the table — while fail-fast mode and non-fault
// errors (configuration mistakes, I/O, cancellation) abort the sweep.
func faultCell(opts Options, err error) (*simfault.Fault, error) {
	if err == nil {
		return nil, nil
	}
	var f *simfault.Fault
	if !opts.FailFast && errors.As(err, &f) {
		return f, nil
	}
	return nil, err
}

// suiteCPI runs a whole suite on one configuration through the runner,
// returning the per-bench CPIs and summary statistics in suite order.
// In keep-going mode faulted benchmarks come back annotated (Fault set,
// CPI NaN) and the summary statistics cover the healthy cells only.
func suiteCPI(ctx context.Context, r *Runner, cfg core.Config, suite []*workloads.Workload, opts Options) (per []BenchCPI, min, max, avg float64, err error) {
	if len(suite) == 0 {
		return nil, 0, 0, 0, fmt.Errorf("harness: empty workload suite for config %q", cfg.Name)
	}
	per, err = each(ctx, opts, len(suite), func(ctx context.Context, i int) (BenchCPI, error) {
		rep, err := r.Run(ctx, cfg, suite[i], opts)
		f, err := faultCell(opts, err)
		if err != nil {
			return BenchCPI{}, err
		}
		if f != nil {
			return BenchCPI{Bench: suite[i].Name, CPI: math.NaN(), Fault: f}, nil
		}
		return BenchCPI{Bench: suite[i].Name, CPI: rep.CPI(), Report: rep}, nil
	})
	if err != nil {
		return nil, 0, 0, 0, err
	}
	min, max, avg = suiteStats(per)
	return per, min, max, avg, nil
}

// suiteStats summarises the healthy cells of a suite run; a fully faulted
// suite reports NaN across the board (the per-cell annotations carry the
// story).
func suiteStats(per []BenchCPI) (min, max, avg float64) {
	var sum float64
	n := 0
	min, max = math.NaN(), math.NaN()
	for _, b := range per {
		if b.Fault != nil {
			continue
		}
		if n == 0 || b.CPI < min {
			min = b.CPI
		}
		if n == 0 || b.CPI > max {
			max = b.CPI
		}
		sum += b.CPI
		n++
	}
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	return min, max, sum / float64(n)
}

// countFaults counts the faulted cells of a suite run, for the fault
// annotations partial figures print.
func countFaults(per []BenchCPI) int {
	n := 0
	for _, b := range per {
		if b.Fault != nil {
			n++
		}
	}
	return n
}

// BenchCPI is one benchmark's result within a configuration. A faulted cell
// has Fault set, CPI NaN and a nil Report.
type BenchCPI struct {
	Bench  string
	CPI    float64
	Report *core.Report
	Fault  *simfault.Fault
}

// withFPUPolicy returns cfg with the FPU policy (and matching FP issue
// width) replaced.
func withFPUPolicy(cfg core.Config, p fpu.IssuePolicy) core.Config {
	cfg.FPU = cfg.FPU.Normalize()
	cfg.FPU.Policy = p
	return cfg
}
