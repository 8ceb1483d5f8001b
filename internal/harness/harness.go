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
	"aurora/internal/sample"
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

// Cell runs one (configuration, workload) cell in the mode sp selects —
// exact when sp is nil, a sampled estimate under *sp otherwise — and returns
// it in the one shape every table, sweep, search and stream reads. It is
// also where the keep-going rule lives: unless opts.FailFast, a
// *simfault.Fault is data — the cell comes back with Fault set, CPI NaN and
// no report, so the caller marks it and keeps the rest of the study — while
// fail-fast mode and non-fault errors (configuration mistakes, I/O,
// cancellation) return the error.
func (r *Runner) Cell(ctx context.Context, cfg core.Config, w *workloads.Workload, opts Options, sp *sample.Params) (BenchCPI, error) {
	c := BenchCPI{Bench: w.Name}
	var err error
	if sp == nil {
		if c.Report, err = r.Run(ctx, cfg, w, opts); err == nil {
			c.CPI = c.Report.CPI()
		}
	} else if c.Sampled, err = r.RunSampled(ctx, cfg, w, opts, *sp); err == nil {
		c.CPI, c.CPIError = c.Sampled.CPI, c.Sampled.CPIError
	}
	if err == nil {
		return c, nil
	}
	var f *simfault.Fault
	if !opts.FailFast && errors.As(err, &f) {
		return BenchCPI{Bench: w.Name, CPI: math.NaN(), Fault: f}, nil
	}
	return BenchCPI{}, err
}

// grid runs every configuration over the workload suite ws through
// Runner.Cell, in the mode sp selects, and returns one suite per
// configuration, in input order. It is the one place an experiment reaches
// the runner: a single flat fan-out over len(cfgs)*len(ws) cells in
// configuration-major order, so fail-fast reports the first non-cancellation
// error in input order.
func grid(ctx context.Context, r *Runner, opts Options, sp *sample.Params, ws []*workloads.Workload, cfgs ...core.Config) ([]suite, error) {
	if len(ws) == 0 {
		return nil, fmt.Errorf("harness: empty workload suite for %d configurations", len(cfgs))
	}
	cells, err := each(ctx, opts, len(cfgs)*len(ws), func(ctx context.Context, i int) (BenchCPI, error) {
		return r.Cell(ctx, cfgs[i/len(ws)], ws[i%len(ws)], opts, sp)
	})
	if err != nil {
		return nil, err
	}
	out := make([]suite, len(cfgs))
	for i := range out {
		out[i] = cells[i*len(ws) : (i+1)*len(ws)]
	}
	return out, nil
}

// suite is one configuration's run over a workload suite, in suite order.
type suite []BenchCPI

// stats summarises the healthy cells; a fully faulted suite reports NaN
// across the board (0/0 for the average; the per-cell annotations carry
// the story).
func (s suite) stats() (min, max, avg float64) {
	var sum float64
	n := 0
	min, max = math.NaN(), math.NaN()
	for _, b := range s {
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
	return min, max, sum / float64(n)
}

// avg is the healthy cells' average CPI (NaN when none is healthy).
func (s suite) avg() float64 {
	_, _, avg := s.stats()
	return avg
}

// faults counts the faulted cells, for the [N faulted] row marks.
func (s suite) faults() int {
	n := 0
	for _, b := range s {
		if b.Fault != nil {
			n++
		}
	}
	return n
}

// reports returns the healthy cells' reports in suite order. A rate
// aggregated over an empty result is NaN, never 0: a dead suite must not
// read as a perfect one.
func (s suite) reports() []*core.Report {
	var out []*core.Report
	for _, b := range s {
		if b.Report != nil {
			out = append(out, b.Report)
		}
	}
	return out
}

// BenchCPI is one benchmark's result within a configuration. An exact cell
// has Report set; a sampled cell has Sampled set and CPIError, the
// confidence bound on its estimated CPI. A faulted cell has Fault set, CPI
// NaN and neither report.
type BenchCPI struct {
	Bench    string
	CPI      float64
	CPIError float64
	Report   *core.Report
	Sampled  *sample.Report
	Fault    *simfault.Fault
}

// withFPUPolicy returns cfg with the FPU policy (and matching FP issue
// width) replaced.
func withFPUPolicy(cfg core.Config, p fpu.IssuePolicy) core.Config {
	cfg.FPU = cfg.FPU.Normalize()
	cfg.FPU.Policy = p
	return cfg
}
