package harness

import (
	"context"
	"errors"
	"fmt"

	"aurora/internal/core"
	"aurora/internal/resultstore"
	"aurora/internal/sample"
	"aurora/internal/workloads"
)

// RunSampled executes one sampled estimate of a workload on one
// configuration under the worker pool: the same single-flight memo,
// persistent store, per-job deadline and fault handling as Run, under a
// key whose Sample field carries sample.Params.Key(), so a sampled
// estimate can never be served where an exact result was asked for, or
// vice versa. All configurations of a sweep share one captured functional
// pass per (workload, layout, budget) through the runner's checkpoint
// cache. The §6 scheduling pass is incompatible with sampling (the
// reschedule operates on the live trace the sampled mode never
// materialises end-to-end) and is rejected, never silently ignored.
//
// Estimates are shared between hits and must be treated as read-only.
func (r *Runner) RunSampled(ctx context.Context, cfg core.Config, w *workloads.Workload, opts Options, p sample.Params) (*sample.Report, error) {
	if opts.Scheduled {
		return nil, errors.New("harness: sampled mode does not support the scheduled trace pass")
	}
	cfg = applyBPred(cfg, opts)
	p = p.Normalize()
	opts.Budget = effectiveBudget(w, opts)
	j := job{key: r.key(cfg, w, opts, p.Key()), config: cfg.Name}
	j.compute = func(ctx context.Context) (res resultstore.Result, _ uint64, err error) {
		// A sampled job reports no cycle count: a panic or deadline inside
		// the capture or the replayed windows is annotated at cycle 0.
		err = guard(j.fault(), func() uint64 { return 0 }, func() error {
			cp, err := r.checkpoints.get(ctx, p.CaptureKey(w.Name, opts.Budget), func(ctx context.Context) (*sample.Checkpoint, error) {
				return sample.NewCheckpoint(ctx, w, opts.Budget, p)
			})
			if err != nil {
				return err
			}
			rep, err := cp.Run(ctx, cfg, opts.Budget, p)
			if err != nil {
				return fmt.Errorf("harness: %s on %s (sampled): %w", w.Name, cfg.Name, err)
			}
			res.Sampled = rep
			return nil
		})
		return res, 0, err
	}
	res, err := r.memo.get(ctx, j.key, func(ctx context.Context) (resultstore.Result, error) { return r.resolve(ctx, j) })
	return res.Sampled, err
}

// SampledSweepResult is the sampled counterpart of the paper's CPI tables:
// every Table 1 model (plus point E) crossed with every workload, each cell
// an estimated CPI with its confidence bound. All cells of one workload
// share a single captured functional pass through the runner's checkpoint
// cache, which is where sampling's sweep-scale speedup comes from.
type SampledSweepResult struct {
	Params  sample.Params
	Models  []string
	Benches []string
	// Cells is model-major: Cells[i][j] estimates Models[i] on Benches[j].
	Cells []suite
}

// SampledSweep estimates the full models x workloads grid in sampled mode:
// one grid call, so the fault policy is the exact sweeps' — keep-going
// marks the cell, fail-fast aborts.
func SampledSweep(ctx context.Context, r *Runner, opts Options, p sample.Params) (*SampledSweepResult, error) {
	p = p.Normalize()
	models := append(core.Models(), core.RecommendedE())
	res := &SampledSweepResult{Params: p, Benches: workloads.Names()}
	for _, m := range models {
		res.Models = append(res.Models, m.Name)
	}
	ws := make([]*workloads.Workload, len(res.Benches))
	for i, name := range res.Benches {
		w, err := workloads.Get(name)
		if err != nil {
			return nil, err
		}
		ws[i] = w
	}
	cells, err := grid(ctx, r, opts, &p, ws, models...)
	if err != nil {
		return nil, err
	}
	res.Cells = cells
	return res, nil
}
