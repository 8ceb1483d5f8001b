package harness

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"

	"aurora/internal/core"
	"aurora/internal/resultstore"
	"aurora/internal/sample"
	"aurora/internal/simfault"
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
	j.compute = func(ctx context.Context) (resultstore.Result, uint64, error) {
		rep, err := runSampled(ctx, r.checkpoints, cfg, w, opts.Budget, p, j.fault())
		return resultstore.Result{Sampled: rep}, 0, err
	}
	res, err := r.do(ctx, j)
	return res.Sampled, err
}

// runSampled is the sampled fault boundary: a panic inside the VM capture
// or the replayed timing core comes back as a typed *simfault.Fault.
func runSampled(ctx context.Context, cache *sample.CheckpointCache, cfg core.Config, w *workloads.Workload, budget uint64, p sample.Params, job simfault.Job) (rep *sample.Report, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			rep, err = nil, simfault.FromPanic(rec, job, 0, debug.Stack())
		}
	}()
	cp, err := cache.Get(ctx, w, budget, p)
	if err != nil {
		return nil, err
	}
	rep, err = cp.Run(ctx, cfg, budget, p)
	if err != nil {
		return nil, fmt.Errorf("harness: %s on %s (sampled): %w", w.Name, cfg.Name, err)
	}
	return rep, nil
}

// SampledCell is one (model, workload) estimate of a sampled sweep. A
// faulted cell has Fault set and a nil Report, mirroring BenchCPI.
type SampledCell struct {
	Model  string
	Bench  string
	Report *sample.Report
	Fault  *simfault.Fault
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
	Cells [][]SampledCell
}

// SampledSweep estimates the full models x workloads grid in sampled mode
// through the runner. Fault policy matches the exact sweeps: keep-going
// marks the cell, fail-fast aborts.
func SampledSweep(ctx context.Context, r *Runner, opts Options, p sample.Params) (*SampledSweepResult, error) {
	p = p.Normalize()
	models := append(core.Models(), core.RecommendedE())
	benches := workloads.Names()
	res := &SampledSweepResult{Params: p, Benches: benches}
	for _, m := range models {
		res.Models = append(res.Models, m.Name)
	}
	flat, err := each(ctx, opts, len(models)*len(benches), func(ctx context.Context, i int) (SampledCell, error) {
		cfg := models[i/len(benches)]
		w, err := workloads.Get(benches[i%len(benches)])
		if err != nil {
			return SampledCell{}, err
		}
		cell := SampledCell{Model: cfg.Name, Bench: w.Name}
		rep, err := r.RunSampled(ctx, cfg, w, opts, p)
		f, err := faultCell(opts, err)
		if err != nil {
			return SampledCell{}, err
		}
		cell.Report, cell.Fault = rep, f
		return cell, nil
	})
	if err != nil {
		return nil, err
	}
	for i := range models {
		res.Cells = append(res.Cells, flat[i*len(benches):(i+1)*len(benches)])
	}
	return res, nil
}
