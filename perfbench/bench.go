package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"time"
)

// runOpts configures one benchmark run.
type runOpts struct {
	seed     int64
	seconds  float64
	traced   bool
	root     string // checkout root
	out      string // scratch and output directory inside the checkout
	serveBin string // aurora-serve binary built from the checkout
	scale    scale
	ref      *reference
}

// outcome is what one workload run measured.
type outcome struct {
	values    map[string]float64
	attempted int
	errs      []error
	detail    map[string]any
}

func (o *outcome) fail(errs ...error) {
	for _, err := range errs {
		if err != nil {
			o.errs = append(o.errs, err)
		}
	}
}

func (o *outcome) merge(m map[string]float64) {
	for k, v := range m {
		o.values[k] = v
	}
}

func newOutcome() *outcome {
	return &outcome{values: map[string]float64{}, detail: map[string]any{}}
}

// runSpec dispatches one workload.
func runSpec(ctx context.Context, s spec, o runOpts) (*outcome, error) {
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return nil, err
	}
	if s.Kind == serveMix {
		return runServe(ctx, s, o)
	}
	return runSweep(ctx, s, o)
}

// halves splits a traced run's measuring time between the untraced and
// the traced phase.
func halves(seconds float64) time.Duration {
	return max(time.Duration(seconds/2*float64(time.Second)), time.Second)
}

// runSweep measures exact-int, exact-fp or sampled.
func runSweep(ctx context.Context, s spec, o runOpts) (*outcome, error) {
	res := newOutcome()
	kernels := o.scale.kernelsOf(s)
	models := o.scale.models()
	sw := &sweeper{kind: s.Kind, cells: grid(kernels, models), ref: o.ref, rng: rand.New(rand.NewSource(o.seed)), cal: newCalibration()}

	setup, setupOps, errs := sw.setUp(ctx, o.scale.setupReps)
	res.attempted += setupOps
	res.fail(errs...)
	res.detail["setup_s_reps"] = setup
	runtime.GC()
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}

	if !o.traced {
		steal := newStealMeter()
		ph := sw.measure(ctx, time.Duration(o.seconds*float64(time.Second)), nil)
		res.detail["steal_pct"] = steal.pct()
		res.attempted += ph.ops()
		res.fail(ph.errs...)
		rss, err := peakRSSMB("self")
		res.fail(err)
		res.merge(map[string]float64{
			"setup_s":     median(setup),
			"sips":        ph.sips(),
			"op_p50_ms":   median(ph.cellTimes()),
			"peak_rss_mb": rss,
		})
		res.detail["passes"] = len(ph.passes)
		res.detail["ops"] = len(ph.cellMS)
		res.detail["op_p50_host_ms"] = median(ph.cellMS)
		res.detail["op_p95_host_ms"] = percentile(ph.cellMS, 95)
		res.detail["host_scale_p50"] = median(ph.scales())
		res.detail["measured_s"] = ph.wall.Seconds()
		return res, nil
	}

	base := sw.measure(ctx, halves(o.seconds), nil)
	rec := newRecorder()
	profPath := filepath.Join(o.out, fmt.Sprintf("cpu-%s-seed%d.pprof", s.Name, o.seed))
	f, err := os.Create(profPath)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	tr := sw.measure(ctx, halves(o.seconds), rec)
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return nil, err
	}
	res.attempted += base.ops() + tr.ops()
	res.fail(base.errs...)
	res.fail(tr.errs...)

	var maxMS []float64
	for _, p := range tr.passes {
		var cm []float64
		for _, c := range p.cells {
			cm = append(cm, float64(c.dur.Nanoseconds())/1e6)
		}
		maxMS = append(maxMS, maxOf(cm))
	}
	last := tr.passes[len(tr.passes)-1]
	n := float64(len(tr.passes))
	res.merge(map[string]float64{
		"harness.cell_ms_max": median(maxMS),
		"harness.simulated":   float64(last.stats.Simulated),
		"harness.memo_hits":   float64(last.stats.Hits),
		"harness.store_hits":  float64(last.stats.StoreHits),
		"go.gc_cycles":        float64(tr.gc) / n,
		"go.alloc_mb":         float64(tr.alloc) / n / (1 << 20),
		"go.allocs_per_instr": float64(tr.mallocs) / float64(max(tr.instr, 1)),
		"trace.overhead_pct":  (base.sips()/tr.sips() - 1) * 100,
	})

	p := &panel{kernels: kernels, models: models, ref: o.ref, rec: rec, dir: o.out}
	var reps = reportsOf(last.cells)
	budget := uint64(exactBudget)
	if s.Kind == sampledSweep {
		budget = sampledBudget
		var sim map[string]float64
		sim, reps = p.exact(ctx)
		delete(sim, "core.ns_per_cycle") // the sampled workload's core runs in replay
		delete(sim, "core.ns_per_instr")
		res.merge(sim)
	} else {
		res.merge(coreMetrics(last.cells))
		res.values["core.ns_per_cycle"] = float64(tr.cellDur.Nanoseconds()) / float64(tr.cycles)
		res.values["core.ns_per_instr"] = float64(tr.cellDur.Nanoseconds()) / float64(tr.instr)
	}
	res.merge(p.vm(budget))
	res.merge(p.sampled(ctx, s.Kind == sampledSweep))
	storeVals, storeDir := p.store(reps)
	res.merge(storeVals)
	res.merge(p.serveProbe(ctx, o, storeDir))
	res.attempted += p.ops
	res.fail(p.errs...)

	shares, err := profileShares(profPath, o.root, o.out)
	if err != nil {
		return nil, err
	}
	for b, v := range shares {
		res.values["prof."+b+"_pct"] = v
	}
	return res, finishTrace(res, rec, o, s)
}

// finishTrace writes the traced run's spans and adds their per-layer self
// times to the detail record.
func finishTrace(res *outcome, rec *recorder, o runOpts, s spec) error {
	path := filepath.Join(o.out, fmt.Sprintf("trace-%s-seed%d.json", s.Name, o.seed))
	res.detail["trace_file"] = path
	res.detail["span_self_ms"] = rec.selfTimes()
	return rec.writeChrome(path)
}
