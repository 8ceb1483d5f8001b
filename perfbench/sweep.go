package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"aurora/internal/asm"
	"aurora/internal/core"
	"aurora/internal/harness"
	"aurora/internal/resultstore"
	"aurora/internal/sample"
)

// sweeper runs one sweep workload's passes. Every pass is a cold sweep
// through a fresh harness.Runner — no memo, no store, and for sampled
// cells no captured checkpoints — with the cell order permuted by the
// seeded rng. The seed only reorders cells; what a cell computes never
// depends on it.
type sweeper struct {
	kind  kind
	cells []cell
	ref   *reference
	rng   *rand.Rand
	store *resultstore.Store // nil: no persistent layer (the sweeps)
	cal   *calibration       // calibrates the measured passes (calib.go)
}

// cellRun is one timed cell.
type cellRun struct {
	key    string
	kernel string
	dur    time.Duration
	scale  float64 // reference-host time over host time, from the pass's calibrations
	instr  uint64  // instructions the result stands for
	cycles uint64  // simulated cycles (detailed cycles for an estimate)
	rep    *core.Report
	srep   *sample.Report
}

// pass is one sweep over the grid.
type pass struct {
	wall  time.Duration
	ops   int       // cells attempted
	cells []cellRun // cells that produced a result, checked or not
	stats harness.RunnerStats
	errs  []error
}

// run sweeps the grid once, one cell at a time in permuted order, through
// a one-worker runner. One cell at a time leaves the host's second core to
// the Go runtime, so a cell's time is its own work: with two workers on
// the two cores, cells took 1.7-2.4 times as long and their times spread
// 15-50% from run to run. Each cell is timed around the single Runner call
// and checked against its pinned digest outside the timed region. With
// cal, each cell is preceded by a calibration, outside the pass's wall
// time, and every cell's time is scaled by the factor of the pass's
// calibrations: interleaved with the cells, they saw the same host.
func (s *sweeper) run(ctx context.Context, rec *recorder, cal *calibration) pass {
	order := s.rng.Perm(len(s.cells))
	r := harness.NewRunner(1)
	if s.store != nil {
		r.Store = s.store
	}
	var p pass
	passID := rec.id()
	start := time.Now()
	var cals []time.Duration
	var calTime time.Duration
	for _, i := range order {
		if cal != nil {
			t := time.Now()
			cals = append(cals, cal.run())
			calTime += time.Since(t)
		}
		cr, err := s.cell(ctx, r, s.cells[i], rec, passID)
		// A cell that ran but failed its check still took its time; only
		// a cell with no result has none to report.
		if cr.rep != nil || cr.srep != nil {
			p.cells = append(p.cells, cr)
		}
		if err != nil {
			p.errs = append(p.errs, err)
		}
	}
	total := time.Since(start)
	p.wall = total - calTime
	scale := 1.0
	if cal != nil {
		scale = factor(cals)
	}
	for i := range p.cells {
		p.cells[i].scale = scale
	}
	p.ops = len(order)
	rec.add(span{ID: passID, Name: "pass", Layer: "perfbench"}, start, total)
	p.stats = r.Stats()
	return p
}

func (s *sweeper) cell(ctx context.Context, r *harness.Runner, c cell, rec *recorder, parent uint64) (cellRun, error) {
	key := c.key()
	cr := cellRun{key: key, kernel: c.kernel.Name}
	id := rec.id()
	t := time.Now()
	var err error
	name := "Runner.Run"
	if s.kind == sampledSweep {
		name = "Runner.RunSampled"
		cr.srep, err = r.RunSampled(ctx, c.model, c.kernel, harness.Options{Budget: sampledBudget}, sample.Params{})
	} else {
		cr.rep, err = r.Run(ctx, c.model, c.kernel, harness.Options{Budget: exactBudget})
	}
	cr.dur = time.Since(t)
	rec.add(span{ID: id, Parent: parent, Op: id, Name: name, Layer: "harness"}, t, cr.dur)
	if err != nil {
		return cr, fmt.Errorf("%s: %w", key, err)
	}
	if cr.srep != nil {
		cr.instr, cr.cycles = cr.srep.Instructions, cr.srep.DetailedCycles
		return cr, s.ref.checkSampled(key, cr.srep)
	}
	cr.instr, cr.cycles = cr.rep.Instructions, cr.rep.Cycles
	return cr, s.ref.checkExact(key, cr.rep)
}

// phase aggregates the passes of one measured phase.
type phase struct {
	passes  []pass
	wall    time.Duration // sum of pass wall times
	cellMS  []float64
	cellDur time.Duration
	instr   uint64
	cycles  uint64
	gc      uint32 // collections the runtime started on its own
	alloc   uint64 // bytes allocated
	mallocs uint64
	errs    []error
}

// measure runs passes until d has elapsed (at least one). Between passes
// the heap is collected outside the timed region, so every pass starts
// from the same heap state and one pass's garbage never lands in the next
// one's time.
func (s *sweeper) measure(ctx context.Context, d time.Duration, rec *recorder) phase {
	var ph phase
	var m0, m1 runtime.MemStats
	start := time.Now()
	for len(ph.passes) == 0 || time.Since(start) < d {
		if ctx.Err() != nil {
			ph.errs = append(ph.errs, ctx.Err())
			break
		}
		runtime.GC()
		runtime.ReadMemStats(&m0)
		p := s.run(ctx, rec, s.cal)
		runtime.ReadMemStats(&m1)
		ph.gc += (m1.NumGC - m1.NumForcedGC) - (m0.NumGC - m0.NumForcedGC)
		ph.alloc += m1.TotalAlloc - m0.TotalAlloc
		ph.mallocs += m1.Mallocs - m0.Mallocs
		ph.passes = append(ph.passes, p)
		ph.wall += p.wall
		ph.errs = append(ph.errs, p.errs...)
		for _, c := range p.cells {
			ph.cellMS = append(ph.cellMS, ms(c.dur))
			ph.cellDur += c.dur
			ph.instr += c.instr
			ph.cycles += c.cycles
		}
	}
	return ph
}

func (ph phase) ops() int {
	n := 0
	for _, p := range ph.passes {
		n += p.ops
	}
	return n
}

// complete returns the passes in which every cell produced a result; the
// metrics below are taken over them alone, so a failed cell can never
// make a pass look fast.
func (ph phase) complete() []pass {
	var out []pass
	for _, p := range ph.passes {
		if len(p.cells) == p.ops {
			out = append(out, p)
		}
	}
	return out
}

// sips is the simulated instructions per reference-host second: each
// kernel's median over passes of its cells' scaled times in a pass, summed
// over kernels. A kernel's time in a pass includes, for sampled, its
// checkpoint capture, paid by whichever of its cells runs first.
func (ph phase) sips() float64 {
	type group struct {
		instr uint64
		dur   float64 // reference-host ns
	}
	var groups = map[string][]group{}
	for _, p := range ph.complete() {
		pg := map[string]group{}
		for _, c := range p.cells {
			g := pg[c.kernel]
			g.instr += c.instr
			g.dur += float64(c.dur) * c.scale
			pg[c.kernel] = g
		}
		for k, g := range pg {
			groups[k] = append(groups[k], g)
		}
	}
	var instr uint64
	var dur float64
	for _, gs := range groups {
		d := make([]float64, len(gs))
		for i, g := range gs {
			d[i] = g.dur
		}
		instr += gs[0].instr
		dur += median(d)
	}
	return float64(instr) / dur * 1e9
}

// scales are the calibration factors of the phase's cells.
func (ph phase) scales() []float64 {
	var out []float64
	for _, p := range ph.passes {
		for _, c := range p.cells {
			out = append(out, c.scale)
		}
	}
	return out
}

// cellTimes are the scaled times of every cell of every complete pass,
// in reference-host ms. For sampled, whichever of a kernel's cells runs
// first in a pass pays its checkpoint capture, so most cells do not.
func (ph phase) cellTimes() []float64 {
	var out []float64
	for _, p := range ph.complete() {
		for _, c := range p.cells {
			out = append(out, ms(c.dur)*c.scale)
		}
	}
	return out
}

// setUp is everything before a sweep's first timed cell: assembling the
// kernels and one untimed warm-up pass over the grid, in reference-host
// seconds (calibrated just before and after each repetition). It is
// repeated and its median reported, so the number is steady enough to
// gate.
func (s *sweeper) setUp(ctx context.Context, reps int) (setup []float64, ops int, errs []error) {
	for i := 0; i < reps; i++ {
		before := []time.Duration{s.cal.run(), s.cal.run(), s.cal.run()}
		t := time.Now()
		for _, k := range uniqueKernels(s.cells) {
			if _, err := asm.Assemble(k.Name+".s", k.Source); err != nil {
				errs = append(errs, err)
			}
		}
		p := s.run(ctx, nil, nil)
		d := time.Since(t)
		setup = append(setup, d.Seconds()*factor(append(before, s.cal.run(), s.cal.run(), s.cal.run())))
		ops += p.ops
		errs = append(errs, p.errs...)
	}
	return setup, ops, errs
}

// simStats sums the simulated statistics of a pass's exact reports.
func simStats(reps []*core.Report) map[string]float64 {
	var instr, cycles, stalls, fpuIdle, fpuCycles, icA, icM, dcA, dcM, biu, dual uint64
	for _, r := range reps {
		instr += r.Instructions
		cycles += r.Cycles
		for _, s := range r.Stalls {
			stalls += s
		}
		fpuIdle += r.FPU.QueueEmpty
		fpuCycles += r.FPU.Cycles
		icA += r.ICacheAccesses
		icM += r.ICacheMisses
		dcA += r.DCacheAccesses
		dcM += r.DCacheMisses
		biu += r.BIU.Reads
		dual += r.DualIssues
	}
	return map[string]float64{
		"sim.instructions":     float64(instr),
		"sim.cycles":           float64(cycles),
		"sim.stall_frac":       ratio(stalls, cycles),
		"sim.fpu_idle_frac":    ratio(fpuIdle, fpuCycles),
		"sim.icache_miss_rate": ratio(icM, icA),
		"sim.dcache_miss_rate": ratio(dcM, dcA),
		"sim.biu_reads":        float64(biu),
		"sim.dual_issue_frac":  ratio(dual, cycles),
	}
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
