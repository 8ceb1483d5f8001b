package main

import (
	"context"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"aurora/internal/core"
	"aurora/internal/resultstore"
	"aurora/internal/sample"
	"aurora/internal/workloads"
)

// The layer panel measures, in a traced run, each layer the workload's own
// operations do not isolate, by timing calls into that module's public
// functions over the workload's kernels. Every workload thus reports every
// per-layer metric: where a workload does not drive a layer, the panel's
// number is its control, which a change aimed elsewhere should leave
// unchanged.
type panel struct {
	kernels []*workloads.Workload
	models  []core.Config
	ref     *reference
	rec     *recorder
	dir     string // scratch directory inside the checkout
	ops     int
	errs    []error
}

func (p *panel) fail(err error) {
	if err != nil {
		p.errs = append(p.errs, err)
	}
}

// vm times a functional-only pass — Workload.NewMachine and Machine.Step,
// no timing core — over the kernels at the given budget, three times, and
// reports the median host nanoseconds per instruction.
func (p *panel) vm(budget uint64) map[string]float64 {
	var per []float64
	for rep := 0; rep < 3; rep++ {
		var steps uint64
		var d time.Duration
		for _, k := range p.kernels {
			p.ops++
			id := p.rec.id()
			t := time.Now()
			m, err := k.NewMachine()
			if err != nil {
				p.fail(err)
				continue
			}
			for m.Steps() < budget && !m.Halted() {
				if _, err := m.Step(); err != nil {
					break
				}
			}
			dd := time.Since(t)
			p.rec.add(span{ID: id, Op: id, Name: "functional pass", Layer: "vm"}, t, dd)
			steps += m.Steps()
			d += dd
		}
		per = append(per, float64(d.Nanoseconds())/float64(max(steps, 1)))
	}
	return map[string]float64{"vm.ns_per_instr": median(per)}
}

// exact runs the grid once at exactBudget through a fresh runner, for
// workloads whose own operations produce no exact reports. It returns the
// core and sim metrics and the reports.
func (p *panel) exact(ctx context.Context) (map[string]float64, map[string]*core.Report) {
	s := &sweeper{kind: exactSweep, cells: grid(p.kernels, p.models), ref: p.ref, rng: rand.New(rand.NewSource(1))}
	ps := s.run(ctx, p.rec, nil)
	p.ops += ps.ops
	p.errs = append(p.errs, ps.errs...)
	return coreMetrics(ps.cells), reportsOf(ps.cells)
}

// coreMetrics derives the per-cycle loop's host cost and simulated
// statistics from a pass of exact cells.
func coreMetrics(cells []cellRun) map[string]float64 {
	var d time.Duration
	var instr, cycles uint64
	var reps []*core.Report
	for _, c := range cells {
		d += c.dur
		instr += c.instr
		cycles += c.cycles
		reps = append(reps, c.rep)
	}
	m := simStats(reps)
	m["core.ns_per_cycle"] = float64(d.Nanoseconds()) / float64(max(cycles, 1))
	m["core.ns_per_instr"] = float64(d.Nanoseconds()) / float64(max(instr, 1))
	return m
}

func reportsOf(cells []cellRun) map[string]*core.Report {
	out := map[string]*core.Report{}
	for _, c := range cells {
		out[c.key] = c.rep
	}
	return out
}

// sampled captures one checkpoint per kernel at sampledBudget
// (sample.NewCheckpoint) and replays it on every model
// (Checkpoint.Run), checking each estimate against its pin and the
// pinned exact CPIs. With replayCore set, the replays also give the
// per-cycle loop's host cost, for the sampled workload, whose own cells
// mix capture and replay.
func (p *panel) sampled(ctx context.Context, replayCore bool) map[string]float64 {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	var capture, replay time.Duration
	var captured, instr, detailed, detailedCycles uint64
	var replayMS []float64
	windows := 0
	est := map[string]*sample.Report{}
	var cps []*sample.Checkpoint
	for _, k := range p.kernels {
		p.ops++
		id := p.rec.id()
		t := time.Now()
		cp, err := sample.NewCheckpoint(ctx, k, sampledBudget, sample.Params{})
		d := time.Since(t)
		p.rec.add(span{ID: id, Op: id, Name: "NewCheckpoint", Layer: "sample"}, t, d)
		if err != nil {
			p.fail(err)
			continue
		}
		capture += d
		captured += cp.Executed
		cps = append(cps, cp)
		for _, m := range p.models {
			p.ops++
			rid := p.rec.id()
			t := time.Now()
			r, err := cp.Run(ctx, m, sampledBudget, sample.Params{})
			d := time.Since(t)
			p.rec.add(span{ID: rid, Op: id, Name: "Checkpoint.Run", Layer: "sample"}, t, d)
			if err != nil {
				p.fail(err)
				continue
			}
			key := k.Name + "/" + m.Name
			p.fail(p.ref.checkSampled(key, r))
			est[key] = r
			replay += d
			replayMS = append(replayMS, ms(d))
			instr += r.Instructions
			detailed += r.DetailedInstructions
			detailedCycles += r.DetailedCycles
			windows += r.Windows
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	runtime.KeepAlive(cps)
	cpiErr, coverage, err := p.ref.accuracy(est)
	p.fail(err)
	m := map[string]float64{
		"sample.capture_s":            capture.Seconds(),
		"sample.capture_ns_per_instr": float64(capture.Nanoseconds()) / float64(max(captured, 1)),
		"sample.replay_ms_p50":        median(replayMS),
		"sample.detailed_frac":        ratio(detailed, instr),
		"sample.windows":              float64(windows),
		"sample.checkpoint_mb":        float64(int64(m1.HeapAlloc)-int64(m0.HeapAlloc)) / (1 << 20),
		"sample.cpi_err_pct":          cpiErr,
		"sample.bound_coverage":       coverage,
	}
	if replayCore {
		m["core.ns_per_cycle"] = float64(replay.Nanoseconds()) / float64(max(detailedCycles, 1))
		m["core.ns_per_instr"] = float64(replay.Nanoseconds()) / float64(max(detailed, 1))
	}
	return m
}

// store writes the reports into a fresh store (resultstore.Store.Put) and
// reads each back three times (Store.Get), checking every read against its
// pin. It returns the store's directory, filled, for the serve probe.
func (p *panel) store(reps map[string]*core.Report) (map[string]float64, string) {
	dir := filepath.Join(p.dir, "panel-store")
	p.fail(os.RemoveAll(dir))
	st, err := resultstore.Open(dir)
	if err != nil {
		p.fail(err)
		return nil, dir
	}
	var puts, gets []float64
	keys := sortedKeys(reps)
	p.ops += 4 * len(keys) // one Put and three Gets each
	key := func(k string) resultstore.Key {
		r := reps[k]
		return resultstore.Key{Fingerprint: r.Config.Fingerprint(), Workload: kernelOf(k), Budget: exactBudget, CodeVersion: st.Version()}
	}
	for _, k := range keys {
		id := p.rec.id()
		t := time.Now()
		err := st.Put(key(k), reps[k], nil)
		d := time.Since(t)
		p.rec.add(span{ID: id, Op: id, Name: "Store.Put", Layer: "resultstore"}, t, d)
		p.fail(err)
		puts = append(puts, ms(d))
	}
	for round := 0; round < 3; round++ {
		for _, k := range keys {
			id := p.rec.id()
			t := time.Now()
			r, f, ok := st.Get(key(k))
			d := time.Since(t)
			p.rec.add(span{ID: id, Op: id, Name: "Store.Get", Layer: "resultstore"}, t, d)
			gets = append(gets, ms(d))
			if !ok || f != nil {
				p.fail(fmt.Errorf("store: %s did not read back", k))
				continue
			}
			p.fail(p.ref.checkExact(k, r))
		}
	}
	var size, files int64
	p.fail(filepath.WalkDir(dir, func(path string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		info, err := e.Info()
		if err == nil {
			size += info.Size()
			files++
		}
		return err
	}))
	return map[string]float64{
		"resultstore.get_ms_p50": median(gets),
		"resultstore.put_ms_p50": median(puts),
		"resultstore.entry_kb":   float64(size) / float64(max(files, 1)) / 1024,
		"resultstore.corrupt":    float64(st.Stats().Corrupt),
	}, dir
}

// kernelOf is the kernel part of a "kernel/model" key.
func kernelOf(key string) string {
	k, _, _ := strings.Cut(key, "/")
	return k
}

func uniqueKernels(cells []cell) []*workloads.Workload {
	seen := map[string]bool{}
	var out []*workloads.Workload
	for _, c := range cells {
		if !seen[c.kernel.Name] {
			seen[c.kernel.Name] = true
			out = append(out, c.kernel)
		}
	}
	return out
}
