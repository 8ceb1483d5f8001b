package core

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"aurora/internal/bpred"
	"aurora/internal/fpu"
	"aurora/internal/ipu"
	"aurora/internal/isa"
	"aurora/internal/mmu"
	"aurora/internal/trace"
	"aurora/internal/workloads"
)

// forcedRun is the reference cycle loop: every cycle ticks, as before the
// clock jumped quiet cycles. It keeps Run's runaway guard and end-of-run
// accounting, so its Report is comparable field for field.
func forcedRun(p *Processor) (*Report, error) {
	for !p.done() {
		p.now++
		if p.now > 100*p.instructions+1_000_000 {
			return nil, fmt.Errorf("core: runaway simulation at cycle %d (%d instructions)",
				p.now, p.instructions)
		}
		p.tick()
	}
	return p.finish()
}

// unitCounters holds the unit counters the Report leaves out, among them
// the MSHR occupancy integral quiet cycles still bump.
type unitCounters struct {
	IFU  ipu.IFUStats
	LSU  ipu.LSUStats
	MSHR uint64
}

func countersOf(p *Processor) unitCounters {
	return unitCounters{p.ifu.Stats(), p.lsu.Stats(), p.lsu.MSHR().OccupancyIntegral()}
}

// fuzzConfig decodes bits into one machine: a Table 1 model crossed with
// every axis whose units report next events differently — the three FPU
// issue policies and precise mode, a branch predictor, the MMU, a victim
// cache, no branch folding, no prefetch, a 1-entry reorder buffer, one
// MSHR, single issue and the long memory latency.
func fuzzConfig(bits uint64) Config {
	take := func(n uint64) int {
		v := bits % n
		bits /= n
		return int(v)
	}
	cfg := Models()[take(3)]
	cfg.FPU.Policy = fpu.IssuePolicy(take(3))
	cfg.FPU.Precise = take(4) == 0
	bp, err := bpred.Parse([]string{"folding", "static", "bimodal", "gshare", "tage"}[take(5)])
	if err != nil {
		panic(err)
	}
	cfg.BPred = bp
	if take(2) == 1 {
		cfg.MMU = mmu.DefaultConfig()
	}
	if take(2) == 1 {
		cfg.VictimLines = 4
	}
	cfg.DisableBranchFolding = take(2) == 1
	if take(2) == 1 {
		cfg.PrefetchBuffers = 0
	}
	if take(3) == 0 {
		cfg.ReorderBuffer = 1
	}
	if take(3) == 0 {
		cfg.MSHRs = 1
	}
	if take(3) == 0 {
		cfg.IssueWidth = 1
	}
	if take(2) == 1 {
		cfg = cfg.WithLatency(35)
	}
	return cfg.Normalize()
}

// kernelStream returns the named kernel's VM-fed record stream.
func kernelStream(t testing.TB, name string, budget uint64) trace.Stream {
	t.Helper()
	w, err := workloads.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	m, err := w.NewMachine()
	if err != nil {
		t.Fatal(err)
	}
	return m.Stream(budget)
}

// gatedStream hands its source's records out one window at a time, the
// way the sampled mode's window replay does: once left records are out it
// reports the end of the stream, draining the pipeline, until reopened.
type gatedStream struct {
	src  trace.Stream
	left int
}

func (g *gatedStream) NextBatch(buf []trace.Record) int {
	n := g.src.NextBatch(buf[:min(len(buf), g.left)])
	g.left -= n
	return n
}

func (g *gatedStream) Err() error { return g.src.Err() }

// windowedRun replays a kernel the way sampled mode does: fast-forward
// segments warm the caches without cycles, detailed windows run until the
// pipeline drains. step runs one iteration of the cycle loop. It returns
// the (cycle, instructions) pair after every iteration that retired
// something — all the sampled estimator reads — and the final report and
// unit counters.
func windowedRun(t *testing.T, cfg Config, name string, budget uint64, step func(*Processor) bool) ([]uint64, *Report, unitCounters) {
	t.Helper()
	g := &gatedStream{src: kernelStream(t, name, budget)}
	p, err := NewProcessor(cfg, g)
	if err != nil {
		t.Fatal(err)
	}
	var traj []uint64
	var buf [256]trace.Record
	for seg := 0; seg < 4; seg++ {
		for skip := 0; skip < 600; {
			n := g.src.NextBatch(buf[:min(len(buf), 600-skip)])
			if n == 0 {
				break
			}
			skip += n
			for _, rec := range buf[:n] {
				p.WarmAccess(WarmFetch, rec.PC)
				if rec.SI.Class.IsMem() {
					p.WarmAccess(WarmKindOf(rec.SI.Class), rec.MemAddr)
				}
			}
		}
		g.left = int(budget) / 8
		p.Reopen()
		for last := p.Instructions(); step(p); {
			if n := p.Instructions(); n != last {
				traj = append(traj, p.Cycles(), n)
				last = n
			}
		}
	}
	return traj, p.report(), countersOf(p)
}

// forcedStep is forcedRun's loop body as a Step.
func forcedStep(p *Processor) bool {
	if p.done() {
		return false
	}
	p.now++
	p.tick()
	return true
}

// FuzzSkipMatchesForcedTick is the proof that jumping the clock over quiet
// cycles is only a skip: on random configurations crossed with the
// kernels, the jumping loop and the tick-every-cycle reference must produce
// deeply equal Reports, and a windowed replay (the sampled mode's use of
// Step) must retire every instruction at the same cycle under both.
func FuzzSkipMatchesForcedTick(f *testing.F) {
	names := workloads.Names()
	for i := range names {
		for _, bits := range []uint64{0, 1, 2, 0x5a5a, 0x9e3779b9, 0xfedcba987} {
			f.Add(uint8(i), bits*uint64(i+1), uint8(i*7+int(bits%11)))
		}
	}
	f.Fuzz(func(t *testing.T, kernel uint8, bits uint64, size uint8) {
		name := names[int(kernel)%len(names)]
		budget := 3_000 + uint64(size%16)*1_000
		cfg := fuzzConfig(bits)

		jp, err := NewProcessor(cfg, kernelStream(t, name, budget))
		if err != nil {
			t.Fatal(err)
		}
		jumped, jerr := jp.RunContext(context.Background())
		fp, err := NewProcessor(cfg, kernelStream(t, name, budget))
		if err != nil {
			t.Fatal(err)
		}
		forced, ferr := forcedRun(fp)
		if fmt.Sprint(jerr) != fmt.Sprint(ferr) {
			t.Fatalf("%s on %s: jumping run error %v, forced %v", name, cfg.Fingerprint(), jerr, ferr)
		}
		if !reflect.DeepEqual(jumped, forced) {
			t.Fatalf("%s on %s (bits %#x, budget %d): reports differ\njumped: %+v\nforced: %+v",
				name, cfg.Fingerprint(), bits, budget, jumped, forced)
		}
		if jc, fc := countersOf(jp), countersOf(fp); jc != fc {
			t.Fatalf("%s on %s (bits %#x, budget %d): unit counters differ\njumped: %+v\nforced: %+v",
				name, cfg.Fingerprint(), bits, budget, jc, fc)
		}

		jt, jr, jc := windowedRun(t, cfg, name, budget, (*Processor).Step)
		ft, fr, fc := windowedRun(t, cfg, name, budget, forcedStep)
		if !reflect.DeepEqual(jt, ft) {
			t.Fatalf("%s on %s (bits %#x, budget %d): windowed replay retires differently (%d vs %d marks)",
				name, cfg.Fingerprint(), bits, budget, len(jt), len(ft))
		}
		if !reflect.DeepEqual(jr, fr) || jc != fc {
			t.Fatalf("%s on %s (bits %#x, budget %d): windowed reports differ\njumped: %+v %+v\nforced: %+v %+v",
				name, cfg.Fingerprint(), bits, budget, jr, jc, fr, fc)
		}
	})
}

// TestSkipWakesOnYoungerProducer: issue waiting on a value whose producer
// completes before an older instruction — a multiply behind a load that
// misses to memory, an MFC1 of an add and an FP-condition branch on a
// compare, each behind an FP divide — must wake on the producer's cycle,
// not the older one's. The kernels rarely line this up, so it is pinned
// here, on the cycle every instruction issues at: the divide unit sets the
// pace, so a late wake can leave the Report itself unchanged.
func TestSkipWakesOnYoungerProducer(t *testing.T) {
	build := func() trace.Stream {
		b := newTB()
		addr := uint32(0x20_0000)
		b.loop(300, func() {
			b.load(10, 29, addr)
			addr += 4096
			b.push(isa.Instruction{Op: isa.OpMULT, Rs: 11, Rt: 12}, 0, 0, false, 0)
			b.push(isa.Instruction{Op: isa.OpMFLO, Rd: 13}, 0, 0, false, 0)
			b.alu(9, 10, 13) // wait out the load: the FP cases start unblocked
			b.push(isa.Instruction{Op: isa.OpFDIV, Fd: 2, Fs: 4, Ft: 6, Double: true}, 0, 0, false, 0)
			b.push(isa.Instruction{Op: isa.OpFMUL, Fd: 24, Fs: 4, Ft: 6, Double: true}, 0, 0, false, 0)
			b.push(isa.Instruction{Op: isa.OpFADD, Fd: 20, Fs: 24, Ft: 6, Double: true}, 0, 0, false, 0)
			b.push(isa.Instruction{Op: isa.OpMFC1, Rt: 14, Fs: 20}, 0, 0, false, 0)
			b.alu(15, 14, 13)
			b.push(isa.Instruction{Op: isa.OpFDIV, Fd: 22, Fs: 4, Ft: 6, Double: true}, 0, 0, false, 0)
			b.push(isa.Instruction{Op: isa.OpFMUL, Fd: 26, Fs: 4, Ft: 6, Double: true}, 0, 0, false, 0)
			b.push(isa.Instruction{Op: isa.OpCLT, Fs: 26, Ft: 10, Double: true}, 0, 0, false, 0)
			b.push(isa.Instruction{Op: isa.OpBC1T}, 0, 0, false, 0)
			b.alu(18, 15, 0)
		})
		return b.stream()
	}
	for _, cfg := range []Config{bigCache(), Baseline(), Small().WithLatency(35), bigCache().WithoutPrefetch()} {
		cfg.FPU.Policy = fpu.OutOfOrderDual // the FP producers finish out of order
		var traj [2][]uint64
		var reps [2]*Report
		for i, step := range []func(*Processor) bool{(*Processor).Step, forcedStep} {
			p, err := NewProcessor(cfg, build())
			if err != nil {
				t.Fatal(err)
			}
			for last := uint64(0); step(p); {
				if n := p.Instructions(); n != last {
					traj[i] = append(traj[i], p.Cycles(), n)
					last = n
				}
			}
			if reps[i], err = p.finish(); err != nil {
				t.Fatal(err)
			}
		}
		if !reflect.DeepEqual(traj[0], traj[1]) || !reflect.DeepEqual(reps[0], reps[1]) {
			t.Fatalf("%s: the jumping loop issues or reports differently from the forced one\njumped: %+v\nforced: %+v",
				cfg.Name, reps[0], reps[1])
		}
	}
}
