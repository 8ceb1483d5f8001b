package core

import (
	"context"
	"fmt"

	"aurora/internal/faultinject"
	"aurora/internal/fpu"
	"aurora/internal/ipu"
	"aurora/internal/isa"
	"aurora/internal/mem"
	"aurora/internal/mmu"
	"aurora/internal/obs"
	"aurora/internal/prefetch"
	"aurora/internal/trace"
)

// farFuture marks a register whose producing instruction has not yet
// announced a completion time (an outstanding load).
const farFuture = ^uint64(0) >> 1

type robEntry struct {
	completeAt uint64
	valid      bool
}

// Processor is the integrated Aurora III timing model.
type Processor struct {
	cfg    Config
	stream trace.Stream
	now    uint64

	biu *mem.BIU
	pfu *prefetch.Buffers
	ifu *ipu.IFU
	lsu *ipu.LSU
	fp  *fpu.FPU
	mmu *mmu.MMU

	// Integer scoreboard: registers 1..31 plus HI/LO at index 32.
	intReadyAt [33]uint64
	writerLoad [33]bool
	writerFP   [33]bool
	writerGen  [33]uint64 // guards load wakeups against WAW overwrite

	rob     []robEntry
	robHead int
	robUsed int

	instructions uint64
	dualIssues   uint64
	stalls       [NumStallCauses]uint64

	// stalled records that the last cycle's issue issued nothing: only
	// then does advance look for quiet cycles to jump over. quietStall is
	// the stall issue counts on each of them (noStall for none), as
	// nextEvent found it for skip.
	stalled    bool
	quietStall StallCause

	// Mispredict redirect (branch-predictor extension): issue stalls
	// through redirectUntil after a mispredicted branch's delay slot
	// issues — the branch resolved at execute and the correct path must
	// be refetched. redirectHold is 1 + MispredictPenalty, precomputed;
	// 0 under the default folding front end, keeping it off the path.
	redirectUntil uint64
	redirectHold  uint64

	// Observability (internal/obs): probe is nil unless Attach was called,
	// keeping the hot loop on a single-branch fast path.
	probe        *obs.Probe
	sampleEvery  uint64
	nextSampleAt uint64
	lastSampleAt uint64
	sampledAny   bool
	prevSamp     sampleSnap
}

// NewProcessor builds a processor over a dynamic trace stream.
func NewProcessor(cfg Config, stream trace.Stream) (*Processor, error) {
	cfg = cfg.Normalize()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p := &Processor{cfg: cfg, stream: stream}
	p.biu = mem.New(cfg.Memory)
	p.mmu = mmu.New(cfg.MMU)
	if p.mmu.L2Enabled() {
		flat := cfg.Memory.Latency
		p.biu.LatencyFor = func(lineAddr uint32) int {
			return p.mmu.SecondaryLatency(lineAddr, flat)
		}
	}
	p.pfu = prefetch.New(cfg.PrefetchBuffers, cfg.PrefetchDepth, cfg.LineBytes)
	p.fp = fpu.New(cfg.FPU)
	p.lsu = ipu.NewLSU(ipu.LSUConfig{
		DCacheBytes:         cfg.DCacheBytes,
		LineBytes:           cfg.LineBytes,
		DCacheLatency:       cfg.DCacheLatency,
		MSHRs:               cfg.MSHRs,
		WriteCacheLines:     cfg.WriteCacheLines,
		WriteCacheLineBytes: cfg.LineBytes,
		VictimLines:         cfg.VictimLines,
	}, p.biu, p.pfu)
	if p.mmu.TranslationEnabled() {
		p.lsu.Translate = p.mmu.Translate
	}
	p.lsu.OnComplete = p.memOpDone
	p.ifu = ipu.NewIFU(ipu.IFUConfig{
		ICacheBytes:          cfg.ICacheBytes,
		LineBytes:            cfg.LineBytes,
		FetchQueue:           cfg.FetchQueue,
		DisableBranchFolding: cfg.DisableBranchFolding,
		BPred:                cfg.BPred,
	}, p.biu, p.pfu, stream)
	p.rob = make([]robEntry, cfg.ReorderBuffer)
	if !cfg.BPred.IsDefault() {
		p.redirectHold = 1 + uint64(cfg.BPred.MispredictPenalty)
	}
	return p, nil
}

// Run simulates until the trace drains, returning the report. A run that
// retires too few instructions for its cycle count fails as a runaway.
func (p *Processor) Run() (*Report, error) {
	return p.RunContext(context.Background())
}

// PollInterval is how often, in simulated cycles, every cycle loop polls
// its context: frequent enough that cancellation and per-job deadlines land
// within microseconds of wall time, rare enough that the cycle loop's cost
// and zero-allocation property are untouched.
const PollInterval = 1 << 12

// PollDue reports whether the clock's move from cycle from to cycle to
// crossed a multiple of PollInterval — the point at which a cycle loop
// polls its context. Testing the crossing rather than the landing keeps
// the poll when the clock jumps over quiet cycles.
//
//aurora:hotpath
func PollDue(from, to uint64) bool { return from/PollInterval != to/PollInterval }

// RunContext is Run under a context: cancellation or deadline expiry stops
// the simulation within a few thousand cycles and returns ctx.Err(). A
// background (never-cancelled) context costs nothing in the loop.
func (p *Processor) RunContext(ctx context.Context) (*Report, error) {
	done := ctx.Done()
	for !p.done() {
		from, limit := p.now, 100*p.instructions+1_000_000
		p.advance(limit)
		if done != nil && PollDue(from, p.now) {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		if p.now > limit {
			return nil, fmt.Errorf("core: runaway simulation at cycle %d (%d instructions)",
				p.now, p.instructions)
		}
		p.tick()
	}
	return p.finish()
}

// finish is the end-of-run accounting shared by every loop that runs the
// machine to its end: it fails a faulted trace, flushes the write cache and
// closes the interval series, then assembles the report.
func (p *Processor) finish() (*Report, error) {
	// A trace that ended because the producer faulted must fail the run:
	// the retired prefix would otherwise report a plausible but wrong CPI.
	if err := p.stream.Err(); err != nil {
		return nil, fmt.Errorf("core: trace ended in error after %d instructions: %w",
			p.instructions, err)
	}
	p.lsu.FlushWriteCache(p.now)
	// Close the final (possibly partial) sampling interval after the flush
	// so the time series' totals reconcile exactly with the Report.
	if p.sampleEvery != 0 {
		p.emitSample()
	}
	return p.report(), nil
}

// advance moves the clock to the next cycle that needs a tick: after a
// cycle in which issue stalled, with no probe attached, past any quiet
// cycles first (see jump). Small enough to inline into the loops.
//
//aurora:hotpath
func (p *Processor) advance(limit uint64) {
	if p.stalled && p.probe == nil {
		p.jump(limit)
	}
	p.now++
}

// jump asks every unit for its next event; when that lies beyond the next
// cycle, the clock jumps over the quiet cycles in between (never past
// limit), and the counters their ticks would have bumped are added in
// bulk. A machine with no future event ticks on one cycle at a time.
//
//aurora:hotpath
func (p *Processor) jump(limit uint64) {
	if next := p.nextEvent(); next > p.now+1 && next < farFuture {
		if to := min(next-1, limit); to > p.now {
			p.skip(to)
		}
	}
}

// nextEvent returns the first cycle after now at which some unit's tick
// could do more than bump a counter; a result at or before now+1 means the
// next cycle is not quiet. Units are asked in order of how often they
// answer now+1, and the first such answer ends the search.
//
//aurora:hotpath
func (p *Processor) nextEvent() uint64 {
	at := p.now + 1
	next := p.lsu.NextEvent(p.now)
	if next > at {
		next = min(next, p.fp.NextEvent(p.now))
	}
	if next > at {
		var t uint64
		t, p.quietStall = p.issueWait(at)
		next = min(next, t)
	}
	if next > at && p.robUsed > 0 {
		next = min(next, p.rob[p.robHead].completeAt)
	}
	if next > at {
		next = min(next, p.ifu.NextEvent(p.now))
	}
	if next > at {
		next = min(next, p.biu.NextEvent())
	}
	if next > at {
		next = min(next, p.pfu.NextEvent(p.now, p.biu))
	}
	return next
}

// skip jumps the clock to cycle to over the quiet cycles nextEvent found,
// adding what each unit's tick would have counted on them.
//
//aurora:hotpath
func (p *Processor) skip(to uint64) {
	n := to - p.now
	if p.quietStall != noStall {
		p.stalls[p.quietStall] += n
	}
	p.lsu.Skip(n)
	p.fp.Skip(n)
	p.now = to
}

// issueWait classifies issue at cycle at without acting: the first cycle
// issue could do more than count a stall, and the stall it counts until
// then (noStall for none). issue takes its decision from here at the
// current cycle, and nextEvent asks about the next. A wait on another unit
// (a load's data, a queue or reorder-buffer slot, fetch) answers farFuture
// or later: that unit's own event ends it.
//
//aurora:hotpath
func (p *Processor) issueWait(at uint64) (uint64, StallCause) {
	if p.redirectUntil > at {
		// Mispredict redirect: the instructions behind the resolved branch
		// are squashed wrong-path fetches; the refetched correct path
		// arrives when the redirect completes. Charged to the ICache
		// (front-end) bucket like other fetch holes.
		return p.redirectUntil, StallICache
	}
	if p.ifu.QueueLen() == 0 {
		if p.ifu.Done() {
			return farFuture, noStall
		}
		return farFuture, StallICache
	}
	return p.readyAt(p.ifu.QueueHead(), at)
}

// tick runs one cycle of the machine: memory system first, then retire and
// issue, then fetch and prefetch (the fixed intra-cycle order every unit's
// timing assumes).
//
//aurora:hotpath
func (p *Processor) tick() {
	p.biu.Tick(p.now)
	p.lsu.Tick(p.now)
	p.fp.Tick(p.now)
	p.retire()
	p.issue()
	p.ifu.Tick(p.now)
	p.pfu.Tick(p.now, p.biu)
	if p.sampleEvery != 0 && p.now >= p.nextSampleAt {
		p.emitSample()
		p.nextSampleAt += p.sampleEvery
	}
}

// Step runs the machine's next tick, reporting whether the machine still
// has work. It is Run's loop body without the deadlock guards and
// end-of-run accounting — the hook the sampled mode's window replay and
// the benchmarks use. Like Run, it first jumps the clock over quiet
// cycles, so one Step can advance Cycles by more than one; every cycle on
// which the machine's state changes is still a Step of its own.
//
//aurora:hotpath
func (p *Processor) Step() bool {
	if p.done() {
		return false
	}
	p.advance(farFuture)
	p.tick()
	return true
}

//aurora:hotpath
func (p *Processor) done() bool {
	return p.ifu.Done() && p.robUsed == 0 && !p.lsu.Busy() && p.fp.Drained(p.now)
}

// Cycles returns the cycles simulated so far.
func (p *Processor) Cycles() uint64 { return p.now }

// Instructions returns the instructions retired so far.
func (p *Processor) Instructions() uint64 { return p.instructions }

// retire removes up to two completed instructions from the reorder buffer
// in program order.
//
//aurora:hotpath
func (p *Processor) retire() {
	for n := 0; n < 2 && p.robUsed > 0; n++ {
		e := &p.rob[p.robHead]
		if !e.valid || e.completeAt > p.now {
			return
		}
		e.valid = false
		if p.robHead++; p.robHead == len(p.rob) {
			p.robHead = 0
		}
		p.robUsed--
	}
}

// issue issues the queue head when issueWait finds it ready and counts
// the stall when it does not; a second instruction follows it when the
// pair may dual-issue and is ready too.
//
//aurora:hotpath
func (p *Processor) issue() {
	if t, cause := p.issueWait(p.now); t > p.now {
		if cause != noStall {
			p.stalls[cause]++
			if p.probe != nil {
				p.probe.Instant("core", stallNames[cause], "issue", 0)
			}
		}
		p.stalled = true
		return
	}
	p.stalled = false
	first := p.issueHead()
	if p.cfg.IssueWidth == 1 || p.redirectUntil > p.now || p.ifu.QueueLen() == 0 {
		return
	}
	if second := p.ifu.QueueHead(); pairAllowed(first, second) {
		if t, _ := p.readyAt(second, p.now); t == p.now {
			p.issueHead()
			p.dualIssues++
		}
	}
}

// issueHead issues the queue head at the current cycle and returns it.
// The head slot stays intact through Consume: only the IFU's next Tick
// refills the ring, so the result may point into it.
//
//aurora:hotpath
func (p *Processor) issueHead() *trace.Record {
	rec := p.ifu.QueueHead()
	redirect := p.ifu.HeadRedirect()
	p.doIssue(rec)
	p.ifu.Consume(1)
	p.instructions++
	if redirect {
		p.redirectUntil = p.now + p.redirectHold
	}
	return rec
}

// pairAllowed applies the dual-issue constraints of §2 (IFU): the pair must
// be the two halves of an aligned pair with at most one memory-access and
// one control-flow instruction, free of a true dependence. The hardware
// reads that last one from the DI bit pre-decode stores at cache-fill time,
// so it costs no issue time; the simulator derives the same bit here from
// the two records' register sets, and only for a pair the other rules allow.
//
//aurora:hotpath
func pairAllowed(first, second *trace.Record) bool {
	if first.PC%8 != 0 || second.PC != first.PC+4 {
		return false
	}
	if first.SI.Class.IsMem() && second.SI.Class.IsMem() {
		return false
	}
	if first.SI.Class.IsControl() && second.SI.Class.IsControl() {
		return false
	}
	return !second.SI.Deps.DependsOn(first.SI.Deps)
}

// readyAt classifies rec's issue at cycle at: at itself when nothing
// blocks it, else the first cycle it could issue and the stall cause — an
// operand's ready cycle for a result wait, farFuture for a structure that
// another unit frees.
//
//aurora:hotpath
func (p *Processor) readyAt(rec *trace.Record, at uint64) (uint64, StallCause) {
	// Operand readiness (integer scoreboard).
	for _, s := range rec.SI.Deps.SrcInt {
		if s != 0 && p.intReadyAt[s] > at {
			return p.intReadyAt[s], p.srcStall(s)
		}
	}
	if rec.SI.Deps.ReadsFCC || rec.SI.In.Op == isa.OpMFC1 {
		if t := p.fpReadAt(rec); t > at {
			return t, StallFPU
		}
	}
	// FP store data readiness is *not* checked here: the store decouples
	// through the FPU store queue, which holds its slot until the data is
	// produced.

	if p.needsROB(rec) && p.robUsed >= len(p.rob) {
		return farFuture, StallROBFull
	}
	if rec.SI.Class.IsMem() {
		if !p.lsu.CanAccept() {
			return farFuture, StallLSUBusy
		}
		switch rec.SI.Class {
		case isa.ClassFPLoad:
			if !p.fp.CanDispatchLoad() {
				return farFuture, StallFPU
			}
		case isa.ClassFPStore:
			if !p.fp.CanDispatchStore() {
				return farFuture, StallFPU
			}
		}
	}
	if isFPQueueClass(rec.SI.Class) && !p.fp.CanDispatchInstr() {
		return farFuture, StallFPU
	}
	return at, noStall
}

// srcStall attributes a wait on integer register s to its producer.
//
//aurora:hotpath
func (p *Processor) srcStall(s uint8) StallCause {
	switch {
	case p.writerLoad[s]:
		return StallLoad
	case p.writerFP[s]:
		return StallFPU
	}
	return StallOther
}

// fpReadAt returns the first cycle rec's decoupling read of the FPU can
// go ahead: MFC1 waits on its register, FP-condition branches on the flag.
//
//aurora:hotpath
func (p *Processor) fpReadAt(rec *trace.Record) uint64 {
	var at uint64
	if rec.SI.Deps.ReadsFCC {
		at = p.fp.FCCReadyAt()
	}
	if rec.SI.In.Op == isa.OpMFC1 {
		at = max(at, p.fp.RegReadyAt(rec.SI.In.Fs, false))
	}
	return at
}

// isFPQueueClass reports whether the instruction is transferred to the FPU
// instruction queue (arithmetic, conversions, compares).
//
//aurora:hotpath
func isFPQueueClass(c isa.Class) bool {
	switch c {
	case isa.ClassFPAdd, isa.ClassFPMul, isa.ClassFPDiv, isa.ClassFPCvt:
		return true
	}
	return false
}

// needsROB reports whether the instruction occupies an IPU reorder-buffer
// entry. FP arithmetic lives in the FPU's own reorder buffer instead.
//
//aurora:hotpath
func (p *Processor) needsROB(rec *trace.Record) bool {
	return !isFPQueueClass(rec.SI.Class)
}

// allocROB reserves a reorder-buffer slot, returning its index.
//
//aurora:hotpath
func (p *Processor) allocROB(completeAt uint64) int {
	if p.robUsed >= len(p.rob) || faultinject.Fires(faultinject.CoreROBOverflow) {
		panic("core: ROB overflow — readyAt checks missed")
	}
	slot := p.robHead + p.robUsed
	if slot >= len(p.rob) {
		slot -= len(p.rob)
	}
	p.rob[slot] = robEntry{completeAt: completeAt, valid: true}
	p.robUsed++
	return slot
}

// setIntDest schedules the integer scoreboard write and returns the new
// writer generation (used by load completions to detect WAW overwrites).
//
//aurora:hotpath
func (p *Processor) setIntDest(reg uint8, at uint64, fromLoad, fromFP bool) uint64 {
	if reg == 0 {
		return 0
	}
	p.intReadyAt[reg] = at
	p.writerLoad[reg] = fromLoad
	p.writerFP[reg] = fromFP
	p.writerGen[reg]++
	return p.writerGen[reg]
}

// doIssue commits the issue of rec at the current cycle.
//
//aurora:hotpath
func (p *Processor) doIssue(rec *trace.Record) {
	now := p.now
	switch rec.SI.Class {
	case isa.ClassNop, isa.ClassSystem:
		p.allocROB(now + 1)

	case isa.ClassIntALU:
		p.allocROB(now + 1)
		p.setIntDest(rec.SI.Deps.DstInt, now+1, false, false)

	case isa.ClassIntMulDiv:
		lat := uint64(1) // HI/LO moves
		switch rec.SI.In.Op {
		case isa.OpMULT, isa.OpMULTU:
			lat = uint64(p.cfg.IntMulLatency)
		case isa.OpDIV, isa.OpDIVU:
			lat = uint64(p.cfg.IntDivLatency)
		}
		p.allocROB(now + lat)
		p.setIntDest(rec.SI.Deps.DstInt, now+lat, false, false)

	case isa.ClassBranch:
		p.allocROB(now + 1)

	case isa.ClassJump:
		p.allocROB(now + 1)
		p.setIntDest(rec.SI.Deps.DstInt, now+1, false, false)

	case isa.ClassLoad:
		idx := p.allocROB(farFuture)
		dst := rec.SI.Deps.DstInt
		gen := p.setIntDest(dst, farFuture, true, false)
		p.lsu.Dispatch(ipu.MemOp{
			Addr:    rec.MemAddr,
			IntDest: dst,
			RobIdx:  int32(idx),
			Gen:     gen,
		}, now)

	case isa.ClassStore:
		idx := p.allocROB(farFuture)
		p.lsu.Dispatch(ipu.MemOp{
			Addr:   rec.MemAddr,
			Store:  true,
			RobIdx: int32(idx),
		}, now)

	case isa.ClassFPLoad:
		idx := p.allocROB(farFuture)
		seq := p.fp.DispatchLoad(rec.SI.In.Ft, rec.SI.FPDouble)
		p.lsu.Dispatch(ipu.MemOp{
			Addr:   rec.MemAddr,
			FP:     true,
			RobIdx: int32(idx),
			Seq:    seq,
		}, now)

	case isa.ClassFPStore:
		idx := p.allocROB(farFuture)
		// The store's data token: the last FP write to the source register
		// at dispatch time. The write cache accepts the store immediately;
		// the FPU store queue holds a slot until the data is produced.
		p.fp.DispatchStore(p.fp.CaptureWriter(rec.SI.In.Ft, rec.SI.FPDouble), now)
		p.lsu.Dispatch(ipu.MemOp{
			Addr:   rec.MemAddr,
			Store:  true,
			RobIdx: int32(idx),
		}, now)

	case isa.ClassFPMove:
		if rec.SI.In.Op == isa.OpMFC1 {
			// Data crosses from the FPU chip: available next cycle,
			// visible to dependents the cycle after.
			p.allocROB(now + 2)
			p.setIntDest(rec.SI.Deps.DstInt, now+2, false, true)
		} else { // MTC1
			p.allocROB(now + 1)
			p.fp.WriteFromIPU(rec.SI.In.Fs, now+1)
		}

	case isa.ClassFPAdd, isa.ClassFPMul, isa.ClassFPDiv, isa.ClassFPCvt:
		p.fp.DispatchInstr(rec, now)
	}
}

// memOpDone is the LSU's OnComplete hook: it finishes the op's reorder
// buffer entry and delivers load data to its consumer (the integer
// scoreboard, or the FPU load queue for FP loads). Set once at
// construction, so memory issue carries no per-op closures.
func (p *Processor) memOpDone(op *ipu.MemOp, t uint64) {
	p.rob[op.RobIdx].completeAt = t
	if op.Store {
		return
	}
	if op.FP {
		p.fp.LoadArrived(op.Seq, t)
		return
	}
	if dst := op.IntDest; dst != 0 && p.writerGen[dst] == op.Gen {
		p.intReadyAt[dst] = t
	}
}

// report assembles the final statistics.
func (p *Processor) report() *Report {
	ic := p.ifu.ICache()
	dc := p.lsu.DCache()
	wc := p.lsu.WriteCache()
	r := &Report{
		Config:       p.cfg,
		Instructions: p.instructions,
		Cycles:       p.now,
		DualIssues:   p.dualIssues,
		Stalls:       p.stalls,

		ICacheAccesses: ic.Accesses(),
		ICacheMisses:   ic.Misses(),
		DCacheAccesses: dc.Accesses(),
		DCacheMisses:   dc.Misses(),

		IPrefetchProbes: p.ifu.Stats().IPrefetchProbes,
		IPrefetchHits:   p.ifu.Stats().IPrefetchHits,
		DPrefetchProbes: p.lsu.Stats().DPrefetchProbes,
		DPrefetchHits:   p.lsu.Stats().DPrefetchHits,

		WCAccesses:       wc.Accesses(),
		WCHits:           wc.Hits(),
		WCStores:         wc.Stores(),
		WCTransactions:   wc.Transactions(),
		WCPageMatches:    wc.PageMatches(),
		WCPageMissChecks: wc.PageMissChecks(),

		MSHRUtilisation: p.lsu.MSHR().Utilisation(p.now),

		VictimProbes: p.lsu.Victim().Probes(),
		VictimHits:   p.lsu.Victim().Hits(),

		DelaySlotCrossings: p.ifu.Stats().DelaySlotCrossings,

		BranchPredicts:    p.ifu.Stats().BranchPredicts,
		BranchMispredicts: p.ifu.Stats().BranchMispredicts,

		BIU: p.biu.Stats(),
		FPU: p.fp.Stats(p.now),
		MMU: p.mmu.Stats(),
	}
	return r
}
