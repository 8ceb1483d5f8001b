// Package fpu models the Aurora III floating-point unit (paper §3): a
// decoupled coprocessor fed through an instruction queue, with load and
// store data queues, a 32×64 register file with scoreboard, a reorder
// buffer, two result buses, and four functional units (add, multiply,
// divide, convert) of configurable latency and pipelining.
//
// The decoupling is the point: the IPU deposits FP instructions in the
// queue and keeps running; it stalls only when a queue fills or when it
// reads an FPU result (MFC1, or a branch on the FP condition flag).
package fpu

import (
	"math"

	"aurora/internal/faultinject"
	"aurora/internal/isa"
	"aurora/internal/obs"
	"aurora/internal/trace"
)

// IssuePolicy selects one of the paper's §5.8 issue policies.
type IssuePolicy int

// Issue policies.
const (
	// InOrderComplete: in-order issue, in-order completion — at most one
	// instruction active in the functional units at a time.
	InOrderComplete IssuePolicy = iota
	// OutOfOrderSingle: in-order single issue, out-of-order completion.
	OutOfOrderSingle
	// OutOfOrderDual: in-order dual issue, out-of-order completion.
	OutOfOrderDual
)

func (p IssuePolicy) String() string {
	switch p {
	case InOrderComplete:
		return "in-order/in-order"
	case OutOfOrderSingle:
		return "in-order/OOO single"
	case OutOfOrderDual:
		return "in-order/OOO dual"
	}
	return "unknown-policy"
}

// Unit identifies a functional unit.
type Unit int

// Functional units.
const (
	UnitAdd Unit = iota // add/sub/abs/neg/mov/compare
	UnitMul
	UnitDiv // divide and square root
	UnitCvt
	unitCount
)

// Config parameterises the FPU.
type Config struct {
	Policy IssuePolicy

	InstrQueue int // instruction queue entries (§5.9: 3 single / 5 dual)
	LoadQueue  int // load data queue entries (§5.9: 2)
	StoreQueue int // store data queue entries

	ReorderBuffer int // §5.9: 6

	AddLatency, MulLatency, DivLatency, CvtLatency         int
	AddPipelined, MulPipelined, DivPipelined, CvtPipelined bool

	ResultBuses int // 2 in the implemented design

	// Precise selects the §3.1 precise-exception mode: an instruction is
	// transferred to the FPU only when no other FP instruction is in
	// flight, so any FP exception is precise at the transfer boundary.
	// The default (false) is the paper's "higher performance mode".
	Precise bool
}

// DefaultConfig returns the §5.11 recommended FPU.
func DefaultConfig() Config {
	return Config{
		Policy:        OutOfOrderDual,
		InstrQueue:    5,
		LoadQueue:     2,
		StoreQueue:    2,
		ReorderBuffer: 6,
		AddLatency:    3, AddPipelined: true,
		MulLatency: 5, MulPipelined: false, // iterative (§3.1)
		DivLatency: 19, DivPipelined: false,
		CvtLatency: 2, CvtPipelined: true,
		ResultBuses: 2,
	}
}

// Normalize fills zero fields with the defaults.
func (c Config) Normalize() Config {
	d := DefaultConfig()
	if c.InstrQueue <= 0 {
		c.InstrQueue = d.InstrQueue
	}
	if c.LoadQueue <= 0 {
		c.LoadQueue = d.LoadQueue
	}
	if c.StoreQueue <= 0 {
		c.StoreQueue = d.StoreQueue
	}
	if c.ReorderBuffer <= 0 {
		c.ReorderBuffer = d.ReorderBuffer
	}
	if c.AddLatency <= 0 {
		c.AddLatency = d.AddLatency
	}
	if c.MulLatency <= 0 {
		c.MulLatency = d.MulLatency
	}
	if c.DivLatency <= 0 {
		c.DivLatency = d.DivLatency
	}
	if c.CvtLatency <= 0 {
		c.CvtLatency = d.CvtLatency
	}
	if c.ResultBuses <= 0 {
		c.ResultBuses = d.ResultBuses
	}
	return c
}

// Stats counts FPU activity.
type Stats struct {
	Dispatched   uint64 // instructions entering the queue
	Issued       uint64
	DualIssues   uint64 // cycles both queue slots issued
	Retired      uint64
	ROBFullStall uint64 // issue blocked on ROB space
	UnitBusy     uint64 // issue blocked on a busy functional unit
	BusConflict  uint64 // issue blocked on result-bus availability
	SrcNotReady  uint64 // issue blocked on operands
	QueueEmpty   uint64 // no instruction available to issue
	LoadsWritten uint64
	OccupancySum uint64 // instruction-queue occupancy integral
	Cycles       uint64
}

type queued struct {
	rec    trace.Record
	unit   Unit      // the functional unit it issues to
	srcSeq [2]uint64 // writer sequence each source waits on (0 = none)
	dstSeq uint64    // this instruction's own write sequence (0 = none)
	fccSeq uint64    // compare instructions: FCC write sequence
}

// unitState is one functional unit: its latency and pipelining, from the
// Config, the cycle it last accepted an instruction, and the completion
// cycle of that instruction, which frees an iterative unit.
type unitState struct {
	lat       uint64
	pipelined bool
	lastIssue uint64
	busyUntil uint64
}

// seqWindow bounds the completion ring. The live sequence span is tiny
// (instruction queue + load/store queues + a handful of in-flight reads),
// so 1024 gives an enormous safety margin.
const seqWindow = 1024

type robEntry struct {
	completeAt uint64
	valid      bool
}

type busSlot struct {
	at uint64 // the cycle the slot describes
	n  int    // result buses reserved then
}

// FPU is the decoupled floating-point unit.
type FPU struct {
	cfg   Config
	stats Stats

	iq     []queued // instruction queue ring; iqHead = oldest
	iqHead int
	iqLen  int
	loadQ  int // load-queue slots in use

	// Store-queue ring: writer seq awaited by each pending store.
	storeQ     []uint64
	storeQHead int
	storeQLen  int

	rob     []robEntry // ring: robHead = oldest
	robHead int
	robUsed int

	// Writer-sequence scoreboard: every write to the FP register file
	// (queued instruction, load arrival, MTC1) gets a sequence number.
	// Readers capture the source's last writer at dispatch and wait for
	// exactly that write — younger writers never block older readers.
	seqCtr     uint64
	lastWriter [33]uint64 // per register; index 32 = FCC
	slotSeq    [seqWindow]uint64
	slotDoneAt [seqWindow]uint64

	units [unitCount]unitState

	// Result-bus reservations, a ring over future cycles: each slot names
	// the cycle it currently describes and the buses reserved then. Sized
	// past the longest unit latency so live cycles never collide; stale
	// slots are recognised by their cycle and reused.
	bus     []busSlot
	busMask uint64

	// activeUntil is the completion cycle of the latest issue: under the
	// InOrderComplete policy, nothing issues before it (one instruction
	// active at a time).
	activeUntil uint64

	// idle latches Tick's finding that the FPU is drained: no queued
	// instruction, reorder-buffer entry or pending store. Such a tick only
	// counts an empty-queue cycle, so Tick skips it and the skipped cycles
	// from idleFrom on are settled in bulk when a dispatch clears the latch
	// (or counted into Stats). Load arrivals and IPU moves need no tick and
	// leave the latch set.
	idle     bool
	idleFrom uint64

	// quiet is the issue stall counter NextEvent found each quiet cycle
	// bumps (nil for none), kept for the Skip that follows it.
	quiet *uint64

	probe *obs.Probe
}

// unitNames and unitTracks label functional-unit issue spans on the
// timeline, precomputed so emission never builds strings.
var (
	unitNames  = [unitCount]string{UnitAdd: "add", UnitMul: "mul", UnitDiv: "div", UnitCvt: "cvt"}
	unitTracks = [unitCount]string{UnitAdd: "fpu-add", UnitMul: "fpu-mul", UnitDiv: "fpu-div", UnitCvt: "fpu-cvt"}
)

// SetProbe attaches the observability probe: functional-unit occupancy
// spans land on per-unit tracks, instruction-queue occupancy on the
// "fpu-iq" counter series.
func (f *FPU) SetProbe(p *obs.Probe) { f.probe = p }

// New creates an FPU.
func New(cfg Config) *FPU {
	cfg = cfg.Normalize()
	f := &FPU{
		cfg:    cfg,
		iq:     make([]queued, cfg.InstrQueue),
		storeQ: make([]uint64, cfg.StoreQueue),
		rob:    make([]robEntry, cfg.ReorderBuffer),
		units: [unitCount]unitState{
			UnitAdd: {lat: uint64(cfg.AddLatency), pipelined: cfg.AddPipelined},
			UnitMul: {lat: uint64(cfg.MulLatency), pipelined: cfg.MulPipelined},
			UnitDiv: {lat: uint64(cfg.DivLatency), pipelined: cfg.DivPipelined},
			UnitCvt: {lat: uint64(cfg.CvtLatency), pipelined: cfg.CvtPipelined},
		},
	}
	busWindow := 2
	for _, u := range f.units {
		for uint64(busWindow) < u.lat+2 {
			busWindow <<= 1
		}
	}
	f.bus = make([]busSlot, busWindow)
	f.busMask = uint64(busWindow - 1)
	return f
}

// busReserved returns the result-bus reservations for cycle at.
//
//aurora:hotpath
func (f *FPU) busReserved(at uint64) int {
	if s := &f.bus[at&f.busMask]; s.at == at {
		return s.n
	}
	return 0
}

// busReserve books one result bus for cycle at.
//
//aurora:hotpath
func (f *FPU) busReserve(at uint64) {
	s := &f.bus[at&f.busMask]
	if s.at != at {
		*s = busSlot{at: at}
	}
	s.n++
}

// Stats returns the statistics accumulated through cycle now, counting
// the cycles an idle FPU has skipped.
//
//aurora:hotpath
func (f *FPU) Stats(now uint64) Stats {
	s := f.stats
	if f.idle && now >= f.idleFrom {
		n := now + 1 - f.idleFrom
		s.Cycles += n
		s.QueueEmpty += n
	}
	return s
}

// wake clears the idle latch at cycle now, settling the ticks it skipped
// through now: each counted a cycle with an empty queue.
//
//aurora:hotpath
func (f *FPU) wake(now uint64) {
	if !f.idle {
		return
	}
	f.stats = f.Stats(now)
	f.idle = false
}

// unitOf maps an instruction class to its functional unit.
//
//aurora:hotpath
func unitOf(c isa.Class) Unit {
	switch c {
	case isa.ClassFPMul:
		return UnitMul
	case isa.ClassFPDiv:
		return UnitDiv
	case isa.ClassFPCvt:
		return UnitCvt
	}
	return UnitAdd
}

// --- register scoreboard -------------------------------------------------

const fccIndex = 32

// markWriter assigns a new write sequence covering the register (pair).
//
//aurora:hotpath
func (f *FPU) markWriter(reg uint8, double bool) uint64 {
	if reg == isa.NoFPReg {
		return 0
	}
	f.seqCtr++
	if double {
		e := reg & 0x1e
		f.lastWriter[e] = f.seqCtr
		f.lastWriter[e+1] = f.seqCtr
	} else {
		f.lastWriter[reg&31] = f.seqCtr
	}
	return f.seqCtr
}

//aurora:hotpath
func (f *FPU) markFCCWriter() uint64 {
	f.seqCtr++
	f.lastWriter[fccIndex] = f.seqCtr
	return f.seqCtr
}

// capture returns the sequence a reader of the register (pair) must wait on.
//
//aurora:hotpath
func (f *FPU) capture(reg uint8, double bool) uint64 {
	if reg == isa.NoFPReg {
		return 0
	}
	if double {
		e := reg & 0x1e
		seq := f.lastWriter[e]
		if f.lastWriter[e+1] > seq {
			seq = f.lastWriter[e+1]
		}
		return seq
	}
	return f.lastWriter[reg&31]
}

// scheduleSeq records that write seq completes at cycle at.
//
//aurora:hotpath
func (f *FPU) scheduleSeq(seq, at uint64) {
	if seq == 0 {
		return
	}
	i := seq % seqWindow
	f.slotSeq[i] = seq
	f.slotDoneAt[i] = at
}

// seqAt returns the first cycle at which write seq has completed: 0 for
// no write or an ancient one, math.MaxUint64 for one not yet scheduled
// (an FP load still waiting for its data).
//
//aurora:hotpath
func (f *FPU) seqAt(seq uint64) uint64 {
	if seq == 0 {
		return 0
	}
	i := seq % seqWindow
	switch {
	case f.slotSeq[i] == seq:
		return f.slotDoneAt[i]
	case f.slotSeq[i] > seq:
		return 0 // ancient write, long since completed
	default:
		return math.MaxUint64 // not yet scheduled
	}
}

// CaptureWriter returns a token for the last writer of the register (pair);
// pass it to DispatchStore, whose store-queue slot frees once that write
// completes (FP store synchronisation).
//
//aurora:hotpath
func (f *FPU) CaptureWriter(reg uint8, double bool) uint64 {
	return f.capture(reg, double)
}

// RegReadyAt returns the first cycle at which an FP register's value is
// available (math.MaxUint64 while its last write is an FP load still
// waiting for data). Valid for in-order readers (MFC1 blocks the IPU, so no
// younger FP write can slip in while it polls); decoupled readers must
// capture a token.
//
//aurora:hotpath
func (f *FPU) RegReadyAt(reg uint8, double bool) uint64 {
	return f.seqAt(f.capture(reg, double))
}

// FCCReadyAt returns the first cycle at which the FP condition flag is
// resolved (polled by the IPU before issuing BC1T/BC1F — also an in-order
// reader).
//
//aurora:hotpath
func (f *FPU) FCCReadyAt() uint64 {
	return f.seqAt(f.lastWriter[fccIndex])
}

// --- IPU-facing dispatch interface ---------------------------------------

// CanDispatchInstr reports whether the instruction queue has a free entry.
// In precise-exception mode (§3.1), dispatch also requires the FPU to be
// empty: no queued or executing FP instruction may be overtaken by one
// that could fault.
//
//aurora:hotpath
func (f *FPU) CanDispatchInstr() bool {
	if f.cfg.Precise && (f.iqLen > 0 || f.robUsed > 0) {
		return false
	}
	return f.iqLen < f.cfg.InstrQueue
}

// DispatchInstr deposits an FP arithmetic/convert/compare instruction into
// the queue. The caller must have checked CanDispatchInstr. Source writer
// sequences are captured here, at dispatch, so only older writes can block
// the instruction's eventual issue.
//
//aurora:hotpath
func (f *FPU) DispatchInstr(rec *trace.Record, now uint64) {
	if !f.CanDispatchInstr() || faultinject.Fires(faultinject.FPUInstrQueue) {
		panic("fpu: dispatch to full instruction queue")
	}
	f.wake(now)
	srcDouble := rec.SI.FPDouble
	switch rec.SI.In.Op {
	case isa.OpCVTS, isa.OpCVTD, isa.OpCVTW:
		srcDouble = rec.SI.In.CvtSrc == isa.CvtFromD
	}
	q := &f.iq[wrap(f.iqHead+f.iqLen, len(f.iq))]
	*q = queued{rec: *rec, unit: unitOf(rec.SI.Class)}
	q.srcSeq[0] = f.capture(rec.SI.Deps.SrcFP[0], srcDouble)
	q.srcSeq[1] = f.capture(rec.SI.Deps.SrcFP[1], srcDouble)
	if rec.SI.Deps.DstFP != isa.NoFPReg {
		q.dstSeq = f.markWriter(rec.SI.Deps.DstFP, rec.SI.FPDouble)
	}
	if rec.SI.Deps.WritesFCC {
		q.fccSeq = f.markFCCWriter()
	}
	f.iqLen++
	f.stats.Dispatched++
	if f.probe != nil {
		f.probe.Counter("fpu", "fpu-iq", uint64(f.iqLen))
	}
}

// CanDispatchLoad reports whether the load data queue has a free slot.
//
//aurora:hotpath
func (f *FPU) CanDispatchLoad() bool { return f.loadQ < f.cfg.LoadQueue }

// DispatchLoad reserves a load-queue slot for an FP load issued to the LSU
// and returns the load's write sequence; the destination register becomes
// unavailable until LoadArrived is called with that sequence.
//
//aurora:hotpath
func (f *FPU) DispatchLoad(reg uint8, double bool) uint64 {
	if !f.CanDispatchLoad() || faultinject.Fires(faultinject.FPULoadQueue) {
		panic("fpu: dispatch to full load queue")
	}
	f.loadQ++
	return f.markWriter(reg, double)
}

// LoadArrived delivers FP load data: the register file write completes the
// next cycle and the queue slot frees.
func (f *FPU) LoadArrived(seq uint64, now uint64) {
	if f.loadQ == 0 || faultinject.Fires(faultinject.FPULoadArrival) {
		panic("fpu: load arrival without reservation")
	}
	f.loadQ--
	f.scheduleSeq(seq, now+1)
	f.stats.LoadsWritten++
}

// CanDispatchStore reports whether the store data queue has a free slot.
//
//aurora:hotpath
func (f *FPU) CanDispatchStore() bool { return f.storeQLen < f.cfg.StoreQueue }

// DispatchStore reserves a store-queue slot for an FP store. The paper's
// write cache holds the store's line until the FPU delivers the data
// (§2.3 "Floating Point Support"); the slot frees once the writer sequence
// completes (in Tick), modelling that synchronisation. seq is the token
// from CaptureWriter at dispatch, and now the dispatch cycle.
//
//aurora:hotpath
func (f *FPU) DispatchStore(seq, now uint64) {
	if !f.CanDispatchStore() || faultinject.Fires(faultinject.FPUStoreQueue) {
		panic("fpu: dispatch to full store queue")
	}
	f.wake(now)
	f.storeQ[wrap(f.storeQHead+f.storeQLen, len(f.storeQ))] = seq
	f.storeQLen++
}

// WriteFromIPU schedules an MTC1 register write (data crosses from the IPU;
// one cycle of transfer after the move executes).
//
//aurora:hotpath
func (f *FPU) WriteFromIPU(reg uint8, now uint64) {
	seq := f.markWriter(reg, false)
	f.scheduleSeq(seq, now+1)
}

// --- per-cycle engine -----------------------------------------------------

// wrap folds a ring index i < 2n back into [0, n) with a compare instead
// of a divide.
//
//aurora:hotpath
func wrap(i, n int) int {
	if i >= n {
		i -= n
	}
	return i
}

// Tick advances the FPU by one cycle: retire, then issue. An idle FPU
// skips it (see FPU.idle).
//
//aurora:hotpath
func (f *FPU) Tick(now uint64) {
	if !f.idle {
		f.tick(now)
	}
}

//aurora:hotpath
func (f *FPU) tick(now uint64) {
	f.stats.Cycles++
	f.stats.OccupancySum += uint64(f.iqLen)

	// Drain the store queue in order: a slot frees once its data is
	// produced and handed to the write cache (one per cycle).
	if f.storeQLen > 0 && f.seqAt(f.storeQ[f.storeQHead]) <= now {
		f.storeQHead = wrap(f.storeQHead+1, len(f.storeQ))
		f.storeQLen--
	}

	// Retire up to two completed instructions in order.
	for retired := 0; retired < 2 && f.robUsed > 0; retired++ {
		e := &f.rob[f.robHead]
		if !e.valid || e.completeAt > now {
			break
		}
		e.valid = false
		f.robHead = wrap(f.robHead+1, len(f.rob))
		f.robUsed--
		f.stats.Retired++
	}

	if f.iqLen == 0 {
		f.stats.QueueEmpty++
		if f.robUsed == 0 && f.storeQLen == 0 {
			f.idle, f.idleFrom = true, now+1
		}
		return
	}

	if f.stalled(now) {
		return
	}
	first := f.issueHead(now)
	// The second slot of a dual-issue cycle takes the new head only when
	// it is independent of the first (§5.8 lists data dependencies among
	// the dual-issue constraints).
	if first != nil && f.cfg.Policy == OutOfOrderDual && f.iqLen > 0 &&
		!f.iq[f.iqHead].rec.SI.Deps.DependsOn(first.rec.SI.Deps) && !f.stalled(now) && f.issueHead(now) != nil {
		f.stats.DualIssues++
	}
}

// stalled counts the stall wait finds for the queue head at cycle now
// and reports whether there was one. Small enough to inline, so a stalled
// tick makes one call.
//
//aurora:hotpath
func (f *FPU) stalled(now uint64) bool {
	_, stall := f.wait(now)
	if stall != nil {
		*stall++
	}
	return stall != nil
}

// issueHead attempts to issue the queue head, which wait found ready at
// cycle now. It checks only what wait cannot see ahead: a pipelined
// unit's same-cycle issue and the result bus, both tied to the issue
// cycle. It returns the issued entry, or nil when the head did not issue;
// the entry's slot is free but is not overwritten before the next
// DispatchInstr.
//
//aurora:hotpath
func (f *FPU) issueHead(now uint64) *queued {
	head := &f.iq[f.iqHead]
	u := &f.units[head.unit]
	if u.pipelined && u.lastIssue == now {
		f.stats.UnitBusy++
		return nil
	}
	doneAt := now + u.lat
	if f.busReserved(doneAt) >= f.cfg.ResultBuses {
		f.stats.BusConflict++
		return nil
	}

	// Commit the issue. Under in-order completion the unit and bus checks
	// above never block, since nothing else is active.
	f.busReserve(doneAt)
	u.lastIssue, u.busyUntil = now, doneAt
	f.activeUntil = doneAt
	f.complete(head, doneAt)
	f.iqHead = wrap(f.iqHead+1, len(f.iq))
	f.iqLen--
	f.stats.Issued++
	if f.probe != nil {
		f.probe.Span(u.lat, "fpu", unitNames[head.unit], unitTracks[head.unit], 0)
		f.probe.Counter("fpu", "fpu-iq", uint64(f.iqLen))
	}
	return head
}

// NextEvent returns the first cycle after now at which Tick could do more
// than count: a store's data, the reorder-buffer head's completion, or the
// cycle the queue head could issue. A result at or before now+1 means Tick
// may act next cycle; math.MaxUint64 means the FPU is idle or waits only on
// other units (an FP load's data, a dispatch).
//
//aurora:hotpath
func (f *FPU) NextEvent(now uint64) uint64 {
	if f.idle {
		return math.MaxUint64
	}
	return f.nextEvent(now)
}

//aurora:hotpath
func (f *FPU) nextEvent(now uint64) uint64 {
	next, quiet := f.wait(now + 1)
	f.quiet = quiet
	if f.storeQLen > 0 {
		next = min(next, f.seqAt(f.storeQ[f.storeQHead]))
	}
	if f.robUsed > 0 {
		next = min(next, f.rob[f.robHead].completeAt)
	}
	return next
}

// Skip adds the counters of the n quiet cycles after the last NextEvent,
// which the caller jumps over without ticking: cycles, queue occupancy,
// and the issue stall NextEvent found each of those ticks would count. An
// idle FPU settles its skipped cycles itself.
//
//aurora:hotpath
func (f *FPU) Skip(n uint64) {
	if f.idle {
		return
	}
	f.stats.Cycles += n
	f.stats.OccupancySum += uint64(f.iqLen) * n
	if f.quiet != nil {
		*f.quiet += n
	}
}

// wait classifies the queue head's issue at cycle at without acting: the
// first cycle it could issue, and the stall counter each tick bumps until
// then (nil for none). Tick takes its issue stall from here at the
// current cycle, and NextEvent asks about the next. A head that could
// issue, or that meets a result-bus conflict (its completion slot moves
// with the cycle), answers at itself.
//
//aurora:hotpath
func (f *FPU) wait(at uint64) (uint64, *uint64) {
	if f.iqLen == 0 {
		return math.MaxUint64, &f.stats.QueueEmpty
	}
	if f.cfg.Policy == InOrderComplete && f.activeUntil > at {
		return f.activeUntil, &f.stats.UnitBusy
	}
	if f.robUsed >= len(f.rob) {
		return math.MaxUint64, &f.stats.ROBFullStall // retiring the head frees a slot
	}
	head := &f.iq[f.iqHead]
	if t := max(f.seqAt(head.srcSeq[0]), f.seqAt(head.srcSeq[1])); t > at {
		return t, &f.stats.SrcNotReady
	}
	// A pipelined unit is busy only in its issue cycle, which issueHead
	// checks. Under in-order completion an iterative unit's busy-until
	// cycle never passes activeUntil, so this check never adds a stall.
	if u := &f.units[head.unit]; !u.pipelined && u.busyUntil > at {
		return u.busyUntil, &f.stats.UnitBusy
	}
	return at, nil
}

// complete allocates the ROB entry and schedules the result write.
//
//aurora:hotpath
func (f *FPU) complete(q *queued, doneAt uint64) {
	if f.robUsed >= len(f.rob) || faultinject.Fires(faultinject.FPUROBOverflow) {
		panic("fpu: ROB overflow — issue checks missed")
	}
	slot := wrap(f.robHead+f.robUsed, len(f.rob))
	f.rob[slot] = robEntry{completeAt: doneAt, valid: true}
	f.robUsed++
	f.scheduleSeq(q.dstSeq, doneAt)
	f.scheduleSeq(q.fccSeq, doneAt)
}

// Drained reports whether the FPU has no queued or in-flight work at now.
//
//aurora:hotpath
func (f *FPU) Drained(now uint64) bool {
	if f.iqLen != 0 || f.robUsed != 0 || f.loadQ != 0 || f.storeQLen != 0 {
		return false
	}
	return f.activeUntil <= now
}

// QueueLen returns the instruction-queue occupancy (for tests).
//
//aurora:hotpath
func (f *FPU) QueueLen() int { return f.iqLen }
