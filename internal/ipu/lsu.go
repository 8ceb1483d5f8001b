// Package ipu contains the integer-side pipeline components of the Aurora
// III: the Instruction Fetch Unit (pre-decoded instruction cache, branch
// folding, stream-buffer interaction) and the Load/Store Unit (pipelined
// external data cache, MSHR-based non-blocking misses, coalescing write
// cache). The integer execution engine that drives them lives in
// internal/core, which owns the cycle loop.
package ipu

import (
	"math"

	"aurora/internal/cache"
	"aurora/internal/faultinject"
	"aurora/internal/mem"
	"aurora/internal/obs"
	"aurora/internal/prefetch"
)

// LSUConfig parameterises the load/store unit.
type LSUConfig struct {
	DCacheBytes         int
	LineBytes           int
	DCacheLatency       int // pipelined external cache: 3 cycles in the paper
	MSHRs               int
	WriteCacheLines     int
	WriteCacheLineBytes int

	// VictimLines enables a small fully-associative victim cache behind
	// the direct-mapped data cache (extension study; 0 = the paper's
	// design, which has none).
	VictimLines int
}

// MemOp is one memory instruction active in the LSU. Ops live in a pool
// owned by the LSU (one slot per MSHR); Dispatch copies the caller's
// template into a pool slot, so the per-instruction hot path allocates
// nothing. FP store data never waits here: it synchronises in the FPU
// store queue (paper §2.3), so the write cache accepts every store at once.
type MemOp struct {
	Store   bool
	FP      bool
	IntDest uint8
	Addr    uint32

	// Completion context, opaque to the LSU: the dispatcher's reorder-buffer
	// slot, scoreboard writer generation, and FP load sequence, handed back
	// through the OnComplete hook.
	RobIdx int32
	Gen    uint64
	Seq    uint64

	poolIdx     int32
	state       opState
	startAt     uint64 // earliest cycle the cache port may start this op
	dataAt      uint64 // completion cycle once known
	biuInFlight bool
	translated  bool // TLB access already performed
}

type opState uint8

const (
	opWaitPort opState = iota
	opWaitBIU          // miss outstanding
	opWaitData         // completion time known (dataAt)
	opDone
)

// LSUStats counts load/store unit activity.
type LSUStats struct {
	DPrefetchHits   uint64
	DPrefetchProbes uint64
}

// LSU is the load/store unit.
type LSU struct {
	cfg  LSUConfig
	biu  *mem.BIU
	pfu  *prefetch.Buffers
	dc   *cache.TagArray
	vc   *cache.VictimCache
	wc   *cache.WriteCache
	mshr *cache.MSHRFile

	// Translate, when non-nil, models address translation (an MMU TLB):
	// it returns extra cycles the access must wait (a page-table walk).
	Translate func(addr uint32) int

	// OnComplete, when non-nil, fires once per completed operation: loads
	// at data return, stores when accepted by the write cache. It is the
	// LSU's one completion hook, set once at construction (no per-op
	// closure, so a memory access allocates nothing).
	OnComplete func(op *MemOp, now uint64)

	pool       []MemOp // one slot per MSHR; every active op holds an MSHR
	free       []int32 // available pool slots
	ops        []*MemOp
	portFreeAt uint64

	stats LSUStats

	probe *obs.Probe
}

// SetProbe attaches the observability probe to the LSU and every structure
// it owns: the external data cache ("dcache" track), the MSHR file, the
// write cache and the victim cache.
func (l *LSU) SetProbe(p *obs.Probe) {
	l.probe = p
	l.dc.SetProbe(p, "dcache")
	l.wc.SetProbe(p)
	l.vc.SetProbe(p)
	l.mshr.SetProbe(p)
}

// NewLSU builds the load/store unit.
func NewLSU(cfg LSUConfig, biu *mem.BIU, pfu *prefetch.Buffers) *LSU {
	if cfg.DCacheLatency <= 0 {
		cfg.DCacheLatency = 3
	}
	if cfg.LineBytes <= 0 {
		cfg.LineBytes = 32
	}
	if cfg.WriteCacheLineBytes <= 0 {
		cfg.WriteCacheLineBytes = 32
	}
	if cfg.MSHRs < 1 {
		cfg.MSHRs = 1
	}
	l := &LSU{
		cfg:  cfg,
		biu:  biu,
		pfu:  pfu,
		dc:   cache.NewTagArray(cfg.DCacheBytes, cfg.LineBytes),
		vc:   cache.NewVictimCache(cfg.VictimLines),
		wc:   cache.NewWriteCache(cfg.WriteCacheLines, cfg.WriteCacheLineBytes),
		mshr: cache.NewMSHRFile(cfg.MSHRs),
		pool: make([]MemOp, cfg.MSHRs),
		free: make([]int32, cfg.MSHRs),
		ops:  make([]*MemOp, 0, cfg.MSHRs),
	}
	for i := range l.free {
		l.free[i] = int32(i)
	}
	return l
}

// DCache exposes the data cache tag array (stats).
//
//aurora:hotpath
func (l *LSU) DCache() *cache.TagArray { return l.dc }

// WriteCache exposes the write cache (stats).
//
//aurora:hotpath
func (l *LSU) WriteCache() *cache.WriteCache { return l.wc }

// MSHR exposes the MSHR file (stats).
//
//aurora:hotpath
func (l *LSU) MSHR() *cache.MSHRFile { return l.mshr }

// Victim exposes the victim cache (stats; disabled in the paper's design).
//
//aurora:hotpath
func (l *LSU) Victim() *cache.VictimCache { return l.vc }

// Stats returns the LSU counters.
//
//aurora:hotpath
func (l *LSU) Stats() LSUStats { return l.stats }

// CanAccept reports whether a new memory instruction can enter the LSU.
// Every active memory instruction holds an MSHR (paper §2.3), so the file
// size bounds LSU occupancy: one MSHR is a blocking cache.
//
//aurora:hotpath
func (l *LSU) CanAccept() bool { return l.mshr.Available() }

// Dispatch enters a memory operation at cycle now (its address was computed
// in the IEU this cycle; the transfer to the LSU takes one cycle). The
// template is copied into a pool slot — callers build it on the stack.
// The caller must have checked CanAccept.
//
//aurora:hotpath
func (l *LSU) Dispatch(tmpl MemOp, now uint64) {
	if !l.mshr.Allocate() || faultinject.Fires(faultinject.LSUDispatch) {
		panic("ipu: LSU dispatch without MSHR")
	}
	idx := l.free[len(l.free)-1]
	l.free = l.free[:len(l.free)-1]
	op := &l.pool[idx]
	*op = tmpl
	op.poolIdx = idx
	op.startAt = now + 1
	op.state = opWaitPort
	// Every active op holds a pool slot, so ops never outgrows the pool:
	// the reslice stays within capacity (and panics if that ever breaks).
	n := len(l.ops)
	l.ops = l.ops[:n+1]
	l.ops[n] = op
}

// Busy reports whether any operation is active (for drain detection).
//
//aurora:hotpath
func (l *LSU) Busy() bool { return len(l.ops) > 0 }

// Tick advances the unit one cycle. With no active op there is nothing to
// do: the MSHR file is empty, so even its occupancy integral stands.
//
//aurora:hotpath
func (l *LSU) Tick(now uint64) {
	if len(l.ops) != 0 {
		l.tick(now)
	}
}

//aurora:hotpath
func (l *LSU) tick(now uint64) {
	l.mshr.TickOccupancy(1)
	for _, op := range l.ops {
		switch op.state {
		case opWaitPort:
			if op.startAt > now {
				continue
			}
			if l.portFreeAt > now {
				if l.probe != nil {
					l.probe.Instant("lsu", "port-conflict", "lsu", uint64(op.Addr))
				}
				continue
			}
			l.access(op, now)
		case opWaitData:
			if op.dataAt <= now {
				l.finish(op, op.dataAt)
			}
		}
	}
	// Compact completed operations in place and return their pool slots;
	// the free list, too, grows by reslicing within its pool-sized capacity.
	live := 0
	for _, op := range l.ops {
		if op.state != opDone {
			l.ops[live] = op
			live++
		} else {
			n := len(l.free)
			l.free = l.free[:n+1]
			l.free[n] = op.poolIdx
		}
	}
	l.ops = l.ops[:live]
}

// NextEvent returns the first cycle after now at which Tick could do more
// than count: the earliest port access (an op's start, once the port is
// free) or data return. A result at or before now+1 means Tick may act
// next cycle. An op waiting on its line read waits on the BIU's event
// instead; math.MaxUint64 means every op does, or none is active.
//
//aurora:hotpath
func (l *LSU) NextEvent(now uint64) uint64 {
	next := uint64(math.MaxUint64)
	for _, op := range l.ops {
		switch op.state {
		case opWaitPort:
			next = min(next, max(op.startAt, l.portFreeAt))
		case opWaitData:
			next = min(next, op.dataAt)
		}
	}
	return next
}

// Skip adds the MSHR occupancy of n quiet cycles, which the caller jumps
// over without ticking.
//
//aurora:hotpath
func (l *LSU) Skip(n uint64) { l.mshr.TickOccupancy(n) }

// access performs the cache-port access for op at cycle now.
//
//aurora:hotpath
func (l *LSU) access(op *MemOp, now uint64) {
	// Address translation first: a TLB miss delays the access by the
	// page-table walk without holding the cache port.
	if l.Translate != nil && !op.translated {
		op.translated = true
		if extra := l.Translate(op.Addr); extra > 0 {
			op.startAt = now + uint64(extra)
			return
		}
	}
	l.portFreeAt = now + 1 // pipelined: one new access per cycle

	if op.Store {
		// Stores go to the on-chip write cache; a miss allocates and
		// may evict a dirty line: one coalesced BIU write transaction.
		_, ev, evicted := l.wc.Store(op.Addr)
		if evicted {
			l.biu.Write(now)
			// The evicted line also updates the external data cache
			// over the shared data busses, holding the port.
			l.fillPort(now)
			l.dcFill(ev.LineAddr)
		}
		op.dataAt = now + 1
		op.state = opWaitData
		return
	}

	// Loads: write cache first (on-chip, store-to-load forwarding)...
	if l.wc.Load(op.Addr) {
		op.dataAt = now + 1
		op.state = opWaitData
		return
	}
	// ...then the external pipelined data cache.
	if l.dc.Lookup(op.Addr) {
		op.dataAt = now + uint64(l.cfg.DCacheLatency)
		op.state = opWaitData
		return
	}
	lineAddr := l.dc.LineAddr(op.Addr)
	// Victim cache (extension): a conflict-evicted line swaps back in at
	// one extra cycle over a primary hit.
	if l.vc.Probe(lineAddr) {
		l.dcFill(lineAddr)
		op.dataAt = now + uint64(l.cfg.DCacheLatency) + 1
		op.state = opWaitData
		return
	}
	// Primary miss: probe the stream buffers.
	l.stats.DPrefetchProbes++
	res, readyAt := l.pfu.Probe(now, lineAddr)
	switch res {
	case prefetch.Present:
		l.stats.DPrefetchHits++
		// Transfer the line from the stream buffer into the data
		// cache over the data busses.
		l.dcFill(lineAddr)
		l.fillPort(now)
		op.dataAt = now + 1 + uint64(l.biu.Config().LineTransfer)
		op.state = opWaitData
		return
	case prefetch.Pending:
		l.stats.DPrefetchHits++
		arr := readyAt
		if arr < now {
			arr = now
		}
		l.dcFill(lineAddr) // tag installed when the fill lands
		l.fillPort(arr)
		op.dataAt = arr + 1
		op.state = opWaitData
		return
	}
	// Full miss: allocate a stream buffer for the successor line and
	// fetch the demanded line through the BIU.
	l.pfu.AllocateOnMiss(now, lineAddr)
	if _, ok := l.biu.Read(now, lineAddr, l, uint64(op.poolIdx)); ok {
		op.state = opWaitBIU
		op.biuInFlight = true
		return
	}
	// BIU full: retry the port access next cycle.
	op.startAt = now + 1
}

// LineArrived implements mem.ReadClient: a demand-missed line lands in the
// data cache; the waiting op (identified by its pool slot in the tag)
// completes at the arrival cycle. An op in opWaitBIU holds its MSHR and
// pool slot until it finishes, so the tag can never be stale.
func (l *LSU) LineArrived(arrival uint64, lineAddr uint32, tag uint64) {
	op := &l.pool[tag]
	l.dcFill(lineAddr)
	l.fillPort(arrival)
	op.dataAt = arrival
	op.state = opWaitData
}

// dcFill installs a line in the data cache, salvaging the displaced line
// into the victim cache when one is configured.
//
//aurora:hotpath
func (l *LSU) dcFill(lineAddr uint32) {
	if ev, had := l.dc.Fill(lineAddr); had {
		l.vc.Insert(ev)
	}
}

// fillPort models the data busses being held to fill a cache line —
// the paper's "LSU stall when the LSU ... is using the data busses to fill
// the cache".
//
//aurora:hotpath
func (l *LSU) fillPort(now uint64) {
	l.portFreeAt = max(l.portFreeAt, now+uint64(l.biu.Config().LineTransfer))
}

// finish completes op at cycle t.
//
//aurora:hotpath
func (l *LSU) finish(op *MemOp, t uint64) {
	op.state = opDone
	l.mshr.Release()
	if l.OnComplete != nil {
		l.OnComplete(op, t)
	}
}

// WarmFill installs the line holding addr in the data cache — victim-cache
// salvage included, so warm contents match what demand fills would have
// left — without touching access or miss counters, the MSHRs, the write
// cache, or the port clock. This is the functional warm-up path of
// fast-forwarded execution: loads install the line directly; stores install
// it too, standing in for the write-cache eviction that would have filled it
// in the detailed model.
//
//aurora:hotpath
func (l *LSU) WarmFill(addr uint32) { l.dcFill(addr) }

// FlushWriteCache drains dirty write-cache lines at the end of a run so the
// transaction statistics are complete.
func (l *LSU) FlushWriteCache(now uint64) {
	for range l.wc.Flush() {
		l.biu.Write(now)
	}
}
