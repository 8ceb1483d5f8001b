// Package prefetch implements the Aurora III Prefetch Unit: a shared pool of
// Jouppi-style stream buffers that fetch sequential cache lines ahead of the
// instruction and data reference streams (paper §2.2).
//
// Policy, following the paper exactly: on each primary-cache miss that also
// misses the stream buffers, a buffer is allocated (LRU) and initialised to
// fetch the *next* sequential line — one line only. When a later miss hits in
// a buffer, the line is transferred to the primary cache and the buffer
// escalates, fetching further sequential lines until it is full.
package prefetch

import (
	"math"

	"aurora/internal/mem"
	"aurora/internal/obs"
)

// Fetcher abstracts the BIU read path the buffers use for their prefetches.
type Fetcher interface {
	// SpareForPrefetch reports whether the memory system has transaction
	// slots to spare beyond what demand traffic may need imminently;
	// the prefetcher yields when it does not.
	SpareForPrefetch() bool
	// CanAccept reports whether a read transaction can be buffered.
	CanAccept() bool
	// Read starts a line read; the client's LineArrived fires (with tag
	// echoed back) when the line arrives. The returned cycle is the
	// completion time; ok is false if the request could not be accepted.
	Read(now uint64, lineAddr uint32, client mem.ReadClient, tag uint64) (completeAt uint64, ok bool)
}

// ProbeResult describes the outcome of a stream-buffer probe.
type ProbeResult int

// Probe outcomes.
const (
	// Miss: the line is in no buffer.
	Miss ProbeResult = iota
	// Present: the line has fully arrived in a buffer.
	Present
	// Pending: the line has been requested and is still in flight.
	Pending
)

type slot struct {
	lineAddr uint32
	state    uint8 // 0 empty, 1 pending, 2 present
	readyAt  uint64
}

const (
	slotEmpty = iota
	slotPending
	slotPresent
)

type buffer struct {
	valid    bool
	next     uint32 // line address the next prefetch will request
	slots    []slot // fixed backing array, reused across reallocations
	used     int    // slots not in slotEmpty (kept incrementally)
	lru      uint64
	escalate bool // a hit occurred: keep fetching until full
	gen      uint64
}

// Buffers is the stream-buffer pool shared by the I and D streams. It keeps
// no counters: the fetch and load/store units count their own probes and
// hits (a prefetch hit is a primary miss that hits a stream buffer), and
// its prefetch reads are BIU transactions.
type Buffers struct {
	enabled   bool
	lineBytes uint32
	depth     int
	bufs      []buffer
	clock     uint64
	genCtr    uint64

	// idle latches Tick's finding that no valid buffer wants a line. Only
	// a Probe hit (which consumes slots and escalates) or AllocateOnMiss
	// can make a buffer want one again, so they clear it; until then Tick
	// skips the scan. A disabled pool is idle for good.
	idle bool

	probe *obs.Probe
}

// SetProbe attaches the observability probe: stream-buffer hits,
// allocations and issued prefetches emit events on the "pfu" track.
func (p *Buffers) SetProbe(pr *obs.Probe) { p.probe = pr }

// New creates a pool of n buffers, each holding depth lines.
// n = 0 disables prefetching entirely (the Figure 5 ablation).
func New(n, depth, lineBytes int) *Buffers {
	if depth < 1 {
		depth = 1
	}
	p := &Buffers{
		enabled:   n > 0,
		idle:      n == 0,
		lineBytes: uint32(lineBytes),
		depth:     depth,
		bufs:      make([]buffer, n),
	}
	for i := range p.bufs {
		p.bufs[i].slots = make([]slot, depth)
	}
	return p
}

// Enabled reports whether the unit is active.
func (p *Buffers) Enabled() bool { return p.enabled }

// Probe checks the buffers for lineAddr after a primary-cache miss.
// Following Jouppi's design, only the first two slots of each buffer are
// comparable (the head comparator, with one slot of skew tolerance for
// lines consumed out of lock-step) — a stream that jumps further ahead
// misses and reallocates, which is what makes a small shared pool thrash
// between the instruction and data streams (paper §5.2).
// On Present, the line is consumed (transferred toward the primary cache)
// and the owning buffer escalates its fetch-ahead. On Pending, readyAt is
// the cycle the line will have arrived, and the slot is consumed as of then.
//
//aurora:hotpath
func (p *Buffers) Probe(lineAddr uint32) (ProbeResult, uint64) {
	if !p.enabled {
		return Miss, 0
	}
	for i := range p.bufs {
		b := &p.bufs[i]
		if !b.valid {
			continue
		}
		comparable := 2
		if len(b.slots) < comparable {
			comparable = len(b.slots)
		}
		for j := 0; j < comparable; j++ {
			s := &b.slots[j]
			if s.state == slotEmpty || s.lineAddr != lineAddr {
				continue
			}
			p.clock++
			p.idle = false
			b.lru = p.clock
			b.escalate = true
			var ready uint64
			res := Present
			if s.state == slotPending {
				res = Pending
				ready = s.readyAt
			}
			if p.probe != nil {
				if res == Pending {
					p.probe.Instant("prefetch", "pending-hit", "pfu", uint64(lineAddr))
				} else {
					p.probe.Instant("prefetch", "hit", "pfu", uint64(lineAddr))
				}
			}
			// Consume this slot and everything before it (the
			// stream has advanced past them).
			for k := 0; k <= j; k++ {
				if b.slots[k].state != slotEmpty {
					b.used--
				}
			}
			copy(b.slots, b.slots[j+1:])
			for k := len(b.slots) - (j + 1); k < len(b.slots); k++ {
				b.slots[k] = slot{}
			}
			return res, ready
		}
	}
	return Miss, 0
}

// AllocateOnMiss resets the LRU buffer to stream from the line after missAddr.
// Following the paper, the new buffer fetches a single line immediately
// (via Tick) and does not run ahead until it sees a hit.
//
//aurora:hotpath
func (p *Buffers) AllocateOnMiss(missLineAddr uint32) {
	if !p.enabled {
		return
	}
	victim := &p.bufs[0]
	for i := range p.bufs {
		if !p.bufs[i].valid {
			victim = &p.bufs[i]
			break
		}
		if p.bufs[i].lru < victim.lru {
			victim = &p.bufs[i]
		}
	}
	p.clock++
	p.genCtr++
	for i := range victim.slots {
		victim.slots[i] = slot{}
	}
	victim.valid = true
	victim.next = missLineAddr + p.lineBytes
	victim.used = 0
	victim.lru = p.clock
	victim.escalate = false
	victim.gen = p.genCtr
	p.idle = false
	if p.probe != nil {
		p.probe.Instant("prefetch", "alloc", "pfu", uint64(missLineAddr))
	}
}

// Tick issues at most one prefetch request per cycle, using spare bus
// bandwidth only. Call once per cycle. The idle test inlines into the
// caller.
//
//aurora:hotpath
func (p *Buffers) Tick(now uint64, f Fetcher) {
	if !p.idle {
		p.tick(now, f)
	}
}

//aurora:hotpath
func (p *Buffers) tick(now uint64, f Fetcher) {
	if !f.SpareForPrefetch() || !f.CanAccept() {
		return
	}
	// Pick the most recently used buffer that wants a line: fresh
	// allocations want exactly one line; escalated buffers fill up.
	bi := -1
	for i := range p.bufs {
		b := &p.bufs[i]
		if !b.valid || !p.wantsFetch(b) {
			continue
		}
		if bi < 0 || b.lru > p.bufs[bi].lru {
			bi = i
		}
	}
	if bi < 0 {
		p.idle = true
		return
	}
	best := &p.bufs[bi]
	// Find the first empty slot.
	idx := -1
	for j := range best.slots {
		if best.slots[j].state == slotEmpty {
			idx = j
			break
		}
	}
	if idx < 0 {
		return
	}
	lineAddr := best.next
	doneAt, ok := f.Read(now, lineAddr, p, fillTag(bi, idx, best.gen))
	if !ok {
		return
	}
	best.slots[idx] = slot{lineAddr: lineAddr, state: slotPending, readyAt: doneAt}
	best.used++
	best.next += p.lineBytes
	if p.probe != nil {
		p.probe.Span(doneAt-now, "prefetch", "fetch", "pfu", uint64(lineAddr))
	}
}

// NextEvent returns now+1 when Tick could issue a prefetch or latch idle
// next cycle, and math.MaxUint64 when the pool is idle or waits for f to
// spare a transaction slot (a BIU completion, the BIU's own event).
//
//aurora:hotpath
func (p *Buffers) NextEvent(now uint64, f Fetcher) uint64 {
	if p.idle || !f.SpareForPrefetch() || !f.CanAccept() {
		return math.MaxUint64
	}
	return now + 1
}

//aurora:hotpath
func (p *Buffers) wantsFetch(b *buffer) bool {
	if b.escalate {
		return b.used < len(b.slots)
	}
	return b.used == 0 // fresh buffer: fetch exactly one line
}

// fillTag packs the target (buffer, slot, generation) of an in-flight
// prefetch into the BIU read tag: the generation guards against the buffer
// being reallocated while the line was in flight.
//
//aurora:hotpath
func fillTag(buf, slot int, gen uint64) uint64 {
	return uint64(buf) | uint64(slot)<<8 | gen<<16
}

// LineArrived implements mem.ReadClient: a prefetched line lands in its
// slot, unless the owning buffer has since been reallocated (generation
// mismatch) — the fill is then dropped, modelling the wasted fetch.
func (p *Buffers) LineArrived(done uint64, lineAddr uint32, tag uint64) {
	bi := int(tag & 0xff)
	sl := int(tag >> 8 & 0xff)
	gen := tag >> 16
	if bi >= len(p.bufs) {
		return
	}
	b := &p.bufs[bi]
	if !b.valid || b.gen != gen || sl >= len(b.slots) {
		return
	}
	s := &b.slots[sl]
	if s.state == slotPending && s.lineAddr == lineAddr {
		s.state = slotPresent
		s.readyAt = done
	}
}

// Note: Probe consumes slots by shifting; in-flight fills identify their
// slot by generation + position, so a consume between request and fill can
// orphan a fill. That models the real race (the line arrives after the
// stream moved on) and simply wastes the fetch.
