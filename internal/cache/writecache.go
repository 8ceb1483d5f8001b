package cache

import "aurora/internal/obs"

// WriteCache is the LSU's fully-associative coalescing write buffer
// (paper §2.3, after Jouppi's write-cache proposal). Stores deposit words
// into lines of eight words; repeated stores to the same line coalesce into
// a single BIU transaction when the line is eventually evicted (LRU).
// Loads are also checked against it — the hit rate the paper reports in
// Table 5 counts both load and store accesses.
//
// The write cache doubles as a four-entry micro-TLB for write validation:
// a store whose page matches a resident line's page is known not to fault
// (the MMU is off-chip; querying it per store would take many cycles).
type WriteCache struct {
	lineBytes int
	pageBits  uint
	lines     []wcLine
	clock     uint64

	accesses       uint64
	hits           uint64
	loadAccesses   uint64
	loadHits       uint64
	stores         uint64
	transactions   uint64 // evictions of dirty lines = BIU write transactions
	pageMatches    uint64 // stores validated by the micro-TLB page check
	pageMissChecks uint64 // stores that would have required an MMU query

	probe *obs.Probe
}

// SetProbe attaches the observability probe: dirty-line evictions (BIU
// write transactions) emit instants on the "wc" track.
func (w *WriteCache) SetProbe(p *obs.Probe) { w.probe = p }

type wcLine struct {
	valid bool
	tag   uint32 // line address
	mask  uint32 // per-word presence bits
	lru   uint64
}

// Eviction describes a dirty line pushed out to the BIU.
type Eviction struct {
	LineAddr uint32
	Words    int // number of valid words coalesced in the transaction
}

// NewWriteCache creates a write cache of n lines of lineBytes each
// (the Aurora III uses 8-word = 32-byte lines).
func NewWriteCache(n, lineBytes int) *WriteCache {
	if n < 1 {
		n = 1
	}
	if lineBytes <= 0 || lineBytes&(lineBytes-1) != 0 {
		//aurora:allow(panic, construction-time config validation; runs before any cycle is simulated)
		panic("cache: write cache line size must be a power of two")
	}
	return &WriteCache{
		lineBytes: lineBytes,
		pageBits:  12,
		lines:     make([]wcLine, n),
	}
}

//aurora:hotpath
func (w *WriteCache) lineAddr(addr uint32) uint32 {
	return addr &^ uint32(w.lineBytes-1)
}

//aurora:hotpath
func (w *WriteCache) wordBit(addr uint32) uint32 {
	return 1 << (addr & uint32(w.lineBytes-1) >> 2)
}

//aurora:hotpath
func (w *WriteCache) find(lineAddr uint32) *wcLine {
	for i := range w.lines {
		if w.lines[i].valid && w.lines[i].tag == lineAddr {
			return &w.lines[i]
		}
	}
	return nil
}

// Store deposits a store's word into the write cache. It returns whether
// the store hit a resident line; evicted reports that allocating a line
// displaced a dirty victim (one coalesced BIU write transaction), described
// by ev. The eviction travels by value so the store path never allocates.
//
//aurora:hotpath
func (w *WriteCache) Store(addr uint32) (hit bool, ev Eviction, evicted bool) {
	w.clock++
	w.accesses++
	w.stores++
	la := w.lineAddr(addr)

	// Micro-TLB write validation: does any resident line share the page?
	pageMatch := false
	for i := range w.lines {
		if w.lines[i].valid && w.lines[i].tag>>w.pageBits == addr>>w.pageBits {
			pageMatch = true
			break
		}
	}
	if pageMatch {
		w.pageMatches++
	} else {
		w.pageMissChecks++
	}

	if l := w.find(la); l != nil {
		w.hits++
		l.mask |= w.wordBit(addr)
		l.lru = w.clock
		return true, Eviction{}, false
	}
	// Allocate the LRU line.
	victim := &w.lines[0]
	for i := range w.lines {
		if !w.lines[i].valid {
			victim = &w.lines[i]
			break
		}
		if w.lines[i].lru < victim.lru {
			victim = &w.lines[i]
		}
	}
	if victim.valid && victim.mask != 0 {
		ev = Eviction{LineAddr: victim.tag, Words: popcount(victim.mask)}
		evicted = true
		w.transactions++
		if w.probe != nil {
			w.probe.Instant("cache", "wc-evict", "wc", uint64(victim.tag))
		}
	}
	victim.valid = true
	victim.tag = la
	victim.mask = w.wordBit(addr)
	victim.lru = w.clock
	return false, ev, evicted
}

// Load checks whether a load's word is present (store-to-load forwarding
// from the write cache). Counted in the Table 5 hit rate.
//
//aurora:hotpath
func (w *WriteCache) Load(addr uint32) bool {
	w.clock++
	w.accesses++
	w.loadAccesses++
	if l := w.find(w.lineAddr(addr)); l != nil && l.mask&w.wordBit(addr) != 0 {
		w.hits++
		w.loadHits++
		l.lru = w.clock
		return true
	}
	return false
}

// Flush evicts every dirty line (end of run), returning the transactions.
func (w *WriteCache) Flush() []Eviction {
	var evs []Eviction
	for i := range w.lines {
		if w.lines[i].valid && w.lines[i].mask != 0 {
			evs = append(evs, Eviction{LineAddr: w.lines[i].tag, Words: popcount(w.lines[i].mask)})
			w.transactions++
		}
		w.lines[i] = wcLine{}
	}
	return evs
}

//aurora:hotpath
func popcount(v uint32) int {
	n := 0
	for v != 0 {
		v &= v - 1
		n++
	}
	return n
}

// HitRate returns hits/(loads+stores) — the Table 5 metric.
func (w *WriteCache) HitRate() float64 {
	if w.accesses == 0 {
		return 0
	}
	return float64(w.hits) / float64(w.accesses)
}

// Stores returns the store instruction count.
//
//aurora:hotpath
func (w *WriteCache) Stores() uint64 { return w.stores }

// Transactions returns the BIU write transactions issued (§5.5's
// write-traffic metric: transactions/stores = 44%/30%/22% in the paper).
//
//aurora:hotpath
func (w *WriteCache) Transactions() uint64 { return w.transactions }

// TrafficRatio returns transactions per store instruction.
func (w *WriteCache) TrafficRatio() float64 {
	if w.stores == 0 {
		return 0
	}
	return float64(w.transactions) / float64(w.stores)
}

// Hits returns the combined load+store hit count.
//
//aurora:hotpath
func (w *WriteCache) Hits() uint64 { return w.hits }

// Accesses returns the combined load+store access count.
//
//aurora:hotpath
func (w *WriteCache) Accesses() uint64 { return w.accesses }

// PageMatches returns how many stores the micro-TLB validated for free.
//
//aurora:hotpath
func (w *WriteCache) PageMatches() uint64 { return w.pageMatches }

// PageMissChecks returns how many stores needed a (modelled) MMU check.
//
//aurora:hotpath
func (w *WriteCache) PageMissChecks() uint64 { return w.pageMissChecks }
