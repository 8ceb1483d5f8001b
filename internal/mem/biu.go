// Package mem models the Aurora III secondary memory system as seen through
// the Bus Interface Unit (BIU): a split-transaction interface to the off-chip
// MMU with buffered requests, configurable average access latency (the
// paper's 17- and 35-cycle design points), and serialised line transfers over
// the shared data bus. Latencies of concurrent reads overlap (split
// transactions); bus occupancy does not.
package mem

import (
	"math"

	"aurora/internal/obs"
)

// Config parameterises the memory system.
type Config struct {
	// Latency is the average secondary-memory access time in cycles from
	// request to first data (17 or 35 in the paper's studies).
	Latency int
	// LineTransfer is the bus occupancy in cycles to move one cache line
	// (32 bytes over the 32-bit double-clocked bus ≈ 4 cycles).
	LineTransfer int
	// MaxOutstanding bounds the number of in-flight read transactions
	// (the depth of the BIU transmit/receive queues).
	MaxOutstanding int
}

// DefaultConfig returns the paper's medium-clock-rate memory system.
func DefaultConfig() Config {
	return Config{Latency: 17, LineTransfer: 4, MaxOutstanding: 8}
}

// Stats counts BIU traffic.
type Stats struct {
	Reads        uint64
	Writes       uint64
	BusBusy      uint64 // cycles of bus occupancy accumulated
	ReadLatency  uint64 // total request→data latency over all reads
	PeakInflight int
}

// ReadClient receives line-read completions from the BIU. The tag is the
// opaque value supplied to Read, letting a client with several outstanding
// transactions route the fill without a per-request closure (the hot loop
// stays allocation-free).
type ReadClient interface {
	LineArrived(now uint64, lineAddr uint32, tag uint64)
}

// FuncClient adapts a plain function to ReadClient (tests and tools; the
// simulator's hot path uses struct clients to avoid the closure allocation).
type FuncClient func(now uint64, lineAddr uint32, tag uint64)

// LineArrived calls the wrapped function.
func (f FuncClient) LineArrived(now uint64, lineAddr uint32, tag uint64) { f(now, lineAddr, tag) }

type pending struct {
	doneAt   uint64
	issued   uint64
	lineAddr uint32
	tag      uint64
	client   ReadClient
}

// BIU is the bus interface unit.
type BIU struct {
	cfg   Config
	stats Stats

	// LatencyFor, when non-nil, supplies the access latency for a line
	// read (an MMU / secondary-cache model); nil uses the flat average.
	LatencyFor func(lineAddr uint32) int

	busFreeAt uint64
	inflight  []pending // reads awaiting completion, doneAt ascending
	scratch   []pending // Tick's completion batch, reused across cycles

	probe *obs.Probe
}

// SetProbe attaches the observability probe (nil disables).
func (b *BIU) SetProbe(p *obs.Probe) { b.probe = p }

// New creates a BIU.
func New(cfg Config) *BIU {
	if cfg.Latency <= 0 {
		cfg.Latency = 17
	}
	if cfg.LineTransfer <= 0 {
		cfg.LineTransfer = 4
	}
	if cfg.MaxOutstanding <= 0 {
		cfg.MaxOutstanding = 8
	}
	return &BIU{
		cfg:      cfg,
		inflight: make([]pending, 0, cfg.MaxOutstanding),
		scratch:  make([]pending, 0, cfg.MaxOutstanding),
	}
}

// Config returns the active configuration.
//
//aurora:hotpath
func (b *BIU) Config() Config { return b.cfg }

// Stats returns a copy of the accumulated statistics.
//
//aurora:hotpath
func (b *BIU) Stats() Stats { return b.stats }

// CanAccept reports whether a new read transaction can be buffered.
//
//aurora:hotpath
func (b *BIU) CanAccept() bool { return len(b.inflight) < b.cfg.MaxOutstanding }

// Busy reports whether the data bus is occupied at the given cycle.
func (b *BIU) Busy(now uint64) bool { return b.busFreeAt > now }

// SpareForPrefetch reports whether the BIU can take a speculative read
// without starving demand traffic: it keeps two transaction slots in
// reserve. The bus itself pipelines transfers, so mere bus occupancy does
// not block prefetching.
func (b *BIU) SpareForPrefetch() bool {
	return len(b.inflight) <= b.cfg.MaxOutstanding-2
}

// OutstandingReads returns the number of in-flight read transactions.
func (b *BIU) OutstandingReads() int { return len(b.inflight) }

// Read starts a line-read transaction for lineAddr at cycle now. The
// client's LineArrived fires from Tick, with tag echoed back, when the line
// has fully arrived. The returned cycle is the (deterministic) completion
// time; ok is false (and nothing happens) when the transaction buffers are
// full.
//
//aurora:hotpath
func (b *BIU) Read(now uint64, lineAddr uint32, client ReadClient, tag uint64) (completeAt uint64, ok bool) {
	if !b.CanAccept() {
		return 0, false
	}
	// Access latency overlaps across transactions; the return transfer
	// serialises on the bus.
	lat := b.cfg.Latency
	if b.LatencyFor != nil {
		lat = b.LatencyFor(lineAddr)
	}
	ready := now + uint64(lat)
	start := ready
	if b.busFreeAt > start {
		start = b.busFreeAt
	}
	done := start + uint64(b.cfg.LineTransfer)
	b.busFreeAt = done
	b.stats.Reads++
	b.stats.BusBusy += uint64(b.cfg.LineTransfer)
	b.stats.ReadLatency += done - now
	b.insert(pending{doneAt: done, issued: now, lineAddr: lineAddr, tag: tag, client: client})
	if len(b.inflight) > b.stats.PeakInflight {
		b.stats.PeakInflight = len(b.inflight)
	}
	if b.probe != nil {
		b.probe.SpanAt(now, done-now, "mem", "read", "biu", uint64(lineAddr))
		b.probe.Counter("mem", "biu-inflight", uint64(len(b.inflight)))
	}
	return done, true
}

// Write starts a line-write transaction (write-cache eviction). Writes are
// fire-and-forget: they consume bus bandwidth but nothing waits on them.
//
//aurora:hotpath
func (b *BIU) Write(now uint64) {
	start := now
	if b.busFreeAt > start {
		start = b.busFreeAt
	}
	b.busFreeAt = start + uint64(b.cfg.LineTransfer)
	b.stats.Writes++
	b.stats.BusBusy += uint64(b.cfg.LineTransfer)
	if b.probe != nil {
		b.probe.SpanAt(start, uint64(b.cfg.LineTransfer), "mem", "write", "biu", 0)
	}
}

//aurora:hotpath
func (b *BIU) insert(p pending) {
	// Read admits at most MaxOutstanding transactions, the capacity New
	// gives inflight: the reslice stays within it (and panics if that ever
	// breaks).
	i := len(b.inflight)
	b.inflight = b.inflight[:i+1]
	for i > 0 && b.inflight[i-1].doneAt > p.doneAt {
		b.inflight[i] = b.inflight[i-1]
		i--
	}
	b.inflight[i] = p
}

// Tick fires the completion callbacks of all reads that have finished by
// cycle now. Call once per cycle before the consumers tick. The test for
// a due read inlines into the caller; deliver does the rest.
//
//aurora:hotpath
func (b *BIU) Tick(now uint64) {
	if len(b.inflight) != 0 && b.inflight[0].doneAt <= now {
		b.deliver(now)
	}
}

//aurora:hotpath
func (b *BIU) deliver(now uint64) {
	n := 0
	for n < len(b.inflight) && b.inflight[n].doneAt <= now {
		n++
	}
	// Move the completed batch aside before firing notifications, so a
	// client issuing a new read from LineArrived cannot disturb the walk.
	// scratch has inflight's capacity, so the batch always fits.
	b.scratch = b.scratch[:n]
	copy(b.scratch, b.inflight)
	b.inflight = b.inflight[:copy(b.inflight, b.inflight[n:])]
	if b.probe != nil {
		b.probe.Counter("mem", "biu-inflight", uint64(len(b.inflight)))
	}
	for i := range b.scratch {
		p := &b.scratch[i]
		p.client.LineArrived(now, p.lineAddr, p.tag)
	}
}

// NextEvent returns the cycle the oldest in-flight read completes — the
// next cycle Tick has work — or math.MaxUint64 with none in flight.
//
//aurora:hotpath
func (b *BIU) NextEvent() uint64 {
	if len(b.inflight) == 0 {
		return math.MaxUint64
	}
	return b.inflight[0].doneAt
}

// AvgReadLatency returns the mean request→data latency observed so far.
func (s Stats) AvgReadLatency() float64 {
	if s.Reads == 0 {
		return 0
	}
	return float64(s.ReadLatency) / float64(s.Reads)
}
