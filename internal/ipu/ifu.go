package ipu

import (
	"math"
	"math/bits"

	"aurora/internal/bpred"
	"aurora/internal/cache"
	"aurora/internal/isa"
	"aurora/internal/mem"
	"aurora/internal/obs"
	"aurora/internal/prefetch"
	"aurora/internal/trace"
)

// IFUConfig parameterises the instruction fetch unit.
type IFUConfig struct {
	ICacheBytes int
	LineBytes   int
	FetchQueue  int // decoded-instruction buffer between fetch and issue

	// DisableBranchFolding makes every taken control transfer pay a
	// one-cycle fetch bubble (no pre-decoded NEXT field).
	DisableBranchFolding bool

	// BPred selects a branch direction predictor. The zero (folding)
	// config keeps the paper's free-folding fetch path byte-identical;
	// any other kind routes conditional branches through the predictor,
	// charging BPred.MispredictPenalty redirect-bubble cycles per
	// mispredict (see fetch).
	BPred bpred.Config
}

// FetchedInstr is a copy of one fetch-queue entry, as Queue returns it
// (tests and debugging; issue reads the ring in place through QueueHead
// and HeadRedirect).
type FetchedInstr struct {
	Rec trace.Record
	// Redirect marks the architectural delay slot of a mispredicted
	// branch: the branch resolves when it executes, so once this
	// instruction issues, issue must stall for the configured redirect
	// penalty before the (squashed-and-refetched) successor may proceed.
	Redirect bool
}

// IFUStats counts fetch activity.
type IFUStats struct {
	IPrefetchProbes uint64
	IPrefetchHits   uint64
	// DelaySlotCrossings counts taken control transfers whose
	// architectural delay slot lies on the next cache line — the §2.4
	// complication (both the slot and the target address must be held
	// while the slot's line is fetched).
	DelaySlotCrossings uint64

	// BranchPredicts/BranchMispredicts count conditional branches routed
	// through a configured direction predictor and the subset it got
	// wrong (each wrong one pays the configured redirect bubble). Both
	// stay zero under the default folding front end.
	BranchPredicts    uint64
	BranchMispredicts uint64
}

// IFU is the instruction fetch unit: it walks the dynamic trace, modelling
// the pre-decoded on-chip instruction cache with branch folding. Taken
// branches redirect fetch with no bubble when the branch pair carries a
// valid NEXT field (it always does once the pair is cached — pre-decode
// computes it); register-indirect jumps (JR/JALR) pay one bubble because
// the target comes from the ALU, not the NEXT field.
type IFU struct {
	cfg  IFUConfig
	ic   *cache.TagArray
	pfu  *prefetch.Buffers
	biu  *mem.BIU
	pred bpred.Predictor // nil = paper-faithful free folding

	stream    trace.Stream
	exhausted bool
	// ring holds every record the stream has written and issue has not
	// taken, at absolute positions issued <= fetched <= filled taken
	// modulo its power-of-two length: [issued, fetched) is the fetch
	// queue, [fetched, filled) the lookahead. redirect runs beside it with
	// each delivered slot's Redirect mark. The stream writes each record
	// into its slot once; fetching and issuing only move the counters.
	ring                    []trace.Record
	redirect                []bool
	mask                    int
	issued, fetched, filled int

	fillPending bool
	fillReady   uint64
	bubbleUntil uint64
	// markRedirect is set by a mispredicted branch and transfers to the
	// next delivered instruction (its delay slot), which may land in a
	// later Tick when the branch sat in the pair's odd slot.
	markRedirect bool

	stats IFUStats
}

// NewIFU builds the fetch unit over a dynamic trace stream.
func NewIFU(cfg IFUConfig, biu *mem.BIU, pfu *prefetch.Buffers, stream trace.Stream) *IFU {
	if cfg.LineBytes <= 0 {
		cfg.LineBytes = 32
	}
	if cfg.FetchQueue <= 0 {
		cfg.FetchQueue = 8
	}
	cfg.BPred = cfg.BPred.Normalize()
	size := 1 << bits.Len(uint(cfg.FetchQueue+peekBatch-1))
	return &IFU{
		cfg:      cfg,
		ic:       cache.NewTagArray(cfg.ICacheBytes, cfg.LineBytes),
		pfu:      pfu,
		biu:      biu,
		pred:     bpred.New(cfg.BPred),
		stream:   stream,
		ring:     make([]trace.Record, size),
		redirect: make([]bool, size),
		mask:     size - 1,
	}
}

// peekBatch is the least room the ring keeps for the stream beyond a full
// fetch queue, so a refill asks for a batch of records, not one or two
// (the lookahead the fetch logic needs is only 2 records deep).
const peekBatch = 64

// ICache exposes the instruction cache tag array (stats).
//
//aurora:hotpath
func (f *IFU) ICache() *cache.TagArray { return f.ic }

// SetProbe attaches the observability probe: instruction-cache misses land
// on the "icache" track.
func (f *IFU) SetProbe(p *obs.Probe) { f.ic.SetProbe(p, "icache") }

// Stats returns the fetch counters.
//
//aurora:hotpath
func (f *IFU) Stats() IFUStats { return f.stats }

// QueueLen returns the decoded-instruction buffer occupancy.
//
//aurora:hotpath
func (f *IFU) QueueLen() int { return f.fetched - f.issued }

// QueueHead returns the oldest queued instruction. The queue must be
// non-empty. The pointer stays valid until the next Tick: Consume frees
// the slot but only Tick refills it.
//
//aurora:hotpath
func (f *IFU) QueueHead() *trace.Record { return &f.ring[f.issued&f.mask] }

// HeadRedirect reports the oldest queued instruction's Redirect mark (see
// FetchedInstr.Redirect). The queue must be non-empty.
//
//aurora:hotpath
func (f *IFU) HeadRedirect() bool { return f.redirect[f.issued&f.mask] }

// Queue returns a copy of the decoded-instruction buffer contents in fetch
// order (tests and debugging; the issue path uses QueueHead).
func (f *IFU) Queue() []FetchedInstr {
	out := make([]FetchedInstr, 0, f.QueueLen())
	for i := f.issued; i < f.fetched; i++ {
		out = append(out, FetchedInstr{Rec: f.ring[i&f.mask], Redirect: f.redirect[i&f.mask]})
	}
	return out
}

// Consume removes the first n queue entries (issued instructions).
//
//aurora:hotpath
func (f *IFU) Consume(n int) { f.issued += n }

// Done reports whether the trace is exhausted and the queue drained.
//
//aurora:hotpath
func (f *IFU) Done() bool { return f.exhausted && f.issued == f.filled }

// Reopen clears the end-of-stream latch after the underlying stream has been
// given more records. The sampled simulation mode (internal/sample) closes a
// gated stream to drain the pipeline at the end of a detailed window, fast-
// forwards the VM underneath, then reopens fetch for the next window.
func (f *IFU) Reopen() { f.exhausted = false }

// WarmFill installs the line holding pc in the instruction cache without
// touching access or miss counters, timing state, or the stream buffers —
// the functional warm-up path of fast-forwarded execution.
//
//aurora:hotpath
func (f *IFU) WarmFill(pc uint32) { f.ic.Fill(pc) }

// LineArrived implements mem.ReadClient: the demanded instruction line
// lands in the cache and fetch resumes.
func (f *IFU) LineArrived(arrival uint64, lineAddr uint32, _ uint64) {
	f.ic.Fill(lineAddr)
	f.fillReady = arrival
}

// NextEvent returns the first cycle after now at which Tick could act: a
// pending fill's arrival (math.MaxUint64 until the BIU delivers it) or
// the end of a fetch bubble. A result at or before now+1
// means Tick may act next cycle; math.MaxUint64 also answers while the
// queue has no room for a pair (issue frees it) or the stream is spent.
//
//aurora:hotpath
func (f *IFU) NextEvent(now uint64) uint64 {
	if f.fillPending {
		return f.fillReady
	}
	if f.bubbleUntil > now+1 {
		return f.bubbleUntil
	}
	if f.QueueLen()+2 > f.cfg.FetchQueue || f.exhausted && f.fetched == f.filled {
		return math.MaxUint64
	}
	return now + 1
}

// fill tops the lookahead up to the two records a fetch pair needs, while
// the stream has them, and returns how many are buffered; fetch calls it
// only when fewer than two are, about once per batch. The stream
// writes straight into the free slots after filled, as many as lie
// before the end of the ring or the oldest queued slot.
//
//aurora:hotpath
func (f *IFU) fill() int {
	for f.filled-f.fetched < 2 && !f.exhausted {
		start := f.filled & f.mask
		end := min(len(f.ring), start+len(f.ring)-(f.filled-f.issued))
		n := f.stream.NextBatch(f.ring[start:end])
		if n == 0 {
			f.exhausted = true
			break
		}
		f.filled += n
	}
	return f.filled - f.fetched
}

// Tick fetches up to one instruction pair into the queue. A cycle in a
// fetch bubble or with no room for a pair is decided here, small enough
// to inline into the caller; fetch does the rest.
//
//aurora:hotpath
func (f *IFU) Tick(now uint64) {
	if f.fillPending || f.bubbleUntil <= now && f.QueueLen()+2 <= f.cfg.FetchQueue {
		f.fetch(now)
	}
}

//aurora:hotpath
func (f *IFU) fetch(now uint64) {
	if f.fillPending {
		if f.fillReady > now {
			return
		}
		f.fillPending = false
	}
	if f.bubbleUntil > now || f.QueueLen()+2 > f.cfg.FetchQueue {
		return // a fetch bubble, or no room for a full pair this cycle
	}
	buffered := f.filled - f.fetched
	if buffered < 2 {
		buffered = f.fill()
	}
	if buffered == 0 {
		return
	}
	head := &f.ring[f.fetched&f.mask]

	// Probe the instruction cache for the line holding the next pair.
	if !f.ic.Lookup(head.PC) {
		lineAddr := f.ic.LineAddr(head.PC)
		f.stats.IPrefetchProbes++
		res, readyAt := f.pfu.Probe(lineAddr)
		switch res {
		case prefetch.Present:
			f.stats.IPrefetchHits++
			f.ic.Fill(lineAddr)
			// One cycle to move the line from the buffer into the
			// cache; fetch resumes next cycle.
			f.fillPending = true
			f.fillReady = now + 1
		case prefetch.Pending:
			f.stats.IPrefetchHits++
			f.ic.Fill(lineAddr)
			f.fillPending = true
			if readyAt < now {
				readyAt = now
			}
			f.fillReady = readyAt + 1
		default:
			f.pfu.AllocateOnMiss(lineAddr)
			if _, okr := f.biu.Read(now, lineAddr, f, 0); okr {
				f.fillPending = true
				f.fillReady = ^uint64(0) // set by LineArrived
			}
			// BIU full: retry next cycle (fill not pending).
		}
		return
	}

	// Hit: deliver the instruction, and its pair partner when the dynamic
	// successor really is the other half of the aligned pair. The records
	// are already in their queue slots; delivery moves the boundary.
	n := 1
	if buffered > 1 && head.PC%8 == 0 && f.ring[(f.fetched+1)&f.mask].PC == head.PC+4 {
		n = 2
	}
	f.fetched += n

	// One scan over the delivered pair, in fetch order; either half can be
	// the control instruction (a branch in the even slot has its delay slot
	// in the odd slot). With a direction predictor configured, a
	// conditional branch consults it: a correct prediction redirects for
	// free (the pre-decoded NEXT field supplies the target, the predictor
	// the direction); a mispredict charges the configured redirect bubble,
	// and its delay slot carries the issue-side squash mark. The trace is
	// always the correct path, so only the penalty is modelled; the
	// predictor's speculative history is squashed at each mispredict via
	// Recover and retrained in program order via Update. Every other
	// control transfer folds free, except that a register-indirect jump
	// pays one bubble (the NEXT field cannot hold a register value) and,
	// with branch folding disabled (ablation), so does every taken one. The
	// delay slot is still fetched sequentially; the bubble hits the target.
	for k := f.fetched - n; k < f.fetched; k++ {
		rec := &f.ring[k&f.mask]
		f.redirect[k&f.mask] = f.markRedirect
		f.markRedirect = false
		if !rec.SI.Class.IsControl() {
			continue
		}
		if rec.Taken && f.ic.LineAddr(rec.PC) != f.ic.LineAddr(rec.PC+4) {
			f.stats.DelaySlotCrossings++
		}
		var until uint64
		if f.pred != nil && rec.SI.Class == isa.ClassBranch {
			f.stats.BranchPredicts++
			if f.pred.Predict(rec.PC, rec.Target) != rec.Taken {
				f.stats.BranchMispredicts++
				f.pred.Recover()
				// The wrong-path fetch hole: fetch stalls while the
				// machine runs down the mispredicted path, then the delay
				// slot (the next delivered instruction) carries the
				// resolution redirect (see FetchedInstr.Redirect).
				until = now + 1 + uint64(f.cfg.BPred.MispredictPenalty)
				f.markRedirect = true
			}
			f.pred.Update(rec.PC, rec.Taken)
		} else if rec.SI.In.Op == isa.OpJR || rec.SI.In.Op == isa.OpJALR ||
			f.cfg.DisableBranchFolding && rec.Taken {
			until = now + 2
		}
		f.bubbleUntil = max(f.bubbleUntil, until)
	}
}
