package ipu

import (
	"math"

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

// FetchedInstr is a decoded instruction waiting to issue.
type FetchedInstr struct {
	Rec trace.Record
	// PairHead marks an even (8-byte aligned) instruction whose dynamic
	// successor is its pair partner — the dual-issue candidate condition
	// computed during pre-decode (paper Figure 3).
	PairHead bool
	// DepOnPrev is the DI bit: a true dependence on the immediately
	// preceding instruction, prohibiting dual issue of the pair.
	DepOnPrev bool
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
	peeked    []trace.Record // lookahead window; consumed via peekPos
	peekPos   int            // first unconsumed record in peeked

	queue []FetchedInstr // ring buffer of cfg.FetchQueue entries
	qHead int
	qLen  int

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
	return &IFU{
		cfg:    cfg,
		ic:     cache.NewTagArray(cfg.ICacheBytes, cfg.LineBytes),
		pfu:    pfu,
		biu:    biu,
		pred:   bpred.New(cfg.BPred),
		stream: stream,
		peeked: make([]trace.Record, 0, peekBatch+2),
		queue:  make([]FetchedInstr, cfg.FetchQueue),
	}
}

// peekBatch is how many records the stream delivers per refill; the peek
// buffer's capacity is fixed at construction so refills never grow it (the
// lookahead the fetch logic needs is only 2 records deep).
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
func (f *IFU) QueueLen() int { return f.qLen }

// QueueHead returns the oldest queued instruction. The queue must be
// non-empty. The pointer stays valid until the next Tick: Consume frees
// the slot but only Tick refills it.
//
//aurora:hotpath
func (f *IFU) QueueHead() *FetchedInstr { return &f.queue[f.qHead] }

// Queue returns a copy of the decoded-instruction buffer contents in fetch
// order (tests and debugging; the issue path uses QueueHead).
func (f *IFU) Queue() []FetchedInstr {
	out := make([]FetchedInstr, f.qLen)
	for i := range out {
		out[i] = f.queue[f.slot(i)]
	}
	return out
}

// Consume removes the first n queue entries (issued instructions).
//
//aurora:hotpath
func (f *IFU) Consume(n int) {
	f.qHead = f.slot(n)
	f.qLen -= n
}

// slot returns the ring index of the k-th queued entry, 0 <= k <= qLen,
// wrapping with a compare instead of a divide.
//
//aurora:hotpath
func (f *IFU) slot(k int) int {
	i := f.qHead + k
	if i >= len(f.queue) {
		i -= len(f.queue)
	}
	return i
}

// push appends an entry to the ring and returns it for the caller to fill.
//
//aurora:hotpath
func (f *IFU) push() *FetchedInstr {
	fi := &f.queue[f.slot(f.qLen)]
	f.qLen++
	return fi
}

// Done reports whether the trace is exhausted and the queue drained.
//
//aurora:hotpath
func (f *IFU) Done() bool {
	return f.exhausted && f.peekPos >= len(f.peeked) && f.qLen == 0
}

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
	if f.qLen+2 > f.cfg.FetchQueue || f.exhausted && f.peekPos >= len(f.peeked) {
		return math.MaxUint64
	}
	return now + 1
}

// fill tops the lookahead window up to the two records a fetch pair needs,
// while the stream has them, and returns how many are buffered. Refilling
// compacts the window, so it runs before any pointer into it is taken.
//
//aurora:hotpath
func (f *IFU) fill() int {
	for len(f.peeked)-f.peekPos < 2 && !f.exhausted {
		// Compact the (at most one) unconsumed record to the front before
		// refilling, so the window never grows past its fixed capacity.
		rem := copy(f.peeked, f.peeked[f.peekPos:])
		f.peeked = f.peeked[:rem]
		f.peekPos = 0
		n := f.stream.NextBatch(f.peeked[rem:cap(f.peeked)])
		if n == 0 {
			f.exhausted = true
			break
		}
		f.peeked = f.peeked[:rem+n]
	}
	return len(f.peeked) - f.peekPos
}

// advance consumes n peeked records — a cursor bump, no data movement.
//
//aurora:hotpath
func (f *IFU) advance(n int) {
	f.peekPos += n
}

// Tick fetches up to one instruction pair into the queue. A cycle in a
// fetch bubble or with no room for a pair is decided here, small enough
// to inline into the caller; fetch does the rest.
//
//aurora:hotpath
func (f *IFU) Tick(now uint64) {
	if f.fillPending || f.bubbleUntil <= now && f.qLen+2 <= f.cfg.FetchQueue {
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
	if f.bubbleUntil > now || f.qLen+2 > f.cfg.FetchQueue {
		return // a fetch bubble, or no room for a full pair this cycle
	}
	buffered := f.fill()
	if buffered == 0 {
		return
	}
	head := &f.peeked[f.peekPos]

	// Probe the instruction cache for the line holding the next pair.
	if !f.ic.Lookup(head.PC) {
		lineAddr := f.ic.LineAddr(head.PC)
		f.stats.IPrefetchProbes++
		res, readyAt := f.pfu.Probe(now, lineAddr)
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
			f.pfu.AllocateOnMiss(now, lineAddr)
			if _, okr := f.biu.Read(now, lineAddr, f, 0); okr {
				f.fillPending = true
				f.fillReady = ^uint64(0) // set by LineArrived
			}
			// BIU full: retry next cycle (fill not pending).
		}
		return
	}

	// Hit: deliver the instruction, and its pair partner when the dynamic
	// successor really is the other half of the aligned pair.
	var second *trace.Record
	if buffered > 1 {
		second = &f.peeked[f.peekPos+1]
	}
	pair := second != nil && head.PC%8 == 0 && second.PC == head.PC+4
	*f.push() = FetchedInstr{Rec: *head, PairHead: pair}
	n := 1
	if pair {
		*f.push() = FetchedInstr{
			Rec:       *second,
			DepOnPrev: second.SI.Deps.DependsOn(head.SI.Deps),
		}
		n = 2
	}
	f.advance(n)

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
	for k := f.qLen - n; k < f.qLen; k++ {
		fi := &f.queue[f.slot(k)]
		rec := &fi.Rec
		if f.markRedirect {
			fi.Redirect = true
			f.markRedirect = false
		}
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
