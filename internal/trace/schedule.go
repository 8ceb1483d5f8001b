package trace

import "aurora/internal/isa"

// Reschedule implements the paper's §6 closing suggestion: "Better compiler
// scheduling could possibly remove some of this penalty" (the load stalls
// caused by the 3-cycle pipelined data cache). It wraps a trace stream and
// list-schedules each basic block the way an instruction scheduler would —
// hoisting loads away from their consumers, sinking dependent operations —
// and re-assigns sequential PCs within the block, modelling a recompiled
// binary of identical code size.
//
// The transformation is timing-only: the functional results were already
// computed by the VM, and the scheduler preserves every dependence the
// timing model observes:
//
//   - true register dependences (RAW), output (WAW) and anti (WAR)
//     dependences on both register files and the FP condition flag;
//   - the relative order of all memory operations (conservative: no
//     alias analysis);
//   - control-flow instructions and their architectural delay slots stay
//     at the block end, in order.
type Reschedule struct {
	inner Stream
	in    []Record // input buffer over inner; in[inPos:] is unread
	inPos int

	block  []Record
	out    []Record
	outPos int
	done   bool
}

// rescheduleInput is how many records Reschedule reads from its inner
// stream per call.
const rescheduleInput = 64

// NewReschedule wraps a stream with the scheduling pass.
func NewReschedule(inner Stream) *Reschedule {
	return &Reschedule{inner: inner, in: make([]Record, 0, rescheduleInput)}
}

// Err proxies the inner stream's error.
func (r *Reschedule) Err() error { return r.inner.Err() }

// NextBatch fills buf with the next rescheduled records.
func (r *Reschedule) NextBatch(buf []Record) int {
	n := 0
	for n < len(buf) {
		if r.outPos >= len(r.out) {
			if !r.fillBlock() {
				break
			}
			r.out = scheduleBlock(r.block)
			r.outPos = 0
		}
		k := copy(buf[n:], r.out[r.outPos:])
		r.outPos += k
		n += k
	}
	return n
}

// next returns the inner stream's next record, refilling the input buffer
// when it runs dry; ok=false once the inner stream has ended.
func (r *Reschedule) next() (Record, bool) {
	if r.inPos >= len(r.in) {
		if r.done {
			return Record{}, false
		}
		k := r.inner.NextBatch(r.in[:cap(r.in)])
		if k == 0 {
			r.done = true
			return Record{}, false
		}
		r.in, r.inPos = r.in[:k], 0
	}
	rec := r.in[r.inPos]
	r.inPos++
	return rec, true
}

// fillBlock gathers records up to and including the next control transfer
// plus its delay slot (blocks are bounded to keep scheduling local, as a
// compiler's basic blocks are).
func (r *Reschedule) fillBlock() bool {
	const maxBlock = 64
	r.block = r.block[:0]
	for len(r.block) < maxBlock {
		rec, ok := r.next()
		if !ok {
			break
		}
		r.block = append(r.block, rec)
		if rec.SI.Class.IsControl() {
			// The architectural delay slot travels with its branch.
			if slot, ok := r.next(); ok {
				r.block = append(r.block, slot)
			}
			break
		}
	}
	return len(r.block) > 0
}

// scheduleBlock list-schedules one basic block.
func scheduleBlock(block []Record) []Record {
	n := len(block)
	if n <= 2 {
		return append([]Record(nil), block...)
	}
	// The trailing control transfer and its delay slot are pinned.
	body := n
	if block[n-2].SI.Class.IsControl() {
		body = n - 2
	} else if block[n-1].SI.Class.IsControl() {
		body = n - 1
	}

	// Dependence edges within the body: preds[i] counts unscheduled
	// predecessors of i.
	preds := make([]int, body)
	succs := make([][]int, body)
	addEdge := func(from, to int) {
		succs[from] = append(succs[from], to)
		preds[to]++
	}
	for i := 0; i < body; i++ {
		for j := i + 1; j < body; j++ {
			if dependsEitherWay(block[j], block[i]) {
				addEdge(i, j)
			}
		}
	}

	// Latency-aware list scheduling: every node carries an earliest-start
	// estimate (producer position + producer latency); among ready nodes,
	// schedule the one whose estimate has been reached, preferring loads
	// and long-latency producers so their results are ready sooner. Nodes
	// whose operands are still "in flight" wait if anything else is ready
	// — exactly what a compiler's hazard-avoiding scheduler does for the
	// 3-cycle pipelined data cache.
	latency := func(rec Record) int {
		switch rec.SI.Class {
		case isa.ClassLoad, isa.ClassFPLoad:
			return 3
		case isa.ClassFPDiv:
			return 19
		case isa.ClassFPMul, isa.ClassIntMulDiv:
			return 5
		case isa.ClassFPAdd, isa.ClassFPCvt:
			return 3
		}
		return 1
	}
	prio := func(rec Record) int {
		switch rec.SI.Class {
		case isa.ClassLoad, isa.ClassFPLoad:
			return 3
		case isa.ClassFPDiv, isa.ClassFPMul:
			return 2
		case isa.ClassIntMulDiv:
			return 1
		}
		return 0
	}
	earliest := make([]int, body) // earliest slot the node's operands are ready
	scheduled := make([]bool, body)
	out := make([]Record, 0, n)
	for len(out) < body {
		slot := len(out)
		best, bestRisky := -1, false
		for i := 0; i < body; i++ {
			if scheduled[i] || preds[i] > 0 {
				continue
			}
			risky := earliest[i] > slot // operands still in flight
			switch {
			case best < 0,
				bestRisky && !risky,
				bestRisky == risky && prio(block[i]) > prio(block[best]):
				best, bestRisky = i, risky
			}
		}
		if best < 0 {
			// A cycle would be a bug; fall back to original order.
			for i := 0; i < body; i++ {
				if !scheduled[i] {
					best = i
					break
				}
			}
		}
		scheduled[best] = true
		out = append(out, block[best])
		for _, s := range succs[best] {
			preds[s]--
			if e := slot + latency(block[best]); e > earliest[s] {
				earliest[s] = e
			}
		}
	}
	out = append(out, block[body:]...)

	// Re-assign sequential PCs from the block's first address: the
	// "recompiled" block occupies the same code bytes.
	base := block[0].PC
	for i := range out {
		out[i].PC = base + uint32(i)*4
	}
	return out
}

// dependsEitherWay reports any register/memory/flag ordering constraint
// requiring a to stay after b.
func dependsEitherWay(a, b Record) bool {
	// RAW: a reads what b writes.
	if a.SI.Deps.DependsOn(b.SI.Deps) {
		return true
	}
	// WAR: a writes what b reads; WAW: both write the same register.
	if writesWhatReads(a.SI.Deps, b.SI.Deps) || writesSame(a.SI.Deps, b.SI.Deps) {
		return true
	}
	// Memory operations keep their relative order (no alias analysis).
	if a.SI.Class.IsMem() && b.SI.Class.IsMem() {
		return true
	}
	return false
}

func writesWhatReads(w, r isa.Deps) bool {
	if w.DstInt != 0 && (r.SrcInt[0] == w.DstInt || r.SrcInt[1] == w.DstInt) {
		return true
	}
	if w.DstFP != isa.NoFPReg && (r.SrcFP[0] == w.DstFP || r.SrcFP[1] == w.DstFP) {
		return true
	}
	return w.WritesFCC && r.ReadsFCC
}

func writesSame(a, b isa.Deps) bool {
	if a.DstInt != 0 && a.DstInt == b.DstInt {
		return true
	}
	if a.DstFP != isa.NoFPReg && a.DstFP == b.DstFP {
		return true
	}
	return a.WritesFCC && b.WritesFCC
}
