package sample

import (
	"fmt"

	"aurora/internal/asm"
	"aurora/internal/core"
	"aurora/internal/trace"
)

// A checkpoint stores what it replays compactly, since it holds every
// window of a whole functional pass: a warm access in 4 bytes and a window
// record in 8 (a trace.Record is 24). Both encodings are exact — a record
// that cannot round-trip fails the capture, it is never replayed wrong.

// warmEntry is one fast-forwarded access in a checkpoint's replay log: the
// accessed address with its low 4 bits cleared, and its core.WarmKind in
// the low 2 bits. Clearing the bits loses nothing replay can see: the log
// is coalesced to warmDedupBlock-byte blocks, and Checkpoint.Run rejects
// cache lines smaller than that, so the block address selects the same
// line as the access it stands for.
type warmEntry uint32

// warmKindMask selects a warmEntry's kind bits.
const warmKindMask = 3

func packWarm(kind core.WarmKind, addr uint32) warmEntry {
	return warmEntry(addr&^(warmDedupBlock-1) | uint32(kind))
}

func (e warmEntry) kind() core.WarmKind { return core.WarmKind(e & warmKindMask) }

func (e warmEntry) addr() uint32 { return uint32(e) &^ (warmDedupBlock - 1) }

// warmRing collects one fast-forward stretch's warm log, keeping the newest
// max entries once more arrive. One ring serves every stretch of a capture;
// log copies its contents out at exactly their length.
type warmRing struct {
	buf       []warmEntry
	start     int // index of the oldest entry once the ring has wrapped
	max       int
	truncated bool // some entry was overwritten since the last reset
}

func (r *warmRing) reset() {
	r.buf, r.start, r.truncated = r.buf[:0], 0, false
}

func (r *warmRing) push(e warmEntry) {
	if len(r.buf) < r.max {
		r.buf = append(r.buf, e)
		return
	}
	r.buf[r.start] = e
	if r.start++; r.start == r.max {
		r.start = 0
	}
	r.truncated = true
}

// log returns the retained entries, oldest first, in a slice of their own.
func (r *warmRing) log() []warmEntry {
	if len(r.buf) == 0 {
		return nil
	}
	out := make([]warmEntry, 0, len(r.buf))
	out = append(out, r.buf[r.start:]...)
	return append(out, r.buf[:r.start]...)
}

// winRec is one dynamic record of a detailed window. SI is not stored: it
// is recovered from pc through the capture machine's predecoded text
// table. op is MemAddr for a memory instruction; for anything else it is
// Target with Taken in bit 0 (every control target is word-aligned, and
// only memory instructions carry an address).
type winRec struct {
	pc, op uint32
}

// encodeRecord packs rec, which must have come from a machine whose
// predecoded text table is static. It fails on any record the decoder
// would not give back field for field.
func encodeRecord(static []trace.StaticInstr, rec *trace.Record) (winRec, error) {
	idx := (rec.PC - asm.TextBase) >> 2
	if rec.PC < asm.TextBase || rec.PC&3 != 0 || int(idx) >= len(static) || rec.SI != &static[idx] {
		return winRec{}, fmt.Errorf("sample: record at pc %#x does not point into the captured text table", rec.PC)
	}
	if rec.SI.Class.IsMem() {
		if rec.Target != 0 || rec.Taken {
			return winRec{}, fmt.Errorf("sample: memory record at pc %#x carries a control target %#x", rec.PC, rec.Target)
		}
		return winRec{pc: rec.PC, op: rec.MemAddr}, nil
	}
	if rec.MemAddr != 0 {
		return winRec{}, fmt.Errorf("sample: non-memory record at pc %#x carries a memory address %#x", rec.PC, rec.MemAddr)
	}
	if rec.Target&1 != 0 {
		return winRec{}, fmt.Errorf("sample: record at pc %#x has an odd control target %#x", rec.PC, rec.Target)
	}
	op := rec.Target
	if rec.Taken {
		op |= 1
	}
	return winRec{pc: rec.PC, op: op}, nil
}

// windowStream replays compact records as trace records, the stream the
// detailed core fetches from; recs holds what is left of the current
// window.
type windowStream struct {
	static []trace.StaticInstr
	recs   []winRec
}

// NextBatch decodes the next records into buf.
//
//aurora:hotpath
func (s *windowStream) NextBatch(buf []trace.Record) int {
	n := min(len(buf), len(s.recs))
	for i, r := range s.recs[:n] {
		si := &s.static[(r.pc-asm.TextBase)>>2]
		if si.Class.IsMem() {
			buf[i] = trace.Record{SI: si, PC: r.pc, MemAddr: r.op}
		} else {
			buf[i] = trace.Record{SI: si, PC: r.pc, Target: r.op &^ 1, Taken: r.op&1 != 0}
		}
	}
	s.recs = s.recs[n:]
	return n
}

// Err is always nil: a decoded window cannot fault.
func (s *windowStream) Err() error { return nil }
