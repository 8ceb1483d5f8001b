// Package trace defines the dynamic instruction trace that couples the
// functional MIPS VM (the trace producer) to the Aurora III timing simulator
// (the consumer), mirroring the trace-driven methodology of the paper.
//
// A trace is a Stream of Records, delivered in batches through NextBatch.
// Records are produced online by the VM (vm.Stream) and consumed by the
// simulator without materialising the whole trace, so
// multi-million-instruction runs use constant memory. The package also
// provides a compact binary on-disk format (Writer, Reader), the §6
// rescheduling pass (Reschedule) and instruction-mix statistics.
package trace

import (
	"aurora/internal/isa"
)

// StaticInstr is the predecoded, per-static-instruction metadata: everything
// about an instruction that does not change between dynamic executions.
// Producers decode each static instruction exactly once (the VM at load time,
// the binary trace reader on first sight of a word) and every dynamic Record
// points at the shared entry, so the timing model never re-derives classes
// or dependences per dynamic instruction.
type StaticInstr struct {
	In       isa.Instruction
	Deps     isa.Deps
	Class    isa.Class
	FPDouble bool  // double-precision: the operation occupies a register pair
	MemSize  uint8 // memory access width in bytes (0 for non-memory ops)
}

// NewStatic predecodes one instruction. Architectural nops (sll $0,$0,0)
// fold to ClassNop here, once, instead of per dynamic execution.
func NewStatic(in isa.Instruction) StaticInstr {
	c := in.Class()
	if in.IsNop() {
		c = isa.ClassNop
	}
	return StaticInstr{
		In:       in,
		Deps:     isa.DepsOf(in),
		Class:    c,
		FPDouble: in.Double,
		MemSize:  uint8(in.Op.MemSize()),
	}
}

// Record describes one dynamically executed instruction: a pointer to the
// shared static metadata plus the execution-specific facts (where it ran,
// what it touched, where control went). Kept small — it is copied through
// the fetch queue and issue logic on every dynamic instruction.
type Record struct {
	SI *StaticInstr

	PC uint32

	// Memory operations.
	MemAddr uint32

	// Control flow.
	Target uint32
	Taken  bool
}

// NewRecord builds a dynamic record for in at pc, predecoding the static
// metadata. Intended for tests and small synthetic streams; hot trace
// producers intern StaticInstrs and reuse them across dynamic records.
func NewRecord(pc uint32, in isa.Instruction) Record {
	si := NewStatic(in)
	return Record{SI: &si, PC: pc}
}

// Stream delivers dynamic records in batches, so a consumer pays one
// interface call per batch and the producer's inner loop stays on concrete
// types. NextBatch fills buf (len(buf) > 0) with up to len(buf) records and
// returns how many it wrote; 0 means the stream has ended. Err reports why
// it ended: nil after a clean end, the producer's error after a fault or a
// failed read.
type Stream interface {
	NextBatch(buf []Record) int
	Err() error
}

// SliceStream adapts a []Record to a Stream: a test's synthetic trace.
type SliceStream struct {
	Records []Record
	i       int
}

// NextBatch copies the next records into buf.
func (s *SliceStream) NextBatch(buf []Record) int {
	n := copy(buf, s.Records[s.i:])
	s.i += n
	return n
}

// Err always returns nil for a slice stream.
func (s *SliceStream) Err() error { return nil }

// Reset rewinds the stream to the beginning.
func (s *SliceStream) Reset() { s.i = 0 }

// Mix accumulates instruction-class statistics over a trace.
type Mix struct {
	Total   uint64
	ByClass [16]uint64
	Loads   uint64
	Stores  uint64
	Taken   uint64
	Branch  uint64
}

// Add accounts one record.
func (m *Mix) Add(r Record) {
	m.Total++
	if int(r.SI.Class) < len(m.ByClass) {
		m.ByClass[r.SI.Class]++
	}
	switch r.SI.Class {
	case isa.ClassLoad, isa.ClassFPLoad:
		m.Loads++
	case isa.ClassStore, isa.ClassFPStore:
		m.Stores++
	case isa.ClassBranch:
		m.Branch++
		if r.Taken {
			m.Taken++
		}
	}
}

// Fraction returns the share of class c in the mix.
func (m *Mix) Fraction(c isa.Class) float64 {
	if m.Total == 0 {
		return 0
	}
	return float64(m.ByClass[c]) / float64(m.Total)
}

// FPFraction returns the share of FPU-destined instructions.
func (m *Mix) FPFraction() float64 {
	if m.Total == 0 {
		return 0
	}
	var fp uint64
	for c := isa.Class(0); int(c) < len(m.ByClass); c++ {
		if c.IsFP() {
			fp += m.ByClass[c]
		}
	}
	return float64(fp) / float64(m.Total)
}
