// Package vm implements a functional (architectural) simulator for the MIPS
// R3000 subset: it executes assembled programs with correct branch-delay-slot
// semantics and emits the dynamic instruction trace consumed by the Aurora III
// timing simulator. The split mirrors the paper's methodology: functional
// execution produces a trace; the timing model replays it.
package vm

import (
	"errors"
	"fmt"
	"io"
	"math"

	"aurora/internal/asm"
	"aurora/internal/isa"
	"aurora/internal/trace"
)

// errHaltReturn signals the clean "returned from main to address 0" halt.
var errHaltReturn = errors.New("vm: halted (returned to address 0)")

// StackTop is the initial stack pointer (stack grows down).
const StackTop = 0x7fff_fff0

// Syscall numbers (SPIM-compatible subset).
const (
	SysPrintInt  = 1
	SysPrintStr  = 4
	SysExit      = 10
	SysPrintChar = 11
)

// Machine is a functional MIPS machine executing one program.
type Machine struct {
	prog *asm.Program
	// static holds the text segment predecoded once at load, indexed by
	// (pc-TextBase)/4; every dynamic trace record points into it.
	static []trace.StaticInstr

	Reg  [32]uint32
	HI   uint32
	LO   uint32
	FReg [32]uint32 // doubles occupy even/odd pairs, little-endian order
	FCC  bool

	Mem *Memory

	pc, npc uint32
	halted  bool
	exit    int

	Stdout io.Writer // nil discards output

	steps uint64
}

// New loads a program into a fresh machine.
func New(p *asm.Program) (*Machine, error) {
	m := &Machine{
		prog: p,
		Mem:  NewMemory(),
		pc:   p.Entry,
		npc:  p.Entry + 4,
	}
	m.static = make([]trace.StaticInstr, len(p.Text))
	for i, w := range p.Text {
		in, err := isa.Decode(w)
		if err != nil {
			return nil, fmt.Errorf("vm: text word %d: %w", i, err)
		}
		m.static[i] = trace.NewStatic(in)
	}
	m.Mem.StoreBytes(asm.DataBase, p.Data)
	m.Reg[isa.RegSP] = StackTop
	m.Reg[isa.RegGP] = asm.DataBase
	// A return from main with no explicit exit lands on address 0,
	// which Step detects and turns into a clean halt.
	m.Reg[isa.RegRA] = 0
	return m, nil
}

// Halted reports whether the program has exited.
func (m *Machine) Halted() bool { return m.halted }

// ExitCode returns the program's exit code ($a0 at the exit syscall).
func (m *Machine) ExitCode() int { return m.exit }

// Steps returns the number of instructions executed so far.
func (m *Machine) Steps() uint64 { return m.steps }

// Static returns the predecoded text table every record's SI points into,
// indexed by (pc-asm.TextBase)/4. Callers must treat it as read-only.
func (m *Machine) Static() []trace.StaticInstr { return m.static }

// Step executes one instruction and returns its trace record.
func (m *Machine) Step() (trace.Record, error) {
	var rec trace.Record
	err := m.step(&rec)
	return rec, err
}

// step executes one instruction, writing its trace record into rec, so a
// batch fills its buffer in place.
func (m *Machine) step(rec *trace.Record) error {
	if m.halted {
		return fmt.Errorf("vm: machine halted")
	}
	if m.pc == 0 { // return from main without syscall exit
		m.halted = true
		return errHaltReturn
	}
	idx := (m.pc - asm.TextBase) / 4
	if m.pc < asm.TextBase || int(idx) >= len(m.static) || m.pc&3 != 0 {
		m.halted = true
		return fmt.Errorf("vm: pc %#x outside text segment", m.pc)
	}
	st := &m.static[idx]
	in := st.In
	*rec = trace.Record{SI: st, PC: m.pc}

	curPC := m.pc
	linkPC := curPC + 8 // return address skips the delay slot
	newNext := m.npc + 4
	taken := false
	target := uint32(0)

	r := &m.Reg
	rs, rt := r[in.Rs], r[in.Rt]

	switch in.Op {
	case isa.OpSLL:
		m.set(in.Rd, rt<<in.Shamt)
	case isa.OpSRL:
		m.set(in.Rd, rt>>in.Shamt)
	case isa.OpSRA:
		m.set(in.Rd, uint32(int32(rt)>>in.Shamt))
	case isa.OpSLLV:
		m.set(in.Rd, rt<<(rs&31))
	case isa.OpSRLV:
		m.set(in.Rd, rt>>(rs&31))
	case isa.OpSRAV:
		m.set(in.Rd, uint32(int32(rt)>>(rs&31)))
	case isa.OpADD:
		sum := rs + rt
		if addOverflows(rs, rt, sum) {
			return m.fault(curPC, "integer overflow in add")
		}
		m.set(in.Rd, sum)
	case isa.OpADDU:
		m.set(in.Rd, rs+rt)
	case isa.OpSUB:
		diff := rs - rt
		if subOverflows(rs, rt, diff) {
			return m.fault(curPC, "integer overflow in sub")
		}
		m.set(in.Rd, diff)
	case isa.OpSUBU:
		m.set(in.Rd, rs-rt)
	case isa.OpAND:
		m.set(in.Rd, rs&rt)
	case isa.OpOR:
		m.set(in.Rd, rs|rt)
	case isa.OpXOR:
		m.set(in.Rd, rs^rt)
	case isa.OpNOR:
		m.set(in.Rd, ^(rs | rt))
	case isa.OpSLT:
		m.set(in.Rd, b2u(int32(rs) < int32(rt)))
	case isa.OpSLTU:
		m.set(in.Rd, b2u(rs < rt))
	case isa.OpADDI:
		sum := rs + uint32(in.Imm)
		if addOverflows(rs, uint32(in.Imm), sum) {
			return m.fault(curPC, "integer overflow in addi")
		}
		m.set(in.Rt, sum)
	case isa.OpADDIU:
		m.set(in.Rt, rs+uint32(in.Imm))
	case isa.OpSLTI:
		m.set(in.Rt, b2u(int32(rs) < in.Imm))
	case isa.OpSLTIU:
		m.set(in.Rt, b2u(rs < uint32(in.Imm)))
	case isa.OpANDI:
		m.set(in.Rt, rs&uint32(in.Imm))
	case isa.OpORI:
		m.set(in.Rt, rs|uint32(in.Imm))
	case isa.OpXORI:
		m.set(in.Rt, rs^uint32(in.Imm))
	case isa.OpLUI:
		m.set(in.Rt, uint32(in.Imm)<<16)

	case isa.OpMULT:
		prod := int64(int32(rs)) * int64(int32(rt))
		m.HI, m.LO = uint32(uint64(prod)>>32), uint32(uint64(prod))
	case isa.OpMULTU:
		prod := uint64(rs) * uint64(rt)
		m.HI, m.LO = uint32(prod>>32), uint32(prod)
	case isa.OpDIV:
		if rt != 0 {
			m.LO = uint32(int32(rs) / int32(rt))
			m.HI = uint32(int32(rs) % int32(rt))
		}
	case isa.OpDIVU:
		if rt != 0 {
			m.LO = rs / rt
			m.HI = rs % rt
		}
	case isa.OpMFHI:
		m.set(in.Rd, m.HI)
	case isa.OpMFLO:
		m.set(in.Rd, m.LO)
	case isa.OpMTHI:
		m.HI = rs
	case isa.OpMTLO:
		m.LO = rs

	case isa.OpLB:
		addr := rs + uint32(in.Imm)
		rec.MemAddr = addr
		m.set(in.Rt, uint32(int32(int8(m.Mem.LoadByte(addr)))))
	case isa.OpLBU:
		addr := rs + uint32(in.Imm)
		rec.MemAddr = addr
		m.set(in.Rt, uint32(m.Mem.LoadByte(addr)))
	case isa.OpLH:
		addr := rs + uint32(in.Imm)
		if addr&1 != 0 {
			return m.fault(curPC, "unaligned lh at %#x", addr)
		}
		rec.MemAddr = addr
		m.set(in.Rt, uint32(int32(int16(m.Mem.LoadHalf(addr)))))
	case isa.OpLHU:
		addr := rs + uint32(in.Imm)
		if addr&1 != 0 {
			return m.fault(curPC, "unaligned lhu at %#x", addr)
		}
		rec.MemAddr = addr
		m.set(in.Rt, uint32(m.Mem.LoadHalf(addr)))
	case isa.OpLW:
		addr := rs + uint32(in.Imm)
		if addr&3 != 0 {
			return m.fault(curPC, "unaligned lw at %#x", addr)
		}
		rec.MemAddr = addr
		m.set(in.Rt, m.Mem.LoadWord(addr))
	case isa.OpSB:
		addr := rs + uint32(in.Imm)
		rec.MemAddr = addr
		m.Mem.StoreByte(addr, byte(rt))
	case isa.OpSH:
		addr := rs + uint32(in.Imm)
		if addr&1 != 0 {
			return m.fault(curPC, "unaligned sh at %#x", addr)
		}
		rec.MemAddr = addr
		m.Mem.StoreHalf(addr, uint16(rt))
	case isa.OpSW:
		addr := rs + uint32(in.Imm)
		if addr&3 != 0 {
			return m.fault(curPC, "unaligned sw at %#x", addr)
		}
		rec.MemAddr = addr
		m.Mem.StoreWord(addr, rt)

	case isa.OpLWL, isa.OpLWR, isa.OpSWL, isa.OpSWR:
		addr := rs + uint32(in.Imm)
		rec.MemAddr = addr
		m.unalignedWord(in.Op, in.Rt, addr)

	case isa.OpLWC1:
		addr := rs + uint32(in.Imm)
		if addr&3 != 0 {
			return m.fault(curPC, "unaligned lwc1 at %#x", addr)
		}
		rec.MemAddr = addr
		m.FReg[in.Ft] = m.Mem.LoadWord(addr)
	case isa.OpSWC1:
		addr := rs + uint32(in.Imm)
		if addr&3 != 0 {
			return m.fault(curPC, "unaligned swc1 at %#x", addr)
		}
		rec.MemAddr = addr
		m.Mem.StoreWord(addr, m.FReg[in.Ft])
	case isa.OpLDC1:
		addr := rs + uint32(in.Imm)
		if addr&7 != 0 {
			return m.fault(curPC, "unaligned ldc1 at %#x", addr)
		}
		rec.MemAddr = addr
		v := m.Mem.LoadDouble(addr)
		m.setD(in.Ft, v)
	case isa.OpSDC1:
		addr := rs + uint32(in.Imm)
		if addr&7 != 0 {
			return m.fault(curPC, "unaligned sdc1 at %#x", addr)
		}
		rec.MemAddr = addr
		m.Mem.StoreDouble(addr, m.getD(in.Ft))

	case isa.OpBEQ:
		taken = rs == rt
	case isa.OpBNE:
		taken = rs != rt
	case isa.OpBLEZ:
		taken = int32(rs) <= 0
	case isa.OpBGTZ:
		taken = int32(rs) > 0
	case isa.OpBLTZ:
		taken = int32(rs) < 0
	case isa.OpBGEZ:
		taken = int32(rs) >= 0
	case isa.OpBLTZAL:
		taken = int32(rs) < 0
		m.set(isa.RegRA, linkPC)
	case isa.OpBGEZAL:
		taken = int32(rs) >= 0
		m.set(isa.RegRA, linkPC)
	case isa.OpBC1T:
		taken = m.FCC
	case isa.OpBC1F:
		taken = !m.FCC

	case isa.OpJ:
		taken = true
		target = isa.JumpTarget(curPC, in.Target)
	case isa.OpJAL:
		taken = true
		target = isa.JumpTarget(curPC, in.Target)
		m.set(isa.RegRA, linkPC)
	case isa.OpJR:
		taken = true
		target = rs
	case isa.OpJALR:
		taken = true
		target = rs
		m.set(in.Rd, linkPC)

	case isa.OpMFC1:
		m.set(in.Rt, m.FReg[in.Fs])
	case isa.OpMTC1:
		m.FReg[in.Fs] = rt

	case isa.OpFADD, isa.OpFSUB, isa.OpFMUL, isa.OpFDIV,
		isa.OpFSQRT, isa.OpFABS, isa.OpFMOV, isa.OpFNEG:
		m.fpArith(in)
	case isa.OpCVTS, isa.OpCVTD, isa.OpCVTW:
		m.fpConvert(in)
	case isa.OpCEQ, isa.OpCLT, isa.OpCLE:
		m.fpCompare(in)

	case isa.OpSyscall:
		if err := m.syscall(); err != nil {
			return err
		}
	case isa.OpBreak:
		m.halted = true

	default:
		return m.fault(curPC, "unimplemented op %v", in.Op)
	}

	// Branch targets: conditional branches encode a PC-relative offset.
	if st.Class == isa.ClassBranch {
		target = isa.BranchTarget(curPC, in.Imm)
	}
	if taken {
		newNext = target
	}
	rec.Taken = taken
	rec.Target = target

	m.pc, m.npc = m.npc, newNext
	m.steps++
	return nil
}

func (m *Machine) fault(pc uint32, format string, args ...any) error {
	m.halted = true
	line := 0
	idx := (pc - asm.TextBase) / 4
	if int(idx) < len(m.prog.Lines) {
		line = m.prog.Lines[idx]
	}
	return fmt.Errorf("vm: pc=%#x (line %d): %s", pc, line, fmt.Sprintf(format, args...))
}

func (m *Machine) set(r uint8, v uint32) {
	if r != 0 {
		m.Reg[r] = v
	}
}

func addOverflows(a, b, sum uint32) bool {
	// Signed overflow: operands share a sign that the result lost.
	return (a^b)&0x80000000 == 0 && (a^sum)&0x80000000 != 0
}

func subOverflows(a, b, diff uint32) bool {
	return (a^b)&0x80000000 != 0 && (a^diff)&0x80000000 != 0
}

// unalignedWord implements the little-endian lwl/lwr/swl/swr semantics:
// lwr fills the low-order bytes of rt from the bytes at and above addr up
// to the word boundary; lwl fills the high-order bytes from the bytes at
// and below addr. swr/swl are their store duals.
func (m *Machine) unalignedWord(op isa.Op, rt uint8, addr uint32) {
	word := addr &^ 3
	k := addr & 3 // byte offset within the word
	mem := m.Mem.LoadWord(word)
	reg := m.Reg[rt]
	switch op {
	case isa.OpLWR:
		// bytes mem[k..3] → reg[0..3-k]
		shift := 8 * k
		mask := uint32(0xffffffff) >> shift
		m.set(rt, (reg&^mask)|(mem>>shift))
	case isa.OpLWL:
		// bytes mem[0..k] → reg[3-k..3]
		shift := 8 * (3 - k)
		mask := uint32(0xffffffff) << shift
		m.set(rt, (reg&^mask)|(mem<<shift))
	case isa.OpSWR:
		shift := 8 * k
		mask := uint32(0xffffffff) << shift
		m.Mem.StoreWord(word, (mem&^mask)|(reg<<shift))
	case isa.OpSWL:
		shift := 8 * (3 - k)
		mask := uint32(0xffffffff) >> shift
		m.Mem.StoreWord(word, (mem&^mask)|(reg>>shift))
	}
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// getD reads a double from an FP register pair.
func (m *Machine) getD(f uint8) uint64 {
	f &= 0x1e // doubles use even-aligned pairs
	return uint64(m.FReg[f]) | uint64(m.FReg[f+1])<<32
}

// setD writes a double to an FP register pair.
func (m *Machine) setD(f uint8, v uint64) {
	f &= 0x1e
	m.FReg[f] = uint32(v)
	m.FReg[f+1] = uint32(v >> 32)
}

func (m *Machine) getF64(f uint8) float64 { return math.Float64frombits(m.getD(f)) }
func (m *Machine) setF64(f uint8, v float64) {
	m.setD(f, math.Float64bits(v))
}
func (m *Machine) getF32(f uint8) float32 { return math.Float32frombits(m.FReg[f&31]) }
func (m *Machine) setF32(f uint8, v float32) {
	m.FReg[f&31] = math.Float32bits(v)
}

func (m *Machine) fpArith(in isa.Instruction) {
	if in.Double {
		a := m.getF64(in.Fs)
		var b float64
		if in.Ft != isa.NoFPReg {
			b = m.getF64(in.Ft)
		}
		var v float64
		switch in.Op {
		case isa.OpFADD:
			v = a + b
		case isa.OpFSUB:
			v = a - b
		case isa.OpFMUL:
			v = a * b
		case isa.OpFDIV:
			v = a / b
		case isa.OpFSQRT:
			v = math.Sqrt(a)
		case isa.OpFABS:
			v = math.Abs(a)
		case isa.OpFMOV:
			v = a
		case isa.OpFNEG:
			v = -a
		}
		m.setF64(in.Fd, v)
		return
	}
	a := m.getF32(in.Fs)
	var b float32
	if in.Ft != isa.NoFPReg {
		b = m.getF32(in.Ft)
	}
	var v float32
	switch in.Op {
	case isa.OpFADD:
		v = a + b
	case isa.OpFSUB:
		v = a - b
	case isa.OpFMUL:
		v = a * b
	case isa.OpFDIV:
		v = a / b
	case isa.OpFSQRT:
		v = float32(math.Sqrt(float64(a)))
	case isa.OpFABS:
		v = float32(math.Abs(float64(a)))
	case isa.OpFMOV:
		v = a
	case isa.OpFNEG:
		v = -a
	}
	m.setF32(in.Fd, v)
}

func (m *Machine) fpConvert(in isa.Instruction) {
	switch in.Op {
	case isa.OpCVTD:
		switch in.CvtSrc {
		case isa.CvtFromW:
			m.setF64(in.Fd, float64(int32(m.FReg[in.Fs&31])))
		case isa.CvtFromS:
			m.setF64(in.Fd, float64(m.getF32(in.Fs)))
		}
	case isa.OpCVTS:
		switch in.CvtSrc {
		case isa.CvtFromW:
			m.setF32(in.Fd, float32(int32(m.FReg[in.Fs&31])))
		case isa.CvtFromD:
			m.setF32(in.Fd, float32(m.getF64(in.Fs)))
		}
	case isa.OpCVTW:
		switch in.CvtSrc {
		case isa.CvtFromS:
			m.FReg[in.Fd&31] = uint32(int32(m.getF32(in.Fs)))
		case isa.CvtFromD:
			m.FReg[in.Fd&31] = uint32(int32(m.getF64(in.Fs)))
		}
	}
}

func (m *Machine) fpCompare(in isa.Instruction) {
	var a, b float64
	if in.Double {
		a, b = m.getF64(in.Fs), m.getF64(in.Ft)
	} else {
		a, b = float64(m.getF32(in.Fs)), float64(m.getF32(in.Ft))
	}
	switch in.Op {
	case isa.OpCEQ:
		m.FCC = a == b
	case isa.OpCLT:
		m.FCC = a < b
	case isa.OpCLE:
		m.FCC = a <= b
	}
}

func (m *Machine) syscall() error {
	switch m.Reg[isa.RegV0] {
	case SysPrintInt:
		if m.Stdout != nil {
			fmt.Fprintf(m.Stdout, "%d", int32(m.Reg[isa.RegA0]))
		}
	case SysPrintStr:
		if m.Stdout != nil {
			addr := m.Reg[isa.RegA0]
			var buf []byte
			for i := 0; i < 4096; i++ {
				c := m.Mem.LoadByte(addr + uint32(i))
				if c == 0 {
					break
				}
				buf = append(buf, c)
			}
			m.Stdout.Write(buf)
		}
	case SysPrintChar:
		if m.Stdout != nil {
			fmt.Fprintf(m.Stdout, "%c", rune(m.Reg[isa.RegA0]))
		}
	case SysExit:
		m.halted = true
		m.exit = int(int32(m.Reg[isa.RegA0]))
	default:
		return m.fault(m.pc, "unknown syscall %d", m.Reg[isa.RegV0])
	}
	return nil
}

// Run executes up to max instructions (0 = unbounded), calling emit for each
// record when emit is non-nil. It stops at program exit, the budget, or an
// execution fault. It returns the number of instructions executed.
func (m *Machine) Run(max uint64, emit func(trace.Record)) (uint64, error) {
	s := m.Stream(max)
	var buf [64]trace.Record
	for {
		n := s.NextBatch(buf[:])
		if n == 0 {
			return s.Count(), s.Err()
		}
		if emit != nil {
			for _, r := range buf[:n] {
				emit(r)
			}
		}
	}
}
