package isa

// Pseudo integer register index for the combined HI/LO multiply-divide
// result resource. MULT/DIV write it; MFHI/MFLO read it.
const RegHILO = 32

// Deps describes an instruction's register dataflow, used by the timing
// simulator's scoreboards. Integer register 0 means "no dependence"
// (reads of $zero are free and writes to it are discarded). FP register
// NoFPReg means "no dependence".
type Deps struct {
	SrcInt    [2]uint8
	DstInt    uint8 // 0 = none; RegHILO = HI/LO pair
	SrcFP     [2]uint8
	DstFP     uint8
	ReadsFCC  bool // BC1T/BC1F read the FP condition flag
	WritesFCC bool // compares write it
}

// DepsOf extracts the dataflow of a decoded instruction.
func DepsOf(in Instruction) Deps {
	d := Deps{SrcFP: [2]uint8{NoFPReg, NoFPReg}, DstFP: NoFPReg}
	switch in.Op {
	case OpSLL, OpSRL, OpSRA:
		d.SrcInt[0] = in.Rt
		d.DstInt = in.Rd
	case OpSLLV, OpSRLV, OpSRAV:
		d.SrcInt = [2]uint8{in.Rt, in.Rs}
		d.DstInt = in.Rd
	case OpADD, OpADDU, OpSUB, OpSUBU, OpAND, OpOR, OpXOR, OpNOR, OpSLT, OpSLTU:
		d.SrcInt = [2]uint8{in.Rs, in.Rt}
		d.DstInt = in.Rd
	case OpADDI, OpADDIU, OpSLTI, OpSLTIU, OpANDI, OpORI, OpXORI:
		d.SrcInt[0] = in.Rs
		d.DstInt = in.Rt
	case OpLUI:
		d.DstInt = in.Rt
	case OpMULT, OpMULTU, OpDIV, OpDIVU:
		d.SrcInt = [2]uint8{in.Rs, in.Rt}
		d.DstInt = RegHILO
	case OpMFHI, OpMFLO:
		d.SrcInt[0] = RegHILO
		d.DstInt = in.Rd
	case OpMTHI, OpMTLO:
		d.SrcInt[0] = in.Rs
		d.DstInt = RegHILO
	case OpLB, OpLBU, OpLH, OpLHU, OpLW:
		d.SrcInt[0] = in.Rs
		d.DstInt = in.Rt
	case OpLWL, OpLWR:
		// Merging loads read the partial destination too.
		d.SrcInt = [2]uint8{in.Rs, in.Rt}
		d.DstInt = in.Rt
	case OpSB, OpSH, OpSW, OpSWL, OpSWR:
		d.SrcInt = [2]uint8{in.Rs, in.Rt}
	case OpLWC1, OpLDC1:
		d.SrcInt[0] = in.Rs
		d.DstFP = in.Ft
	case OpSWC1, OpSDC1:
		d.SrcInt[0] = in.Rs
		d.SrcFP[0] = in.Ft
	case OpBEQ, OpBNE:
		d.SrcInt = [2]uint8{in.Rs, in.Rt}
	case OpBLEZ, OpBGTZ, OpBLTZ, OpBGEZ:
		d.SrcInt[0] = in.Rs
	case OpBLTZAL, OpBGEZAL:
		d.SrcInt[0] = in.Rs
		d.DstInt = RegRA
	case OpJ:
		// no deps
	case OpJAL:
		d.DstInt = RegRA
	case OpJR:
		d.SrcInt[0] = in.Rs
	case OpJALR:
		d.SrcInt[0] = in.Rs
		d.DstInt = in.Rd
	case OpMFC1:
		d.SrcFP[0] = in.Fs
		d.DstInt = in.Rt
	case OpMTC1:
		d.SrcInt[0] = in.Rt
		d.DstFP = in.Fs
	case OpFADD, OpFSUB, OpFMUL, OpFDIV:
		d.SrcFP = [2]uint8{in.Fs, in.Ft}
		d.DstFP = in.Fd
	case OpFSQRT, OpFABS, OpFMOV, OpFNEG, OpCVTS, OpCVTD, OpCVTW:
		d.SrcFP[0] = in.Fs
		d.DstFP = in.Fd
	case OpCEQ, OpCLT, OpCLE:
		d.SrcFP = [2]uint8{in.Fs, in.Ft}
		d.WritesFCC = true
	case OpBC1T, OpBC1F:
		d.ReadsFCC = true
	}
	if in.IsNop() {
		return Deps{SrcFP: [2]uint8{NoFPReg, NoFPReg}, DstFP: NoFPReg}
	}
	return d
}

// DependsOn reports whether an instruction with deps d reads anything that
// an earlier instruction with deps w writes — the "true instruction
// dependency" that sets the DI bit in the pre-decoded instruction cache and
// prohibits dual issue of the pair (paper §2, IFU).
//
//aurora:hotpath
func (d Deps) DependsOn(w Deps) bool {
	if w.DstInt != 0 {
		if d.SrcInt[0] == w.DstInt || d.SrcInt[1] == w.DstInt {
			return true
		}
	}
	if w.DstFP != NoFPReg {
		if d.SrcFP[0] == w.DstFP || d.SrcFP[1] == w.DstFP {
			return true
		}
	}
	if w.WritesFCC && d.ReadsFCC {
		return true
	}
	return false
}
