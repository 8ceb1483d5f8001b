package aurora

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"aurora/internal/asm"
	"aurora/internal/core"
	"aurora/internal/trace"
	"aurora/internal/vm"
)

// The differential net: random short programs are executed twice — once on
// the functional VM alone, once streamed through the cycle-accurate core —
// and the two runs must agree exactly on the retired-instruction stream and
// on the final architectural state. The timing model is allowed to cost
// instructions however it likes; it is never allowed to drop, duplicate,
// reorder or perturb them.

// genProgram emits a random but well-defined MIPS program: straight-line
// integer/FP arithmetic and memory traffic over a scratch buffer, stitched
// by forward-only conditional branches (so every program terminates), ending
// in the exit syscall.
func genProgram(rng *rand.Rand) string {
	regs := []string{"$t0", "$t1", "$t2", "$t3", "$t4", "$t5", "$t6", "$t7", "$s1", "$s2", "$s3"}
	reg := func() string { return regs[rng.Intn(len(regs))] }

	var b strings.Builder
	b.WriteString("\t.data\nbuf:\t.space 256\n\t.text\nmain:\n")
	fmt.Fprintf(&b, "\tla $s0, buf\n")
	for i, r := range regs {
		fmt.Fprintf(&b, "\tli %s, %d\n", r, rng.Uint32()^uint32(i*0x9e3779b9))
	}

	nBlocks := 4 + rng.Intn(4)
	for blk := 0; blk < nBlocks; blk++ {
		fmt.Fprintf(&b, "blk%d:\n", blk)
		for n := 6 + rng.Intn(12); n > 0; n-- {
			switch rng.Intn(12) {
			case 0, 1:
				ops := []string{"addu", "subu", "and", "or", "xor", "nor", "slt", "sltu"}
				fmt.Fprintf(&b, "\t%s %s, %s, %s\n", ops[rng.Intn(len(ops))], reg(), reg(), reg())
			case 2:
				ops := []string{"addiu", "slti", "sltiu"}
				fmt.Fprintf(&b, "\t%s %s, %s, %d\n", ops[rng.Intn(len(ops))], reg(), reg(), int16(rng.Uint32()))
			case 3:
				ops := []string{"andi", "ori", "xori"}
				fmt.Fprintf(&b, "\t%s %s, %s, %d\n", ops[rng.Intn(len(ops))], reg(), reg(), rng.Intn(1<<16))
			case 4:
				ops := []string{"sll", "srl", "sra"}
				fmt.Fprintf(&b, "\t%s %s, %s, %d\n", ops[rng.Intn(len(ops))], reg(), reg(), rng.Intn(32))
			case 5:
				fmt.Fprintf(&b, "\tlui %s, %d\n", reg(), rng.Intn(1<<16))
			case 6:
				fmt.Fprintf(&b, "\tmult %s, %s\n\tmflo %s\n\tmfhi %s\n", reg(), reg(), reg(), reg())
			case 7:
				// divu with the divisor forced non-zero.
				d := reg()
				fmt.Fprintf(&b, "\tori %s, %s, 1\n\tdivu %s, %s\n\tmflo %s\n", d, d, reg(), d, reg())
			case 8:
				off := 4 * rng.Intn(64)
				fmt.Fprintf(&b, "\tsw %s, %d($s0)\n\tlw %s, %d($s0)\n", reg(), off, reg(), off)
			case 9:
				off := rng.Intn(256)
				fmt.Fprintf(&b, "\tsb %s, %d($s0)\n\tlbu %s, %d($s0)\n", reg(), off, reg(), off)
			case 10:
				off := 2 * rng.Intn(128)
				fmt.Fprintf(&b, "\tsh %s, %d($s0)\n\tlh %s, %d($s0)\n", reg(), off, reg(), off)
			case 11:
				// FP through the decoupled unit: int → float, arithmetic,
				// store/reload through the scratch buffer.
				off := 4 * rng.Intn(32)
				fmt.Fprintf(&b, "\tmtc1 %s, $f2\n\tcvt.s.w $f4, $f2\n", reg())
				fmt.Fprintf(&b, "\tadd.s $f6, $f4, $f4\n\tswc1 $f6, %d($s0)\n\tlwc1 $f8, %d($s0)\n", off, off)
			}
		}
		// Forward-only control flow: branch to some later block (or fall
		// through), so termination is structural.
		if blk < nBlocks-1 && rng.Intn(2) == 0 {
			target := blk + 1 + rng.Intn(nBlocks-blk-1)
			br := []string{"beq", "bne"}[rng.Intn(2)]
			fmt.Fprintf(&b, "\t%s %s, %s, blk%d\n", br, reg(), reg(), target)
		}
	}
	fmt.Fprintf(&b, "blk%d:\n\tli $v0, 10\n\tsyscall\n", nBlocks)
	return b.String()
}

// teeStream records every batch of trace records the core consumes.
type teeStream struct {
	trace.Stream
	recs []trace.Record
}

func (s *teeStream) NextBatch(buf []trace.Record) int {
	n := s.Stream.NextBatch(buf)
	s.recs = append(s.recs, buf[:n]...)
	return n
}

// runFunctional executes a program on the bare VM, returning the machine and
// its full dynamic trace.
func runFunctional(t *testing.T, prog *asm.Program) (*vm.Machine, []trace.Record) {
	t.Helper()
	m, err := vm.New(prog)
	if err != nil {
		t.Fatal(err)
	}
	var recs []trace.Record
	if _, err := m.Run(200_000, func(r trace.Record) { recs = append(recs, r) }); err != nil {
		t.Fatalf("functional run faulted: %v", err)
	}
	if !m.Halted() {
		t.Fatal("functional run did not terminate (generator emitted a loop?)")
	}
	return m, recs
}

// checkMachinesAgree compares the complete architectural state of two VMs.
func checkMachinesAgree(t *testing.T, ref, got *vm.Machine) {
	t.Helper()
	if ref.Reg != got.Reg {
		t.Errorf("integer register files diverge:\nref %v\ngot %v", ref.Reg, got.Reg)
	}
	if ref.FReg != got.FReg {
		t.Errorf("FP register files diverge:\nref %v\ngot %v", ref.FReg, got.FReg)
	}
	if ref.HI != got.HI || ref.LO != got.LO {
		t.Errorf("HI/LO diverge: ref %#x/%#x got %#x/%#x", ref.HI, ref.LO, got.HI, got.LO)
	}
	if ref.FCC != got.FCC {
		t.Errorf("FP condition codes diverge: ref %v got %v", ref.FCC, got.FCC)
	}
	if ref.Steps() != got.Steps() || ref.ExitCode() != got.ExitCode() {
		t.Errorf("run shape diverges: steps %d/%d exit %d/%d",
			ref.Steps(), got.Steps(), ref.ExitCode(), got.ExitCode())
	}
	for off := uint32(0); off < 256; off += 4 {
		a, b := ref.Mem.LoadWord(asm.DataBase+off), got.Mem.LoadWord(asm.DataBase+off)
		if a != b {
			t.Errorf("memory diverges at buf+%d: ref %#08x got %#08x", off, a, b)
		}
	}
}

// TestDifferentialVMvsCore runs a battery of random programs through the
// functional VM and through the full timing simulator, requiring identical
// retired-instruction streams and identical final architectural state on
// every machine model.
func TestDifferentialVMvsCore(t *testing.T) {
	seeds := 30
	if testing.Short() {
		seeds = 8
	}
	configs := []Config{Baseline(), Small(), Large()}
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed) + 1))
		src := genProgram(rng)
		prog, err := asm.Assemble(fmt.Sprintf("diff-%d.s", seed), src)
		if err != nil {
			t.Fatalf("seed %d: generated program does not assemble: %v\n%s", seed, err, src)
		}
		ref, want := runFunctional(t, prog)
		cfg := configs[seed%len(configs)]

		m2, err := vm.New(prog)
		if err != nil {
			t.Fatal(err)
		}
		tee := &teeStream{Stream: m2.Stream(0)}
		p, err := core.NewProcessor(cfg, tee)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := p.Run()
		if err != nil {
			t.Fatalf("seed %d on %s: timing run failed: %v", seed, cfg.Name, err)
		}

		if rep.Instructions != uint64(len(want)) {
			t.Fatalf("seed %d on %s: core retired %d instructions, VM executed %d",
				seed, cfg.Name, rep.Instructions, len(want))
		}
		if len(tee.recs) != len(want) {
			t.Fatalf("seed %d on %s: core consumed %d records, VM produced %d",
				seed, cfg.Name, len(tee.recs), len(want))
		}
		for i := range want {
			a, b := want[i], tee.recs[i]
			if a.PC != b.PC || a.MemAddr != b.MemAddr || a.Taken != b.Taken || a.SI.In != b.SI.In {
				t.Fatalf("seed %d on %s: retired stream diverges at %d:\nVM   pc=%#x mem=%#x taken=%v %v\ncore pc=%#x mem=%#x taken=%v %v",
					seed, cfg.Name, i, a.PC, a.MemAddr, a.Taken, a.SI.In, b.PC, b.MemAddr, b.Taken, b.SI.In)
			}
		}
		if rep.Cycles == 0 || rep.Cycles < rep.Instructions/2 {
			t.Errorf("seed %d on %s: implausible cycle count %d for %d instructions",
				seed, cfg.Name, rep.Cycles, rep.Instructions)
		}
		checkMachinesAgree(t, ref, m2)
	}
}

// TestDifferentialRecordedTrace: every workload's trace, written by
// trace.Writer and read back by trace.Reader, drives the timing model to
// the same report as the VM feeding it directly.
func TestDifferentialRecordedTrace(t *testing.T) {
	ctx := context.Background()
	const budget = 50_000
	for _, name := range WorkloadNames() {
		w, err := GetWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Run(ctx, Baseline(), w, RunOptions{Budget: budget})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}

		m, err := w.NewMachine()
		if err != nil {
			t.Fatal(err)
		}
		var enc bytes.Buffer
		tw := trace.NewWriter(&enc)
		var werr error
		if _, err := m.Run(budget, func(r trace.Record) {
			if werr == nil {
				werr = tw.Write(r)
			}
		}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if werr == nil {
			werr = tw.Flush()
		}
		if werr != nil {
			t.Fatalf("%s: writing the trace: %v", name, werr)
		}
		tr, err := trace.NewReader(&enc)
		if err != nil {
			t.Fatal(err)
		}
		got, err := RunTrace(ctx, Baseline(), tr)
		if err != nil {
			t.Fatalf("%s: replay: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: replayed report differs:\nreplay %+v\nVM     %+v", name, got, want)
		}
	}
}
