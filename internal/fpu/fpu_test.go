package fpu

import (
	"testing"

	"aurora/internal/isa"
	"aurora/internal/trace"
)

// mkFP builds a trace record for an FP arithmetic instruction.
func mkFP(op isa.Op, fd, fs, ft uint8, double bool) *trace.Record {
	in := isa.Instruction{Op: op, Fd: fd, Fs: fs, Ft: ft, Double: double}
	r := trace.NewRecord(0, in)
	return &r
}

func runCycles(f *FPU, from, to uint64) {
	for now := from; now <= to; now++ {
		f.Tick(now)
	}
}

func TestDispatchAndQueueCapacity(t *testing.T) {
	f := New(Config{InstrQueue: 2, Policy: OutOfOrderSingle})
	if !f.CanDispatchInstr() {
		t.Fatal("fresh queue not accepting")
	}
	r := mkFP(isa.OpFADD, 2, 4, 6, true)
	f.DispatchInstr(r, 0)
	f.DispatchInstr(r, 0)
	if f.CanDispatchInstr() {
		t.Error("queue should be full at 2 entries")
	}
	if f.QueueLen() != 2 {
		t.Errorf("queue len %d", f.QueueLen())
	}
}

func TestSingleAddLatency(t *testing.T) {
	f := New(Config{Policy: OutOfOrderSingle, AddLatency: 3, AddPipelined: true})
	r := mkFP(isa.OpFADD, 2, 4, 6, true)
	f.DispatchInstr(r, 0)
	// Destination must be unavailable until issue + latency.
	if f.RegReadyAt(2, true) <= 0 {
		t.Error("dest ready before issue")
	}
	f.Tick(1) // issues at 1, completes at 4
	if f.RegReadyAt(2, true) <= 3 {
		t.Error("dest ready too early")
	}
	if f.RegReadyAt(2, true) > 4 {
		t.Error("dest not ready at completion")
	}
	runCycles(f, 2, 6)
	if !f.Drained(7) {
		t.Error("FPU not drained")
	}
	if f.stats.Issued != 1 || f.stats.Retired != 1 {
		t.Errorf("stats %+v", f.stats)
	}
}

func TestDependentChainSerialises(t *testing.T) {
	// f2 = f4+f6 ; f8 = f2*f2 — the multiply must wait for the add.
	f := New(Config{Policy: OutOfOrderSingle, AddLatency: 3, AddPipelined: true,
		MulLatency: 5})
	f.DispatchInstr(mkFP(isa.OpFADD, 2, 4, 6, true), 0)
	f.DispatchInstr(mkFP(isa.OpFMUL, 8, 2, 2, true), 0)
	runCycles(f, 1, 30)
	// add issues at 1 → f2 at 4; mul issues at 4 → f8 at 9.
	if f.RegReadyAt(8, true) > 9 {
		t.Error("chain result not ready at 9")
	}
	if f.RegReadyAt(8, true) <= 8 {
		t.Error("chain result ready too early — dependence ignored")
	}
}

func TestIndependentOpsOverlapOOO(t *testing.T) {
	// Independent add and mul overlap under OOO completion, but not under
	// in-order completion.
	mk := func(policy IssuePolicy) uint64 {
		f := New(Config{Policy: policy, AddLatency: 3, AddPipelined: true,
			MulLatency: 5, ReorderBuffer: 6})
		f.DispatchInstr(mkFP(isa.OpFMUL, 8, 10, 12, true), 0)
		f.DispatchInstr(mkFP(isa.OpFADD, 2, 4, 6, true), 0)
		for now := uint64(1); now < 40; now++ {
			f.Tick(now)
			if f.RegReadyAt(2, true) <= now && f.RegReadyAt(8, true) <= now {
				return now
			}
		}
		return 999
	}
	ooo := mk(OutOfOrderSingle)
	ino := mk(InOrderComplete)
	if ooo >= ino {
		t.Errorf("OOO (%d) not faster than in-order (%d)", ooo, ino)
	}
	// OOO: mul at 1→6, add at 2→5 → both by 6.
	if ooo != 6 {
		t.Errorf("OOO both-ready at %d want 6", ooo)
	}
	// In-order: mul 1→6; add issues only after mul completes: 6→9.
	if ino != 9 {
		t.Errorf("in-order both-ready at %d want 9", ino)
	}
}

func TestDualIssueTwoUnits(t *testing.T) {
	f := New(Config{Policy: OutOfOrderDual, AddLatency: 3, AddPipelined: true,
		MulLatency: 5, ReorderBuffer: 6, InstrQueue: 5, ResultBuses: 2})
	f.DispatchInstr(mkFP(isa.OpFADD, 2, 4, 6, true), 0)
	f.DispatchInstr(mkFP(isa.OpFMUL, 8, 10, 12, true), 0)
	f.Tick(1)
	if f.QueueLen() != 0 {
		t.Errorf("queue len %d after dual issue, want 0", f.QueueLen())
	}
	if f.stats.DualIssues != 1 {
		t.Errorf("dualIssues = %d", f.stats.DualIssues)
	}
}

func TestDualIssueBlockedByDependence(t *testing.T) {
	f := New(Config{Policy: OutOfOrderDual, AddLatency: 3, AddPipelined: true,
		MulLatency: 5, ReorderBuffer: 6, InstrQueue: 5})
	f.DispatchInstr(mkFP(isa.OpFADD, 2, 4, 6, true), 0)
	f.DispatchInstr(mkFP(isa.OpFMUL, 8, 2, 12, true), 0) // reads f2
	f.Tick(1)
	if f.QueueLen() != 1 {
		t.Errorf("dependent pair dual-issued (queue len %d)", f.QueueLen())
	}
}

func TestNonPipelinedUnitBlocksBackToBack(t *testing.T) {
	f := New(Config{Policy: OutOfOrderSingle, MulLatency: 5, MulPipelined: false,
		ReorderBuffer: 6, InstrQueue: 5})
	f.DispatchInstr(mkFP(isa.OpFMUL, 2, 4, 6, true), 0)
	f.DispatchInstr(mkFP(isa.OpFMUL, 8, 10, 12, true), 0)
	runCycles(f, 1, 20)
	// first mul 1→6; second can only issue at 6 → ready 11.
	if f.RegReadyAt(8, true) <= 10 {
		t.Error("iterative multiplier accepted back-to-back issues")
	}
	if f.RegReadyAt(8, true) > 11 {
		t.Error("second multiply result late")
	}
	if f.stats.UnitBusy == 0 {
		t.Error("unit-busy stalls not counted")
	}
}

func TestPipelinedUnitAcceptsPerCycle(t *testing.T) {
	f := New(Config{Policy: OutOfOrderSingle, AddLatency: 3, AddPipelined: true,
		ReorderBuffer: 8, InstrQueue: 8, ResultBuses: 2})
	for i := uint8(0); i < 3; i++ {
		f.DispatchInstr(mkFP(isa.OpFADD, 2+2*i, 8, 10, true), 0)
	}
	runCycles(f, 1, 10)
	// issues at 1,2,3 → ready 4,5,6.
	for i, want := range []uint64{4, 5, 6} {
		reg := uint8(2 + 2*i)
		if f.RegReadyAt(reg, true) > want || f.RegReadyAt(reg, true) <= want-1 {
			t.Errorf("add %d not ready exactly at %d", i, want)
		}
	}
}

func TestResultBusConflict(t *testing.T) {
	// One result bus and two units completing the same cycle: the second
	// issue must be delayed.
	f := New(Config{Policy: OutOfOrderDual, AddLatency: 3, AddPipelined: true,
		CvtLatency: 3, CvtPipelined: true, ReorderBuffer: 8, InstrQueue: 8,
		ResultBuses: 1})
	f.DispatchInstr(mkFP(isa.OpFADD, 2, 4, 6, true), 0)
	cvt := trace.NewRecord(0, isa.Instruction{
		Op: isa.OpCVTD, Fd: 8, Fs: 10, Ft: isa.NoFPReg, CvtSrc: isa.CvtFromW, Double: true,
	})
	f.DispatchInstr(&cvt, 0)
	f.Tick(1)
	if f.stats.DualIssues != 0 {
		t.Error("dual issue despite single result bus")
	}
	if f.stats.BusConflict == 0 {
		t.Error("bus conflict not counted")
	}
	runCycles(f, 2, 12)
	if !f.Drained(13) {
		t.Error("not drained after conflict resolution")
	}
}

func TestROBFullBlocksIssue(t *testing.T) {
	f := New(Config{Policy: OutOfOrderSingle, ReorderBuffer: 1, InstrQueue: 5,
		DivLatency: 19})
	f.DispatchInstr(mkFP(isa.OpFDIV, 2, 4, 6, true), 0)
	f.DispatchInstr(mkFP(isa.OpFADD, 8, 10, 12, true), 0)
	f.Tick(1)
	f.Tick(2)
	if f.stats.Issued != 1 {
		t.Errorf("issued %d with 1-entry ROB", f.stats.Issued)
	}
	if f.stats.ROBFullStall == 0 {
		t.Error("ROB-full stalls not counted")
	}
}

// TestInOrderStallAttribution pins how in-order completion charges its
// stalls. With a one-entry reorder buffer, the buffer is full on every
// cycle an instruction is active: those cycles count as UnitBusy, not
// ROBFullStall. With one instruction active at a time, neither a
// result-bus conflict nor a dual issue can occur, over pipelined and
// iterative units alike.
func TestInOrderStallAttribution(t *testing.T) {
	f := New(Config{Policy: InOrderComplete, ReorderBuffer: 1, InstrQueue: 4, ResultBuses: 1,
		AddLatency: 3, AddPipelined: true, MulLatency: 5, MulPipelined: false})
	f.DispatchInstr(mkFP(isa.OpFADD, 2, 4, 6, true), 0)
	f.DispatchInstr(mkFP(isa.OpFMUL, 8, 10, 12, true), 0)
	f.DispatchInstr(mkFP(isa.OpFADD, 14, 16, 18, true), 0)
	f.DispatchInstr(mkFP(isa.OpFMUL, 20, 22, 24, true), 0)
	runCycles(f, 1, 30)
	// add 1→4, mul 4→9, add 9→12, mul 12→17: the queue holds a waiting
	// instruction through 2+4+2 active cycles.
	s := f.Stats(30)
	if s.Issued != 4 || s.UnitBusy != 8 {
		t.Errorf("issued %d with %d unit-busy cycles, want 4 and 8", s.Issued, s.UnitBusy)
	}
	if s.ROBFullStall != 0 || s.BusConflict != 0 || s.DualIssues != 0 {
		t.Errorf("ROB-full %d, bus conflicts %d, dual issues %d; want all 0",
			s.ROBFullStall, s.BusConflict, s.DualIssues)
	}
}

func TestLoadQueue(t *testing.T) {
	f := New(Config{LoadQueue: 2, Policy: OutOfOrderSingle})
	if !f.CanDispatchLoad() {
		t.Fatal("load queue not accepting")
	}
	seq2 := f.DispatchLoad(2, true)
	f.DispatchLoad(4, true)
	if f.CanDispatchLoad() {
		t.Error("load queue should be full")
	}
	if f.RegReadyAt(2, true) <= 100 {
		t.Error("load dest ready before arrival")
	}
	f.LoadArrived(seq2, 50)
	if !f.CanDispatchLoad() {
		t.Error("slot not freed on arrival")
	}
	if f.RegReadyAt(2, true) <= 50 {
		t.Error("ready same cycle as arrival (should be +1)")
	}
	if f.RegReadyAt(2, true) > 51 {
		t.Error("not ready after write")
	}
}

func TestStoreQueue(t *testing.T) {
	// The store queue slot frees once the awaited writer sequence has
	// completed (the write cache collected the data).
	f := New(Config{StoreQueue: 1, Policy: OutOfOrderSingle,
		AddLatency: 3, AddPipelined: true})
	f.DispatchInstr(mkFP(isa.OpFADD, 2, 4, 6, true), 0)
	seq := f.CaptureWriter(2, true)
	f.DispatchStore(seq, 0)
	if f.CanDispatchStore() {
		t.Error("store queue should be full")
	}
	// The add issues at 1 and completes at 4; the slot drains with it.
	runCycles(f, 1, 3)
	if f.CanDispatchStore() {
		t.Error("slot freed before the data was produced")
	}
	f.Tick(4)
	if !f.CanDispatchStore() {
		t.Error("slot not freed after data completion")
	}
	// A store of an already-ready register drains immediately.
	f.DispatchStore(f.CaptureWriter(2, true), 5)
	f.Tick(6)
	if !f.CanDispatchStore() {
		t.Error("ready-data store slot not freed")
	}
}

func TestFCCAndCompare(t *testing.T) {
	f := New(Config{Policy: OutOfOrderSingle, AddLatency: 3, AddPipelined: true})
	cmp := mkFP(isa.OpCLT, 0, 2, 4, true)
	f.DispatchInstr(cmp, 0)
	if f.FCCReadyAt() <= 0 {
		t.Error("FCC ready with pending compare")
	}
	runCycles(f, 1, 5)
	// compare issues at 1 on the add unit → FCC at 4.
	if f.FCCReadyAt() > 4 {
		t.Error("FCC not ready at 4")
	}
}

func TestMTC1Write(t *testing.T) {
	f := New(Config{})
	f.WriteFromIPU(6, 10)
	if f.RegReadyAt(6, false) <= 10 {
		t.Error("mtc1 data visible instantly")
	}
	if f.RegReadyAt(6, false) > 11 {
		t.Error("mtc1 data not visible after transfer")
	}
}

func TestSqrtUsesDivideUnit(t *testing.T) {
	f := New(Config{Policy: OutOfOrderSingle, DivLatency: 19, InstrQueue: 5,
		ReorderBuffer: 6})
	sq := trace.NewRecord(0, isa.Instruction{
		Op: isa.OpFSQRT, Fd: 2, Fs: 4, Ft: isa.NoFPReg, Double: true,
	})
	f.DispatchInstr(&sq, 0)
	f.DispatchInstr(mkFP(isa.OpFDIV, 6, 8, 10, true), 0)
	runCycles(f, 1, 50)
	// sqrt 1→20; div must wait for the shared unit: 20→39.
	if f.RegReadyAt(6, true) > 39 || f.RegReadyAt(6, true) <= 38 {
		t.Error("divide did not serialise behind sqrt on the shared unit")
	}
}

func TestNormalizeDefaults(t *testing.T) {
	c := Config{}.Normalize()
	d := DefaultConfig()
	if c.InstrQueue != d.InstrQueue || c.DivLatency != d.DivLatency ||
		c.ResultBuses != d.ResultBuses || c.ReorderBuffer != d.ReorderBuffer {
		t.Errorf("normalize: %+v", c)
	}
}

func TestPolicyStrings(t *testing.T) {
	for _, p := range []IssuePolicy{InOrderComplete, OutOfOrderSingle, OutOfOrderDual} {
		if p.String() == "unknown-policy" {
			t.Errorf("missing string for %d", p)
		}
	}
}

func TestPreciseModeSerialises(t *testing.T) {
	f := New(Config{Policy: OutOfOrderDual, Precise: true, InstrQueue: 5,
		ReorderBuffer: 6, AddLatency: 3, AddPipelined: true})
	if !f.CanDispatchInstr() {
		t.Fatal("empty precise FPU refuses dispatch")
	}
	f.DispatchInstr(mkFP(isa.OpFADD, 2, 4, 6, true), 0)
	if f.CanDispatchInstr() {
		t.Error("precise mode accepted a second instruction in flight")
	}
	// Issue at 1, complete at 4, retire at 4 → dispatch reopens after.
	runCycles(f, 1, 4)
	if !f.CanDispatchInstr() {
		t.Error("precise mode did not reopen after drain")
	}
}

func BenchmarkFPUTickIssue(b *testing.B) {
	f := New(DefaultConfig())
	r := mkFP(isa.OpFADD, 2, 4, 6, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if f.CanDispatchInstr() {
			f.DispatchInstr(r, uint64(i))
		}
		f.Tick(uint64(i))
	}
}
