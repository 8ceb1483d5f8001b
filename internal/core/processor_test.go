package core

import (
	"strings"
	"testing"

	"aurora/internal/isa"
	"aurora/internal/trace"
)

// tb builds synthetic traces with consistent PCs and dependences.
type tb struct {
	recs []trace.Record
	pc   uint32
}

func newTB() *tb { return &tb{pc: 0x1000} }

func (b *tb) push(in isa.Instruction, memAddr uint32, memSize uint8, taken bool, target uint32) {
	_ = memSize // the access width is predecoded from the opcode
	rec := trace.NewRecord(b.pc, in)
	rec.MemAddr, rec.Taken, rec.Target = memAddr, taken, target
	b.recs = append(b.recs, rec)
	if taken {
		b.pc = target
	} else {
		b.pc += 4
	}
}

func (b *tb) alu(dst, s1, s2 uint8) {
	b.push(isa.Instruction{Op: isa.OpADDU, Rd: dst, Rs: s1, Rt: s2}, 0, 0, false, 0)
}

func (b *tb) load(dst, base uint8, addr uint32) {
	b.push(isa.Instruction{Op: isa.OpLW, Rt: dst, Rs: base}, addr, 4, false, 0)
}

func (b *tb) store(src uint8, addr uint32) {
	b.push(isa.Instruction{Op: isa.OpSW, Rt: src, Rs: 29}, addr, 4, false, 0)
}

func (b *tb) branch(taken bool, target uint32) {
	b.push(isa.Instruction{Op: isa.OpBNE, Rs: 8, Rt: 0}, 0, 0, taken, target)
}

func (b *tb) jr(target uint32) {
	b.push(isa.Instruction{Op: isa.OpJR, Rs: 31}, 0, 0, true, target)
}

func (b *tb) stream() *trace.SliceStream { return &trace.SliceStream{Records: b.recs} }

// loop emits n iterations of body, resetting the PC to a fixed base each
// iteration (modelling a loop body without explicit branch records; the
// pre-decoded NEXT field makes the back edge free anyway).
func (b *tb) loop(n int, body func()) {
	base := b.pc
	for i := 0; i < n; i++ {
		b.pc = base
		body()
	}
}

// bigCache is a config where memory never interferes: huge caches, deep
// resources — isolating the pipeline behaviour under test.
func bigCache() Config {
	c := Config{
		Name:        "test",
		ICacheBytes: 64 << 10, DCacheBytes: 64 << 10,
		WriteCacheLines: 8, ReorderBuffer: 16,
		PrefetchBuffers: 4, MSHRs: 8,
	}
	return c.Normalize()
}

func mustRun(t *testing.T, cfg Config, st trace.Stream) *Report {
	t.Helper()
	p, err := NewProcessor(cfg, st)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// warm pre-touches the caches so the measured section is steady-state: it
// simply prepends a copy of the trace (same PCs, same addresses).
func warm(b *tb) *trace.SliceStream {
	recs := append(append([]trace.Record{}, b.recs...), b.recs...)
	return &trace.SliceStream{Records: recs}
}

func TestIndependentALUDualIssues(t *testing.T) {
	b := newTB()
	b.loop(100, func() {
		for i := 0; i < 4; i++ {
			b.alu(uint8(8+i%2), 4, 5) // t0/t1 alternate: no pair dependence
		}
	})
	rep := mustRun(t, bigCache(), b.stream())
	if cpi := rep.CPI(); cpi > 0.65 {
		t.Errorf("independent ALU dual-issue CPI %.3f, want ≈0.5", cpi)
	}
	if rep.DualIssues < 150 {
		t.Errorf("dual issues %d too few", rep.DualIssues)
	}
}

func TestSingleIssueWidthBound(t *testing.T) {
	b := newTB()
	b.loop(100, func() {
		for i := 0; i < 4; i++ {
			b.alu(uint8(8+i%2), 4, 5)
		}
	})
	rep := mustRun(t, bigCache().WithIssueWidth(1), b.stream())
	if cpi := rep.CPI(); cpi < 0.99 {
		t.Errorf("single-issue CPI %.3f below 1", cpi)
	}
	if rep.DualIssues != 0 {
		t.Error("dual issues on a single-issue machine")
	}
}

func TestDependentALUForwarding(t *testing.T) {
	// A fully serial ALU chain: forwarding makes it 1 CPI, not worse —
	// but the same-pair dependence blocks dual issue.
	b := newTB()
	b.loop(100, func() {
		for i := 0; i < 4; i++ {
			b.alu(8, 8, 9)
		}
	})
	rep := mustRun(t, bigCache(), b.stream())
	if cpi := rep.CPI(); cpi > 1.1 {
		t.Errorf("dependent chain CPI %.3f, forwarding broken", cpi)
	}
	if rep.DualIssues > 0 {
		t.Error("dependent pair dual-issued (DI bit ignored)")
	}
}

func TestLoadUseStall(t *testing.T) {
	// load ; use — the 3-cycle pipelined data cache forces ~2-cycle
	// stalls on immediate consumers (paper §5.3's Load stalls).
	b := newTB()
	i := 0
	b.loop(300, func() {
		b.load(8, 29, 0x2000+uint32(i%64)*4)
		b.alu(9, 8, 8)
		i++
	})
	rep := mustRun(t, bigCache(), warm(b))
	if rep.StallCPI(StallLoad) < 0.4 {
		t.Errorf("load-use stall CPI %.3f too low", rep.StallCPI(StallLoad))
	}
}

func TestLoadIndependentNoStall(t *testing.T) {
	// Loads whose results are never read promptly: the non-blocking cache
	// hides the latency.
	b := newTB()
	i := 0
	b.loop(300, func() {
		b.load(8, 29, 0x2000+uint32(i%64)*4)
		b.alu(9, 10, 11)
		b.alu(12, 10, 11)
		b.alu(13, 10, 11)
		i++
	})
	rep := mustRun(t, bigCache(), warm(b))
	if rep.StallCPI(StallLoad) > 0.05 {
		t.Errorf("independent loads stalled: %.3f", rep.StallCPI(StallLoad))
	}
}

func TestMSHRSerialisation(t *testing.T) {
	// Two configs differing only in MSHR count; a miss-heavy independent
	// load stream overlaps with 4 MSHRs and serialises with 1
	// (the paper's Figure 7 effect).
	mk := func(mshrs int) uint64 {
		b := newTB()
		i := 0
		b.loop(200, func() {
			// Strided to miss: spread over 128 KB > cache.
			b.load(uint8(8+i%4), 29, 0x10000+uint32(i)*512)
			b.alu(14, 15, 16)
			b.alu(17, 15, 16)
			i++
		})
		cfg := bigCache()
		cfg.DCacheBytes = 16 << 10
		cfg.MSHRs = mshrs
		cfg.PrefetchBuffers = 0 // strided: prefetch would not help anyway
		rep := mustRun(t, cfg, b.stream())
		return rep.Cycles
	}
	one, four := mk(1), mk(4)
	if float64(one) < 1.5*float64(four) {
		t.Errorf("blocking cache not slower: 1 MSHR %d cycles vs 4 MSHRs %d", one, four)
	}
}

func TestROBFullStall(t *testing.T) {
	// Long-latency multiplies with a tiny ROB: retirement backs up.
	b := newTB()
	b.loop(200, func() {
		b.push(isa.Instruction{Op: isa.OpMULT, Rs: 8, Rt: 9}, 0, 0, false, 0)
		b.alu(10, 11, 12)
		b.alu(13, 11, 12)
	})
	cfg := bigCache()
	cfg.ReorderBuffer = 2
	rep := mustRun(t, cfg, b.stream())
	if rep.StallCPI(StallROBFull) < 0.2 {
		t.Errorf("ROB-full CPI %.3f too low with 2-entry ROB", rep.StallCPI(StallROBFull))
	}
}

func TestBranchFoldingNoBubble(t *testing.T) {
	// A tight taken-branch loop: branch folding must keep CPI near the
	// issue bound (no taken-branch penalty).
	b := newTB()
	loopTop := b.pc
	for i := 0; i < 300; i++ {
		b.alu(8, 8, 9)          // even slot
		b.branch(true, loopTop) // odd slot: taken, folds
		b.alu(10, 10, 9)        // delay-slot instruction at target... (trace order)
		b.pc = loopTop          // loop body repeats at same PCs
	}
	b.pc = 0x9000
	rep := mustRun(t, bigCache(), b.stream())
	if cpi := rep.CPI(); cpi > 1.1 {
		t.Errorf("taken-branch loop CPI %.3f — folding not effective", cpi)
	}
}

func TestJRBubble(t *testing.T) {
	// jr-dense code pays fetch bubbles (the NEXT field cannot fold
	// register-indirect targets).
	direct := newTB()
	indirect := newTB()
	direct.loop(300, func() {
		direct.alu(8, 9, 10)
		direct.alu(11, 9, 10)
	})
	indirect.loop(300, func() {
		indirect.alu(8, 9, 10)
		indirect.jr(indirect.pc + 4)
	})
	d := mustRun(t, bigCache(), direct.stream())
	j := mustRun(t, bigCache(), indirect.stream())
	if j.Cycles <= d.Cycles {
		t.Errorf("jr stream (%d cycles) not slower than ALU stream (%d)", j.Cycles, d.Cycles)
	}
}

func TestWriteCoalescing(t *testing.T) {
	// 8 sequential word stores per line: ≈1 transaction per 8 stores.
	b := newTB()
	i := 0
	b.loop(400, func() {
		b.store(8, 0x4000+uint32(i)*4)
		i++
	})
	rep := mustRun(t, bigCache(), b.stream())
	if r := rep.WriteTrafficRatio(); r > 0.2 {
		t.Errorf("sequential store traffic ratio %.3f, want ≈0.125", r)
	}
	if rep.WCStores != 400 {
		t.Errorf("stores %d", rep.WCStores)
	}
}

func TestRepeatedStoreCoalescing(t *testing.T) {
	// The paper's loop-index pattern: same address stored repeatedly.
	b := newTB()
	b.loop(400, func() {
		b.store(8, 0x4000)
	})
	rep := mustRun(t, bigCache(), b.stream())
	if r := rep.WriteTrafficRatio(); r > 0.01 {
		t.Errorf("repeated store traffic ratio %.3f", r)
	}
	if rep.WriteCacheHitRate() < 0.95 {
		t.Errorf("write cache hit rate %.3f", rep.WriteCacheHitRate())
	}
}

func TestICacheMissStalls(t *testing.T) {
	// Straight-line code far exceeding the instruction cache, prefetch
	// disabled: fetch stalls dominate.
	b := newTB()
	for i := 0; i < 4000; i++ {
		b.alu(uint8(8+i%2), 4, 5)
	}
	cfg := bigCache()
	cfg.ICacheBytes = 1 << 10
	off := cfg.WithoutPrefetch()
	repOff := mustRun(t, off, b.stream())
	b2 := newTB()
	for i := 0; i < 4000; i++ {
		b2.alu(uint8(8+i%2), 4, 5)
	}
	repOn := mustRun(t, cfg, b2.stream())
	if repOff.StallCPI(StallICache) < 0.5 {
		t.Errorf("icache stall CPI %.3f too low without prefetch", repOff.StallCPI(StallICache))
	}
	// Sequential prefetch must recover a large share of the penalty.
	if float64(repOn.Cycles) > 0.8*float64(repOff.Cycles) {
		t.Errorf("prefetch saved too little: %d vs %d cycles", repOn.Cycles, repOff.Cycles)
	}
	if repOn.IPrefetchHitRate() < 0.5 {
		t.Errorf("sequential I-prefetch hit rate %.2f", repOn.IPrefetchHitRate())
	}
}

func TestDualIssueConstraintOneMemOp(t *testing.T) {
	// Pairs of two memory operations must not dual-issue.
	b := newTB()
	b.loop(200, func() {
		b.load(8, 29, 0x2000)
		b.load(9, 29, 0x2004)
	})
	rep := mustRun(t, bigCache(), warm(b))
	if rep.DualIssues > 0 {
		t.Errorf("two memory ops dual-issued %d times", rep.DualIssues)
	}
}

func TestInstructionsRetiredMatchesTrace(t *testing.T) {
	b := newTB()
	b.loop(777, func() {
		b.alu(8, 9, 10)
	})
	rep := mustRun(t, bigCache(), b.stream())
	if rep.Instructions != 777 {
		t.Errorf("retired %d want 777", rep.Instructions)
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{ICacheBytes: 128, DCacheBytes: 16 << 10, ReorderBuffer: 2, MSHRs: 1, WriteCacheLines: 2},
		{ICacheBytes: 1 << 10, DCacheBytes: 128, ReorderBuffer: 2, MSHRs: 1, WriteCacheLines: 2},
		{ICacheBytes: 1 << 10, DCacheBytes: 16 << 10, ReorderBuffer: 0, MSHRs: 1, WriteCacheLines: 2},
		{ICacheBytes: 1 << 10, DCacheBytes: 16 << 10, ReorderBuffer: 2, MSHRs: 0, WriteCacheLines: 2},
		{ICacheBytes: 1 << 10, DCacheBytes: 16 << 10, ReorderBuffer: 2, MSHRs: 1, WriteCacheLines: 0},
	}
	for i, c := range bad {
		c.IssueWidth = 2
		if _, err := NewProcessor(c, &trace.SliceStream{}); err == nil {
			t.Errorf("config %d accepted: %+v", i, c)
		}
	}
	if _, err := NewProcessor(Baseline(), &trace.SliceStream{}); err != nil {
		t.Errorf("baseline rejected: %v", err)
	}
}

// TestFetchQueueHoldsAPair: fetch waits for room for a whole pair, so a
// one-entry queue would never receive an instruction; it used to pass
// validation and spin until the runaway guard stopped it.
func TestFetchQueueHoldsAPair(t *testing.T) {
	cfg := Baseline()
	cfg.FetchQueue = 1
	if _, err := NewProcessor(cfg, &trace.SliceStream{}); err == nil || !strings.Contains(err.Error(), "fetch queue") {
		t.Errorf("one-entry fetch queue: error %v, want a fetch queue error", err)
	}
	cfg.FetchQueue = 2
	if _, err := NewProcessor(cfg, &trace.SliceStream{}); err != nil {
		t.Errorf("two-entry fetch queue rejected: %v", err)
	}
}

func TestModelPresets(t *testing.T) {
	s, b, l := Small(), Baseline(), Large()
	// Table 1 resources.
	if s.ICacheBytes != 1024 || b.ICacheBytes != 2048 || l.ICacheBytes != 4096 {
		t.Error("icache sizes wrong")
	}
	if s.WriteCacheLines != 2 || b.WriteCacheLines != 4 || l.WriteCacheLines != 8 {
		t.Error("write cache sizes wrong")
	}
	if s.ReorderBuffer != 2 || b.ReorderBuffer != 6 || l.ReorderBuffer != 8 {
		t.Error("reorder buffers wrong")
	}
	if s.PrefetchBuffers != 2 || b.PrefetchBuffers != 4 || l.PrefetchBuffers != 8 {
		t.Error("prefetch buffers wrong")
	}
	if s.MSHRs != 1 || b.MSHRs != 2 || l.MSHRs != 4 {
		t.Error("MSHR counts wrong")
	}
	// §5.6 point E.
	e := RecommendedE()
	if e.ICacheBytes != 4096 || e.MSHRs != 4 || e.WriteCacheLines != 4 || e.ReorderBuffer != 6 {
		t.Errorf("point E wrong: %+v", e)
	}
	// Cost ordering and the Figure 8 statement: E costs less than large.
	ec, _ := e.CostRBE()
	lc, _ := l.CostRBE()
	if ec >= lc {
		t.Errorf("point E (%d RBE) not cheaper than large (%d)", ec, lc)
	}
}

func TestReportString(t *testing.T) {
	b := newTB()
	for i := 0; i < 50; i++ {
		b.alu(8, 9, 10)
	}
	rep := mustRun(t, bigCache(), b.stream())
	s := rep.String()
	if len(s) < 50 {
		t.Errorf("report string too short: %q", s)
	}
}

func TestStallCauseNames(t *testing.T) {
	for c := StallCause(0); c < NumStallCauses; c++ {
		if c.String() == "" {
			t.Errorf("missing name for cause %d", c)
		}
	}
}

func TestEmptyTrace(t *testing.T) {
	rep := mustRun(t, Baseline(), &trace.SliceStream{})
	if rep.Instructions != 0 || rep.CPI() != 0 {
		t.Errorf("empty trace: %d instr CPI %f", rep.Instructions, rep.CPI())
	}
}

func TestBranchFoldingAblation(t *testing.T) {
	// A tight taken-branch loop: with folding disabled, every taken branch
	// pays a fetch bubble that a saturated issue stage cannot hide.
	mk := func() *trace.SliceStream {
		b := newTB()
		loopTop := b.pc
		for i := 0; i < 300; i++ {
			b.alu(8, 8, 9)
			b.alu(10, 10, 9)
			b.branch(true, loopTop)
			b.alu(11, 11, 9) // delay slot
			b.pc = loopTop
		}
		b.pc = 0x9000
		return b.stream()
	}
	fold := mustRun(t, bigCache(), mk())
	cfg := bigCache()
	cfg.DisableBranchFolding = true
	unfold := mustRun(t, cfg, mk())
	if float64(unfold.Cycles) < 1.10*float64(fold.Cycles) {
		t.Errorf("folding ablation too cheap: %d vs %d cycles", unfold.Cycles, fold.Cycles)
	}
}

func TestMMUExtension(t *testing.T) {
	// With the MMU model enabled, a TLB-missing access pattern slows down
	// and the report carries the MMU statistics.
	mk := func(withMMU bool, pages int) *Report {
		b := newTB()
		i := 0
		b.loop(400, func() {
			// One load per iteration, walking many pages.
			b.load(8, 29, uint32(0x100000+(i%pages)*4096))
			b.alu(9, 10, 11)
			i++
		})
		cfg := bigCache()
		cfg.DCacheBytes = 64 << 10
		if withMMU {
			cfg.MMU.TLBEntries = 8
			cfg.MMU.PageBytes = 4096
			cfg.MMU.WalkLatency = 20
		}
		return mustRun(t, cfg, b.stream())
	}
	// 64 pages >> 8 TLB entries: every access walks.
	slow := mk(true, 64)
	fast := mk(false, 64)
	if slow.Cycles <= fast.Cycles {
		t.Errorf("TLB walks free: %d vs %d cycles", slow.Cycles, fast.Cycles)
	}
	if slow.MMU.TLBMisses == 0 {
		t.Error("no TLB misses recorded")
	}
	// 4 pages << 8 entries: TLB warm, nearly free.
	warm := mk(true, 4)
	if warm.MMU.TLBMissRate() > 0.05 {
		t.Errorf("warm TLB miss rate %.3f", warm.MMU.TLBMissRate())
	}
}

func TestMMUL2Extension(t *testing.T) {
	// An L2 behind the BIU turns repeated misses over a small region into
	// L2 hits (fast) while a huge streaming region goes to DRAM (slow).
	mk := func(span uint32) *Report {
		b := newTB()
		i := uint32(0)
		b.loop(600, func() {
			b.load(uint8(8+i%4), 29, 0x100000+(i*512)%span)
			b.alu(14, 15, 16)
			i++
		})
		cfg := bigCache()
		cfg.DCacheBytes = 16 << 10
		cfg.PrefetchBuffers = 0
		cfg.MMU.L2Bytes = 256 << 10
		cfg.MMU.L2LineBytes = 32
		cfg.MMU.L2HitLatency = 8
		cfg.MMU.DRAMLatency = 60
		// Two passes so the second pass can hit the L2.
		recs := append(append([]trace.Record{}, b.recs...), b.recs...)
		return mustRun(t, cfg, &trace.SliceStream{Records: recs})
	}
	small := mk(64 << 10) // fits the L2: second pass hits
	big := mk(1 << 20)    // greatly exceeds it: mostly DRAM
	if small.MMU.L2HitRate() < 0.3 {
		t.Errorf("L2 hit rate %.2f for a fitting region", small.MMU.L2HitRate())
	}
	if big.MMU.L2HitRate() > small.MMU.L2HitRate() {
		t.Error("streaming region hit the L2 more than the fitting one")
	}
	if small.Cycles >= big.Cycles {
		t.Errorf("L2 hits not faster: %d vs %d cycles", small.Cycles, big.Cycles)
	}
}

func TestVictimCacheExtension(t *testing.T) {
	// Two arrays aliasing in the direct-mapped cache: ping-pong conflict
	// misses that a 4-line victim cache converts to near-hits.
	mk := func(victims int) *Report {
		b := newTB()
		i := 0
		b.loop(400, func() {
			// Same index, different tags: classic conflict pair.
			b.load(8, 29, 0x10000+uint32(i%8)*4)
			b.alu(9, 10, 11)
			b.load(12, 29, 0x20000+uint32(i%8)*4)
			b.alu(13, 10, 11)
			i++
		})
		cfg := bigCache()
		cfg.DCacheBytes = 16 << 10 // 0x10000 and 0x20000 share the index
		cfg.PrefetchBuffers = 0
		cfg.VictimLines = victims
		return mustRun(t, cfg, b.stream())
	}
	none := mk(0)
	four := mk(4)
	if float64(four.Cycles) > 0.7*float64(none.Cycles) {
		t.Errorf("victim cache saved too little: %d vs %d cycles", four.Cycles, none.Cycles)
	}
	if none.DCacheMisses < 300 {
		t.Errorf("conflict pattern did not miss: %d", none.DCacheMisses)
	}
}

// --- FP decoupling and stall attribution ---

func fpRec(b *tb, op isa.Op, fd, fs, ft uint8) {
	b.push(isa.Instruction{Op: op, Fd: fd, Fs: fs, Ft: ft, Double: true}, 0, 0, false, 0)
}

func TestFPQueueFullStallsAsFPU(t *testing.T) {
	// A flood of long-latency divides with a tiny FP instruction queue:
	// the IPU must stall with cause FPU once the queue fills.
	b := newTB()
	b.loop(100, func() {
		for i := 0; i < 4; i++ {
			fpRec(b, isa.OpFDIV, uint8(2+2*i), 10, 12)
		}
	})
	cfg := bigCache()
	cfg.FPU.InstrQueue = 2
	cfg.FPU.DivLatency = 19
	rep := mustRun(t, cfg, b.stream())
	if rep.StallCPI(StallFPU) < 1.0 {
		t.Errorf("FPU stall CPI %.3f too low for a divide flood", rep.StallCPI(StallFPU))
	}
	if rep.FPU.Dispatched != 400 {
		t.Errorf("dispatched %d", rep.FPU.Dispatched)
	}
}

func TestMFC1WaitsForFPResult(t *testing.T) {
	// div.d f2 ; mfc1 t0, f2 — the move must wait out the divide.
	b := newTB()
	b.loop(50, func() {
		fpRec(b, isa.OpFDIV, 2, 10, 12)
		b.push(isa.Instruction{Op: isa.OpMFC1, Rt: 8, Fs: 2}, 0, 0, false, 0)
		b.alu(9, 8, 8)
	})
	cfg := bigCache()
	cfg.FPU.DivLatency = 19
	rep := mustRun(t, cfg, b.stream())
	if rep.CPI() < 6 {
		t.Errorf("CPI %.3f — mfc1 did not serialise on the divide", rep.CPI())
	}
	if rep.StallCPI(StallFPU) < 4 {
		t.Errorf("FPU stall %.3f too low", rep.StallCPI(StallFPU))
	}
}

func TestFCCBranchWaitsForCompare(t *testing.T) {
	b := newTB()
	b.loop(50, func() {
		b.push(isa.Instruction{Op: isa.OpCLT, Fs: 2, Ft: 4, Double: true}, 0, 0, false, 0)
		b.push(isa.Instruction{Op: isa.OpBC1T}, 0, 0, false, 0)
		b.alu(9, 10, 11)
	})
	rep := mustRun(t, bigCache(), b.stream())
	// The compare takes the add unit's 3 cycles; the branch waits.
	if rep.CPI() < 1.3 {
		t.Errorf("CPI %.3f — bc1t did not wait for the compare", rep.CPI())
	}
}

func TestFPLoadQueueLimit(t *testing.T) {
	// Many outstanding FP loads with a 1-entry load queue: dispatch
	// serialises on the queue slot.
	mk := func(lq int) uint64 {
		b := newTB()
		i := 0
		b.loop(200, func() {
			b.push(isa.Instruction{Op: isa.OpLDC1, Ft: uint8(2 + 2*(i%4)), Rs: 29, Double: true},
				uint32(0x40000+i*512), 8, false, 0)
			b.alu(9, 10, 11)
			b.alu(12, 10, 11)
			i++
		})
		cfg := bigCache()
		cfg.DCacheBytes = 16 << 10
		cfg.PrefetchBuffers = 0
		cfg.FPU.LoadQueue = lq
		rep := mustRun(t, cfg, b.stream())
		return rep.Cycles
	}
	one, four := mk(1), mk(4)
	if float64(one) < 1.2*float64(four) {
		t.Errorf("1-entry load queue (%d cycles) not slower than 4 (%d)", one, four)
	}
}

func TestDCacheLatencyConfig(t *testing.T) {
	// The Load-stall penalty must track the configured pipelined-cache
	// latency (§5.3: the large model's stalls come from these 3 cycles).
	mk := func(lat int) float64 {
		b := newTB()
		b.loop(300, func() {
			b.load(8, 29, 0x2000)
			b.alu(9, 8, 8)
		})
		cfg := bigCache()
		cfg.DCacheLatency = lat
		return mustRun(t, cfg, warm(b)).CPI()
	}
	c1, c3, c6 := mk(1), mk(3), mk(6)
	if !(c1 < c3 && c3 < c6) {
		t.Errorf("CPI not increasing with cache latency: %.3f %.3f %.3f", c1, c3, c6)
	}
}

func TestMemoryLatencyConfig(t *testing.T) {
	mk := func(lat int) float64 {
		b := newTB()
		i := 0
		b.loop(200, func() {
			b.load(8, 29, uint32(0x40000+i*4096))
			b.alu(9, 8, 8)
			i++
		})
		cfg := bigCache().WithLatency(lat)
		cfg.DCacheBytes = 16 << 10
		cfg.PrefetchBuffers = 0
		return mustRun(t, cfg, b.stream()).CPI()
	}
	if c17, c35 := mk(17), mk(35); c35 < c17*1.3 {
		t.Errorf("35-cycle latency (%.3f) not clearly slower than 17 (%.3f)", c35, c17)
	}
}

func TestFetchQueueDepth(t *testing.T) {
	// A deeper fetch queue rides out icache-miss bubbles better on
	// bursty code.
	mk := func(fq int) uint64 {
		b := newTB()
		for i := 0; i < 3000; i++ {
			b.alu(uint8(8+i%2), 4, 5)
		}
		cfg := bigCache()
		cfg.ICacheBytes = 1 << 10
		cfg.FetchQueue = fq
		return mustRun(t, cfg, b.stream()).Cycles
	}
	shallow, deep := mk(2), mk(16)
	if deep > shallow {
		t.Errorf("deep fetch queue slower: %d vs %d", deep, shallow)
	}
}
