package ipu

import (
	"testing"

	"aurora/internal/isa"
	"aurora/internal/mem"
	"aurora/internal/prefetch"
	"aurora/internal/trace"
)

func testBIU() *mem.BIU {
	return mem.New(mem.Config{Latency: 17, LineTransfer: 4, MaxOutstanding: 8})
}

func noPrefetch() *prefetch.Buffers { return prefetch.New(0, 4, 32) }

func testLSU(mshrs int) (*LSU, *mem.BIU) {
	biu := testBIU()
	l := NewLSU(LSUConfig{
		DCacheBytes: 16 << 10, LineBytes: 32, DCacheLatency: 3,
		MSHRs: mshrs, WriteCacheLines: 4,
	}, biu, noPrefetch(), nil)
	return l, biu
}

// drive runs the memory system until the op completes or maxCycles pass.
func drive(l *LSU, biu *mem.BIU, from uint64, maxCycles int, done *bool) uint64 {
	for now := from; now < from+uint64(maxCycles); now++ {
		biu.Tick(now)
		l.Tick(now)
		if *done {
			return now
		}
	}
	return 0
}

func TestLSULoadHitLatency(t *testing.T) {
	l, biu := testLSU(2)
	// Warm the line.
	var warm bool
	l.Dispatch(MemOp{Addr: 0x2000, OnData: func(uint64) { warm = true }}, 0)
	drive(l, biu, 1, 100, &warm)

	var done bool
	var dataAt uint64
	l.Dispatch(MemOp{Addr: 0x2004, OnData: func(tt uint64) { done = true; dataAt = tt }}, 100)
	drive(l, biu, 101, 50, &done)
	// dispatch at 100, transfer 1 cycle, port access at 101, 3-cycle
	// pipelined cache → data at 104.
	if dataAt != 104 {
		t.Errorf("hit data at %d want 104", dataAt)
	}
}

func TestLSULoadMissLatency(t *testing.T) {
	l, biu := testLSU(2)
	var done bool
	var dataAt uint64
	l.Dispatch(MemOp{Addr: 0x2000, OnData: func(tt uint64) { done = true; dataAt = tt }}, 0)
	drive(l, biu, 1, 100, &done)
	// access at 1, miss → BIU read at 1 → data 1+17+4 = 22.
	if dataAt != 22 {
		t.Errorf("miss data at %d want 22", dataAt)
	}
	if l.DCache().Misses() != 1 {
		t.Errorf("misses %d", l.DCache().Misses())
	}
}

func TestLSUStoreFastCompletion(t *testing.T) {
	l, biu := testLSU(2)
	var done bool
	var at uint64
	l.Dispatch(MemOp{Addr: 0x3000, Store: true, OnData: func(tt uint64) { done = true; at = tt }}, 0)
	drive(l, biu, 1, 20, &done)
	if at != 2 { // transfer 1 + WC access 1
		t.Errorf("store completed at %d want 2", at)
	}
	if l.WriteCache().Stores() != 1 {
		t.Error("store not counted")
	}
}

func TestLSUMSHROccupancy(t *testing.T) {
	l, biu := testLSU(1)
	if !l.CanAccept() {
		t.Fatal("fresh LSU rejects")
	}
	var done bool
	l.Dispatch(MemOp{Addr: 0x2000, OnData: func(uint64) { done = true }}, 0)
	if l.CanAccept() {
		t.Error("1-MSHR LSU accepted a second op")
	}
	drive(l, biu, 1, 100, &done)
	if !l.CanAccept() {
		t.Error("MSHR not released after completion")
	}
}

func TestLSUWriteCacheForwarding(t *testing.T) {
	l, biu := testLSU(2)
	var sdone bool
	l.Dispatch(MemOp{Addr: 0x5000, Store: true, OnData: func(uint64) { sdone = true }}, 0)
	drive(l, biu, 1, 20, &sdone)
	var ldone bool
	var at uint64
	l.Dispatch(MemOp{Addr: 0x5000, OnData: func(tt uint64) { ldone = true; at = tt }}, 20)
	drive(l, biu, 21, 20, &ldone)
	// WC forwarding: 1 cycle after the port access at 21 → 22,
	// beating the 3-cycle external cache.
	if at != 22 {
		t.Errorf("forwarded load at %d want 22", at)
	}
}

func TestLSUPrefetchProbeCounts(t *testing.T) {
	biu := testBIU()
	pfu := prefetch.New(2, 4, 32)
	l := NewLSU(LSUConfig{
		DCacheBytes: 16 << 10, LineBytes: 32, DCacheLatency: 3,
		MSHRs: 4, WriteCacheLines: 4,
	}, biu, pfu, nil)
	// Sequential load misses: the second miss should hit the stream buffer.
	var d1, d2 bool
	l.Dispatch(MemOp{Addr: 0x8000, OnData: func(uint64) { d1 = true }}, 0)
	now := drive(l, biu, 1, 200, &d1)
	for c := now; c < now+60; c++ { // give the prefetch time to land
		biu.Tick(c)
		l.Tick(c)
		pfu.Tick(c, biu)
	}
	l.Dispatch(MemOp{Addr: 0x8020, OnData: func(uint64) { d2 = true }}, now+60)
	drive(l, biu, now+61, 200, &d2)
	st := l.Stats()
	if st.DPrefetchProbes != 2 {
		t.Errorf("probes %d want 2", st.DPrefetchProbes)
	}
	if st.DPrefetchHits != 1 {
		t.Errorf("prefetch hits %d want 1", st.DPrefetchHits)
	}
}

func TestIFUPairDelivery(t *testing.T) {
	biu := testBIU()
	ifu := NewIFU(IFUConfig{ICacheBytes: 4 << 10, LineBytes: 32, FetchQueue: 8},
		biu, noPrefetch(), &trace.SliceStream{Records: seqTrace(0x1000, 8)})
	// First tick: cold miss.
	var now uint64
	for now = 1; now < 100 && len(ifu.Queue()) == 0; now++ {
		biu.Tick(now)
		ifu.Tick(now)
	}
	if len(ifu.Queue()) != 2 {
		t.Fatalf("queue %d after first delivery, want a pair", len(ifu.Queue()))
	}
	q := ifu.Queue()
	if !q[0].PairHead {
		t.Error("aligned pair not marked")
	}
	ifu.Consume(2)
	biu.Tick(now)
	ifu.Tick(now)
	if len(ifu.Queue()) != 2 {
		t.Error("second pair not delivered on the next cycle")
	}
}

func seqTrace(pc uint32, n int) []trace.Record {
	var recs []trace.Record
	for i := 0; i < n; i++ {
		in := isa.Instruction{Op: isa.OpADDU, Rd: 8, Rs: 9, Rt: 10}
		recs = append(recs, trace.NewRecord(pc+uint32(i)*4, in))
	}
	return recs
}

func TestIFUMissStall(t *testing.T) {
	biu := testBIU()
	ifu := NewIFU(IFUConfig{ICacheBytes: 1 << 10, LineBytes: 32, FetchQueue: 8},
		biu, noPrefetch(), &trace.SliceStream{Records: seqTrace(0x1000, 2)})
	ifu.Tick(1)
	if len(ifu.Queue()) != 0 {
		t.Fatal("instructions delivered on a cold miss")
	}
	if !ifu.fillPending || ifu.NextEvent(2) != ifu.fillReady || ifu.fillReady <= 2 {
		t.Error("IFU not stalled during fill")
	}
	var now uint64
	for now = 2; now < 100 && len(ifu.Queue()) == 0; now++ {
		biu.Tick(now)
		ifu.Tick(now)
	}
	// Fill completes at 1+17+4 = 22; delivery the cycle after.
	if now < 22 || now > 26 {
		t.Errorf("delivery at %d, want shortly after cycle 22", now)
	}
	if ifu.ICache().Misses() != 1 {
		t.Errorf("icache misses %d", ifu.ICache().Misses())
	}
}

func TestIFUDone(t *testing.T) {
	biu := testBIU()
	ifu := NewIFU(IFUConfig{ICacheBytes: 4 << 10, LineBytes: 32, FetchQueue: 8},
		biu, noPrefetch(), &trace.SliceStream{Records: seqTrace(0x1000, 2)})
	for now := uint64(1); now < 100; now++ {
		biu.Tick(now)
		ifu.Tick(now)
		if n := len(ifu.Queue()); n > 0 {
			ifu.Consume(n)
		}
	}
	if !ifu.Done() {
		t.Error("IFU not done after trace drained")
	}
}

func TestIFUUnalignedSingleDelivery(t *testing.T) {
	// A branch target at an ODD slot (pc%8 == 4): only one instruction
	// that cycle, and it must not be a pair head.
	biu := testBIU()
	ifu := NewIFU(IFUConfig{ICacheBytes: 4 << 10, LineBytes: 32, FetchQueue: 8},
		biu, noPrefetch(), &trace.SliceStream{Records: seqTrace(0x1004, 1)})
	for now := uint64(1); now < 100 && len(ifu.Queue()) == 0; now++ {
		biu.Tick(now)
		ifu.Tick(now)
	}
	q := ifu.Queue()
	if len(q) != 1 {
		t.Fatalf("queue %d want 1", len(q))
	}
	if q[0].PairHead {
		t.Error("odd-slot instruction marked as pair head")
	}
}

func TestLSUBIUBackpressure(t *testing.T) {
	// A 1-outstanding BIU forces the LSU to retry miss requests.
	biu := mem.New(mem.Config{Latency: 17, LineTransfer: 4, MaxOutstanding: 1})
	l := NewLSU(LSUConfig{
		DCacheBytes: 16 << 10, LineBytes: 32, DCacheLatency: 3,
		MSHRs: 4, WriteCacheLines: 4,
	}, biu, noPrefetch(), nil)
	done := 0
	for i := 0; i < 3; i++ {
		l.Dispatch(MemOp{Addr: 0x40000 + uint32(i)*4096,
			OnData: func(uint64) { done++ }}, 0)
	}
	for now := uint64(1); now < 300; now++ {
		biu.Tick(now)
		l.Tick(now)
	}
	if done != 3 {
		t.Fatalf("completed %d of 3 misses", done)
	}
	if l.Stats().BIUQueueStalls == 0 {
		t.Error("no BIU backpressure recorded despite 1-deep queue")
	}
}

func TestLSUEvictionHoldsPort(t *testing.T) {
	l, biu := testLSU(4)
	// Fill the write cache's 4 lines, then one more store evicts —
	// the eviction transfer holds the cache port.
	var done int
	now := uint64(0)
	for i := 0; i < 5; i++ {
		l.Dispatch(MemOp{Addr: 0x1000 + uint32(i)*0x1000, Store: true,
			OnData: func(uint64) { done++ }}, now)
		for c := 0; c < 4; c++ {
			now++
			biu.Tick(now)
			l.Tick(now)
		}
	}
	for ; now < 200; now++ {
		biu.Tick(now)
		l.Tick(now)
	}
	if done != 5 {
		t.Fatalf("completed %d of 5 stores", done)
	}
	if l.Stats().FillBusy == 0 {
		t.Error("write-cache eviction did not hold the data busses")
	}
	if biu.Stats().Writes != 1 {
		t.Errorf("BIU writes %d want 1", biu.Stats().Writes)
	}
}

func TestLSUFlushWritesRemaining(t *testing.T) {
	l, biu := testLSU(2)
	var done bool
	l.Dispatch(MemOp{Addr: 0x9000, Store: true, OnData: func(uint64) { done = true }}, 0)
	drive(l, biu, 1, 30, &done)
	l.FlushWriteCache(40)
	if biu.Stats().Writes != 1 {
		t.Errorf("flush produced %d BIU writes want 1", biu.Stats().Writes)
	}
}

func TestIFUFetchQueueCapacity(t *testing.T) {
	biu := testBIU()
	ifu := NewIFU(IFUConfig{ICacheBytes: 4 << 10, LineBytes: 32, FetchQueue: 4},
		biu, noPrefetch(), &trace.SliceStream{Records: seqTrace(0x1000, 40)})
	for now := uint64(1); now < 200; now++ {
		biu.Tick(now)
		ifu.Tick(now)
		if len(ifu.Queue()) > 4 {
			t.Fatalf("queue overflow: %d > 4", len(ifu.Queue()))
		}
	}
	if len(ifu.Queue()) != 4 {
		t.Errorf("queue did not fill: %d", len(ifu.Queue()))
	}
}

func TestIFUPrefetchEscalation(t *testing.T) {
	// Straight-line fetch through sequential lines: after the first miss
	// allocates a stream buffer, later misses hit it.
	biu := testBIU()
	pfu := prefetch.New(2, 4, 32)
	ifu := NewIFU(IFUConfig{ICacheBytes: 1 << 10, LineBytes: 32, FetchQueue: 8},
		biu, pfu, &trace.SliceStream{Records: seqTrace(0x10000, 512)})
	for now := uint64(1); now < 5000 && !ifu.Done(); now++ {
		biu.Tick(now)
		ifu.Tick(now)
		if n := len(ifu.Queue()); n > 0 {
			ifu.Consume(n)
		}
		pfu.Tick(now, biu)
	}
	st := ifu.Stats()
	if st.IPrefetchProbes < 10 {
		t.Fatalf("probes %d", st.IPrefetchProbes)
	}
	if float64(st.IPrefetchHits) < 0.7*float64(st.IPrefetchProbes) {
		t.Errorf("sequential I-stream prefetch hit %d/%d", st.IPrefetchHits, st.IPrefetchProbes)
	}
}

func TestLSUTranslateHookDelaysAccess(t *testing.T) {
	l, biu := testLSU(2)
	calls := 0
	l.Translate = func(addr uint32) int {
		calls++
		return 15
	}
	var done bool
	var at uint64
	l.Dispatch(MemOp{Addr: 0x2000, OnData: func(tt uint64) { done = true; at = tt }}, 0)
	drive(l, biu, 1, 200, &done)
	if calls != 1 {
		t.Errorf("translate called %d times", calls)
	}
	// Without the walk a miss completes at 22; the 15-cycle walk shifts it.
	if at < 36 {
		t.Errorf("data at %d — translation walk not applied", at)
	}
}
