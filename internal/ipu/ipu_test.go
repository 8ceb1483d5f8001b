package ipu

import (
	"math/rand"
	"testing"

	"aurora/internal/bpred"
	"aurora/internal/isa"
	"aurora/internal/mem"
	"aurora/internal/prefetch"
	"aurora/internal/trace"
)

func testBIU() *mem.BIU {
	return mem.New(mem.Config{Latency: 17, LineTransfer: 4, MaxOutstanding: 8})
}

func noPrefetch() *prefetch.Buffers { return prefetch.New(0, 4, 32) }

func testLSU(mshrs int) (*LSU, *mem.BIU, map[uint32]uint64) {
	biu := testBIU()
	l := NewLSU(LSUConfig{
		DCacheBytes: 16 << 10, LineBytes: 32, DCacheLatency: 3,
		MSHRs: mshrs, WriteCacheLines: 4,
	}, biu, noPrefetch())
	return l, biu, completions(l)
}

// completions sets l's completion hook to record, by address, the cycle
// each op completed.
func completions(l *LSU) map[uint32]uint64 {
	done := map[uint32]uint64{}
	l.OnComplete = func(op *MemOp, t uint64) { done[op.Addr] = t }
	return done
}

// drive runs the memory system until the op at addr has completed or
// maxCycles pass, and returns the cycle it saw the completion in.
func drive(l *LSU, biu *mem.BIU, done map[uint32]uint64, addr uint32, from uint64, maxCycles int) uint64 {
	for now := from; now < from+uint64(maxCycles); now++ {
		biu.Tick(now)
		l.Tick(now)
		if _, ok := done[addr]; ok {
			return now
		}
	}
	return 0
}

func TestLSULoadHitLatency(t *testing.T) {
	l, biu, done := testLSU(2)
	// Warm the line.
	l.Dispatch(MemOp{Addr: 0x2000}, 0)
	drive(l, biu, done, 0x2000, 1, 100)

	l.Dispatch(MemOp{Addr: 0x2004}, 100)
	drive(l, biu, done, 0x2004, 101, 50)
	// dispatch at 100, transfer 1 cycle, port access at 101, 3-cycle
	// pipelined cache → data at 104.
	if dataAt := done[0x2004]; dataAt != 104 {
		t.Errorf("hit data at %d want 104", dataAt)
	}
}

func TestLSULoadMissLatency(t *testing.T) {
	l, biu, done := testLSU(2)
	l.Dispatch(MemOp{Addr: 0x2000}, 0)
	drive(l, biu, done, 0x2000, 1, 100)
	// access at 1, miss → BIU read at 1 → data 1+17+4 = 22.
	if dataAt := done[0x2000]; dataAt != 22 {
		t.Errorf("miss data at %d want 22", dataAt)
	}
	if l.DCache().Misses() != 1 {
		t.Errorf("misses %d", l.DCache().Misses())
	}
}

func TestLSUStoreFastCompletion(t *testing.T) {
	l, biu, done := testLSU(2)
	l.Dispatch(MemOp{Addr: 0x3000, Store: true}, 0)
	drive(l, biu, done, 0x3000, 1, 20)
	if at := done[0x3000]; at != 2 { // transfer 1 + WC access 1
		t.Errorf("store completed at %d want 2", at)
	}
	if l.WriteCache().Stores() != 1 {
		t.Error("store not counted")
	}
}

func TestLSUMSHROccupancy(t *testing.T) {
	l, biu, done := testLSU(1)
	if !l.CanAccept() {
		t.Fatal("fresh LSU rejects")
	}
	l.Dispatch(MemOp{Addr: 0x2000}, 0)
	if l.CanAccept() {
		t.Error("1-MSHR LSU accepted a second op")
	}
	drive(l, biu, done, 0x2000, 1, 100)
	if !l.CanAccept() {
		t.Error("MSHR not released after completion")
	}
}

func TestLSUWriteCacheForwarding(t *testing.T) {
	l, biu, done := testLSU(2)
	l.Dispatch(MemOp{Addr: 0x5000, Store: true}, 0)
	drive(l, biu, done, 0x5000, 1, 20)
	delete(done, 0x5000) // the load below completes at the same address
	l.Dispatch(MemOp{Addr: 0x5000}, 20)
	drive(l, biu, done, 0x5000, 21, 20)
	// WC forwarding: 1 cycle after the port access at 21 → 22,
	// beating the 3-cycle external cache.
	if at := done[0x5000]; at != 22 {
		t.Errorf("forwarded load at %d want 22", at)
	}
}

func TestLSUPrefetchProbeCounts(t *testing.T) {
	biu := testBIU()
	pfu := prefetch.New(2, 4, 32)
	l := NewLSU(LSUConfig{
		DCacheBytes: 16 << 10, LineBytes: 32, DCacheLatency: 3,
		MSHRs: 4, WriteCacheLines: 4,
	}, biu, pfu)
	done := completions(l)
	// Sequential load misses: the second miss should hit the stream buffer.
	l.Dispatch(MemOp{Addr: 0x8000}, 0)
	now := drive(l, biu, done, 0x8000, 1, 200)
	for c := now; c < now+60; c++ { // give the prefetch time to land
		biu.Tick(c)
		l.Tick(c)
		pfu.Tick(c, biu)
	}
	l.Dispatch(MemOp{Addr: 0x8020}, now+60)
	drive(l, biu, done, 0x8020, now+61, 200)
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
	if q := ifu.Queue(); q[0].Rec.PC != 0x1000 || q[1].Rec.PC != 0x1004 {
		t.Errorf("first delivery %#x, %#x, want the aligned pair 0x1000, 0x1004", q[0].Rec.PC, q[1].Rec.PC)
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
	// that cycle, though its dynamic successor is already buffered.
	biu := testBIU()
	ifu := NewIFU(IFUConfig{ICacheBytes: 4 << 10, LineBytes: 32, FetchQueue: 8},
		biu, noPrefetch(), &trace.SliceStream{Records: seqTrace(0x1004, 3)})
	for now := uint64(1); now < 100 && len(ifu.Queue()) == 0; now++ {
		biu.Tick(now)
		ifu.Tick(now)
	}
	q := ifu.Queue()
	if len(q) != 1 || q[0].Rec.PC != 0x1004 {
		t.Fatalf("first delivery %+v, want the odd-slot instruction alone", q)
	}
}

// batchStream hands a trace out in random batches, mostly of 1 to 5
// records so the IFU's refills start at every ring offset and wrap, and
// one time in four as many as the IFU offers, filling its free span.
type batchStream struct {
	recs []trace.Record
	rng  *rand.Rand
}

func (s *batchStream) NextBatch(buf []trace.Record) int {
	if s.rng.Intn(4) != 0 {
		buf = buf[:min(len(buf), 1+s.rng.Intn(5))]
	}
	n := copy(buf, s.recs)
	s.recs = s.recs[n:]
	return n
}

func (s *batchStream) Err() error { return nil }

// TestIFURingDelivers: whatever the fetch queue size, the stream's batch
// sizes and the pace of issue, the IFU delivers the stream's records in
// order, none dropped or repeated, reports Done only after the last one,
// and marks for a redirect exactly the delay slots of the branches its
// predictor got wrong.
func TestIFURingDelivers(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		recs := randomTrace(rng, 200+rng.Intn(400))
		bp, err := bpred.Parse([]string{"folding", "static", "bimodal", "gshare"}[rng.Intn(4)])
		if err != nil {
			t.Fatal(err)
		}
		// A twin predictor trained in program order names the mispredicts.
		wantMark := make([]bool, len(recs)+1)
		if twin := bpred.New(bp); twin != nil {
			for i, r := range recs {
				if r.SI.Class == isa.ClassBranch {
					if twin.Predict(r.PC, r.Target) != r.Taken {
						twin.Recover()
						wantMark[i+1] = true
					}
					twin.Update(r.PC, r.Taken)
				}
			}
		}
		queue := 2 + rng.Intn(8)
		biu := testBIU()
		ifu := NewIFU(IFUConfig{ICacheBytes: 512, LineBytes: 32, FetchQueue: queue, BPred: bp},
			biu, noPrefetch(), &batchStream{recs: recs, rng: rng})
		issued := 0
		for now := uint64(1); !ifu.Done(); now++ {
			if now > 100_000 {
				t.Fatalf("seed %d: %d of %d records issued after %d cycles", seed, issued, len(recs), now)
			}
			biu.Tick(now)
			ifu.Tick(now)
			q := ifu.Queue()
			if len(q) > queue {
				t.Fatalf("seed %d cycle %d: %d queued, fetch queue holds %d", seed, now, len(q), queue)
			}
			for _, fi := range q[:min(len(q), rng.Intn(3))] {
				if issued == len(recs) || fi.Rec.PC != recs[issued].PC {
					t.Fatalf("seed %d cycle %d: issued %#x as record %d of %d", seed, now, fi.Rec.PC, issued, len(recs))
				}
				if fi.Redirect != wantMark[issued] {
					t.Fatalf("seed %d cycle %d: record %d (%#x) redirect mark %v, want %v",
						seed, now, issued, fi.Rec.PC, fi.Redirect, wantMark[issued])
				}
				ifu.Consume(1)
				issued++
			}
		}
		if issued != len(recs) {
			t.Fatalf("seed %d: Done after %d of %d records", seed, issued, len(recs))
		}
	}
}

func TestLSUBIUBackpressure(t *testing.T) {
	// A 1-outstanding BIU forces the LSU to retry miss requests: the three
	// misses, dispatched together, complete one after another, each a full
	// memory latency after the one before.
	cfg := mem.Config{Latency: 17, LineTransfer: 4, MaxOutstanding: 1}
	biu := mem.New(cfg)
	l := NewLSU(LSUConfig{
		DCacheBytes: 16 << 10, LineBytes: 32, DCacheLatency: 3,
		MSHRs: 4, WriteCacheLines: 4,
	}, biu, noPrefetch())
	done := completions(l)
	for i := 0; i < 3; i++ {
		l.Dispatch(MemOp{Addr: 0x40000 + uint32(i)*4096}, 0)
	}
	for now := uint64(1); now < 300; now++ {
		biu.Tick(now)
		l.Tick(now)
	}
	if len(done) != 3 {
		t.Fatalf("completed %d of 3 misses", len(done))
	}
	for i := 1; i < 3; i++ {
		prev, at := done[0x40000+uint32(i-1)*4096], done[0x40000+uint32(i)*4096]
		if at < prev+uint64(cfg.Latency) {
			t.Errorf("miss %d completed at %d, miss %d at %d: not serialised by the 1-deep BIU",
				i, at, i-1, prev)
		}
	}
}

func TestLSUEvictionHoldsPort(t *testing.T) {
	l, biu, done := testLSU(4)
	// Fill the write cache's 4 lines, then one more store evicts the
	// oldest (0x1000) — the eviction transfer holds the cache port while
	// it writes the line to the data cache — and a load from that line,
	// dispatched the cycle after the store, finds the port busy.
	const evicting, load = 0x5000, 0x1004
	now := uint64(0)
	for i := 0; i < 5; i++ {
		l.Dispatch(MemOp{Addr: 0x1000 + uint32(i)*0x1000, Store: true}, now)
		if i == 4 {
			l.Dispatch(MemOp{Addr: load}, now+1)
		}
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
	if len(done) != 6 {
		t.Fatalf("completed %d of 5 stores and a load", len(done))
	}
	// The store accesses the port one cycle before it completes; the load
	// waits the line transfer out, then hits the 3-cycle data cache.
	lt := uint64(testBIU().Config().LineTransfer)
	if want := done[evicting] - 1 + lt + 3; done[load] < want {
		t.Errorf("load completed at %d, want %d: the %d-cycle eviction did not hold the port",
			done[load], want, lt)
	}
	if biu.Stats().Writes != 1 {
		t.Errorf("BIU writes %d want 1", biu.Stats().Writes)
	}
}

func TestLSUFlushWritesRemaining(t *testing.T) {
	l, biu, done := testLSU(2)
	l.Dispatch(MemOp{Addr: 0x9000, Store: true}, 0)
	drive(l, biu, done, 0x9000, 1, 30)
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
	l, biu, done := testLSU(2)
	calls := 0
	l.Translate = func(addr uint32) int {
		calls++
		return 15
	}
	l.Dispatch(MemOp{Addr: 0x2000}, 0)
	drive(l, biu, done, 0x2000, 1, 200)
	if calls != 1 {
		t.Errorf("translate called %d times", calls)
	}
	// Without the walk a miss completes at 22; the 15-cycle walk shifts it.
	if at := done[0x2000]; at < 36 {
		t.Errorf("data at %d — translation walk not applied", at)
	}
}
