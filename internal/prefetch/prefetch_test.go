package prefetch

import (
	"math/rand"
	"slices"
	"testing"

	"aurora/internal/mem"
)

// fakeFetcher completes reads after a fixed latency via Step(). reads logs
// the line address of every accepted read, in order.
type fakeFetcher struct {
	latency uint64
	busy    bool
	full    bool
	queue   []fakeReq
	reads   []uint32
}

type fakeReq struct {
	doneAt   uint64
	lineAddr uint32
	tag      uint64
	client   mem.ReadClient
}

func (f *fakeFetcher) SpareForPrefetch() bool { return !f.busy }
func (f *fakeFetcher) CanAccept() bool        { return !f.full }
func (f *fakeFetcher) Read(now uint64, lineAddr uint32, client mem.ReadClient, tag uint64) (uint64, bool) {
	if f.full {
		return 0, false
	}
	f.reads = append(f.reads, lineAddr)
	f.queue = append(f.queue, fakeReq{doneAt: now + f.latency, lineAddr: lineAddr, tag: tag, client: client})
	return now + f.latency, true
}

func (f *fakeFetcher) Step(now uint64) {
	rest := f.queue[:0]
	for _, r := range f.queue {
		if r.doneAt <= now {
			r.client.LineArrived(now, r.lineAddr, r.tag)
		} else {
			rest = append(rest, r)
		}
	}
	f.queue = rest
}

func TestDisabledPool(t *testing.T) {
	p := New(0, 4, 32)
	if p.Enabled() {
		t.Fatal("0 buffers should disable the unit")
	}
	if r, _ := p.Probe(0x1000); r != Miss {
		t.Error("disabled pool must always miss")
	}
	p.AllocateOnMiss(0x1000) // must not panic
	p.Tick(0, &fakeFetcher{})
}

func TestAllocateFetchesSingleLine(t *testing.T) {
	p := New(2, 4, 32)
	f := &fakeFetcher{latency: 20}
	p.AllocateOnMiss(0x1000)
	for now := uint64(0); now < 50; now++ {
		f.Step(now)
		p.Tick(now, f)
	}
	// Fresh buffer fetches exactly one line (paper §2.2) — no run-ahead
	// before the first hit.
	if len(f.reads) != 1 {
		t.Errorf("reads = %d want 1", len(f.reads))
	}
	// The fetched line is the successor of the missing line.
	if r, _ := p.Probe(0x1020); r != Present {
		t.Errorf("successor line not present: %v", r)
	}
}

func TestHitEscalatesFetchAhead(t *testing.T) {
	p := New(2, 4, 32)
	f := &fakeFetcher{latency: 5}
	p.AllocateOnMiss(0x1000)
	for now := uint64(0); now < 20; now++ {
		f.Step(now)
		p.Tick(now, f)
	}
	if len(f.reads) != 1 {
		t.Fatalf("pre-hit reads = %d", len(f.reads))
	}
	if r, _ := p.Probe(0x1020); r != Present {
		t.Fatal("line 0x1020 not present")
	}
	// After the hit the buffer should stream ahead until full (4 deep).
	for now := uint64(20); now < 60; now++ {
		f.Step(now)
		p.Tick(now, f)
	}
	if len(f.reads) != 1+4 {
		t.Errorf("post-hit reads = %d want 5", len(f.reads))
	}
	// Sequential consumption keeps hitting.
	hits := 1
	for i, la := range []uint32{0x1040, 0x1060, 0x1080} {
		if r, _ := p.Probe(la); r == Present {
			hits++
		} else {
			t.Errorf("stream line %d (%#x) missing: %v", i, la, r)
		}
		for now := uint64(60); now < 80; now++ {
			f.Step(now)
			p.Tick(now, f)
		}
	}
	if hits != 4 {
		t.Errorf("hits = %d want 4", hits)
	}
}

func TestPendingHit(t *testing.T) {
	p := New(1, 4, 32)
	f := &fakeFetcher{latency: 30}
	p.AllocateOnMiss(0x2000)
	p.Tick(1, f) // request issued at cycle 1, arrives at 31
	r, ready := p.Probe(0x2020)
	if r != Pending {
		t.Fatalf("probe = %v want Pending", r)
	}
	if ready != 31 {
		t.Errorf("readyAt = %d want 31", ready)
	}
}

func TestLRUReallocationAndThrashing(t *testing.T) {
	// Two buffers, three interleaved streams: the pool thrashes, the
	// small-model pathology from the paper (§5.2). A prefetched line that
	// a reallocation threw away shows as a probe miss on a line already
	// read.
	p := New(2, 4, 32)
	f := &fakeFetcher{latency: 2}
	streams := []uint32{0x1000, 0x8000, 0x20000}
	var probes, hits, discarded int
	for round := uint64(0); round < 6; round++ {
		for si, base := range streams {
			la := base + uint32(round)*32
			probes++
			if r, _ := p.Probe(la); r != Miss {
				hits++
			} else {
				if slices.Contains(f.reads, la) {
					discarded++
				}
				p.AllocateOnMiss(la)
			}
			for c := uint64(0); c < 40; c++ {
				now := round*100 + uint64(si)*40 + c
				f.Step(now)
				p.Tick(now, f)
			}
		}
	}
	// With 2 buffers and 3 streams the LRU stream is always evicted
	// before its next reference: hit rate collapses.
	if rate := float64(hits) / float64(probes); rate > 0.2 {
		t.Errorf("hit rate %.2f — expected thrashing", rate)
	}
	if discarded == 0 {
		t.Error("expected discarded prefetches under thrashing")
	}
}

func TestTwoStreamsTwoBuffers(t *testing.T) {
	// With one buffer per stream both streams hit steadily.
	p := New(2, 4, 32)
	f := &fakeFetcher{latency: 2}
	now := uint64(0)
	step := func() { f.Step(now); p.Tick(now, f); now++ }
	p.AllocateOnMiss(0x1000)
	p.AllocateOnMiss(0x8000)
	for i := 0; i < 30; i++ {
		step()
	}
	hits := 0
	for round := uint32(1); round <= 4; round++ {
		for _, base := range []uint32{0x1000, 0x8000} {
			if r, _ := p.Probe(base + round*32); r == Present {
				hits++
			}
			for i := 0; i < 30; i++ {
				step()
			}
		}
	}
	if hits < 7 {
		t.Errorf("hits = %d want ≥7 of 8", hits)
	}
}

func TestPrefetcherYieldsToBusyBus(t *testing.T) {
	p := New(1, 4, 32)
	f := &fakeFetcher{latency: 5, busy: true}
	p.AllocateOnMiss(0x1000)
	for now := uint64(0); now < 20; now++ {
		p.Tick(now, f)
	}
	if len(f.reads) != 0 {
		t.Error("prefetched while bus busy")
	}
	f.busy = false
	p.Tick(21, f)
	if len(f.reads) != 1 {
		t.Error("did not resume after bus freed")
	}
}

func TestProbeCountsAndRate(t *testing.T) {
	// A primary miss that misses the buffers allocates one, which fetches
	// the successor line; the next sequential miss hits it: one hit in two
	// probes, the paper's prefetch hit rate of 0.5.
	p := New(1, 4, 32)
	f := &fakeFetcher{latency: 1}
	if r, _ := p.Probe(0x5000); r != Miss {
		t.Fatalf("cold probe = %v want Miss", r)
	}
	p.AllocateOnMiss(0x5000)
	for now := uint64(0); now < 10; now++ {
		f.Step(now)
		p.Tick(now, f)
	}
	if r, _ := p.Probe(0x5020); r != Present {
		t.Errorf("sequential probe = %v want Present", r)
	}
	if !slices.Equal(f.reads, []uint32{0x5020}) {
		t.Errorf("reads %#x, want the one successor line", f.reads)
	}
}

func TestStaleFillDropped(t *testing.T) {
	// A fill arriving after its buffer was reallocated must not corrupt
	// the new stream.
	p := New(1, 4, 32)
	f := &fakeFetcher{latency: 50}
	p.AllocateOnMiss(0x1000)
	p.Tick(1, f) // fetch of 0x1020 in flight
	p.AllocateOnMiss(0x9000)
	for now := uint64(0); now < 120; now++ {
		f.Step(now)
		p.Tick(now, f)
	}
	if r, _ := p.Probe(0x1020); r != Miss {
		t.Error("stale line visible after reallocation")
	}
	if r, _ := p.Probe(0x9020); r != Present {
		t.Error("new stream line missing")
	}
}

// scriptFetcher is a Fetcher whose answers the driver sets before each
// Tick, so two pools see the same memory system however often they ask.
// It logs every accepted read and holds it until the driver delivers it.
type scriptFetcher struct {
	spare, accept, ok bool
	reads             []fakeReq
	inflight          []fakeReq
}

func (f *scriptFetcher) SpareForPrefetch() bool { return f.spare }
func (f *scriptFetcher) CanAccept() bool        { return f.accept }
func (f *scriptFetcher) Read(now uint64, lineAddr uint32, client mem.ReadClient, tag uint64) (uint64, bool) {
	if !f.ok {
		return 0, false
	}
	r := fakeReq{doneAt: now + 5, lineAddr: lineAddr, tag: tag, client: client}
	f.reads = append(f.reads, r)
	f.inflight = append(f.inflight, r)
	return r.doneAt, true
}

// TestIdleLatchMatchesForcedTick drives random Probe, AllocateOnMiss, Tick
// and LineArrived sequences through two pools: one keeps its idle latch,
// the other has the latch cleared before every Tick, so it scans every
// cycle as before the latch existed. The latch is only a skip: both pools
// must issue the same reads in the same order and answer every probe
// alike, and whenever the latch is set no valid buffer may want a line.
func TestIdleLatchMatchesForcedTick(t *testing.T) {
	latchedTicks := 0
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n, depth := rng.Intn(5), 1+rng.Intn(4)
		latched, forced := New(n, depth, 32), New(n, depth, 32)
		lf, ff := &scriptFetcher{}, &scriptFetcher{}
		check := func(step int, op string) {
			t.Helper()
			if latched.idle {
				for i := range latched.bufs {
					if b := &latched.bufs[i]; b.valid && latched.wantsFetch(b) {
						t.Fatalf("seed %d step %d %s: idle latched while buffer %d wants a line", seed, step, op, i)
					}
				}
			}
			if len(lf.reads) != len(ff.reads) {
				t.Fatalf("seed %d step %d %s: %d reads latched, %d forced", seed, step, op, len(lf.reads), len(ff.reads))
			}
			for i := range lf.reads {
				a, b := lf.reads[i], ff.reads[i]
				if a.doneAt != b.doneAt || a.lineAddr != b.lineAddr || a.tag != b.tag {
					t.Fatalf("seed %d step %d %s: read %d differs: latched %+v, forced %+v", seed, step, op, i, a, b)
				}
			}
		}
		for step := 0; step < 2000; step++ {
			now := uint64(step)
			line := uint32(rng.Intn(16)) * 32
			switch op := rng.Intn(10); {
			case op < 2:
				r1, at1 := latched.Probe(line)
				r2, at2 := forced.Probe(line)
				if r1 != r2 || at1 != at2 {
					t.Fatalf("seed %d step %d: probe %#x = (%v, %d) latched, (%v, %d) forced", seed, step, line, r1, at1, r2, at2)
				}
				check(step, "Probe")
			case op < 3:
				latched.AllocateOnMiss(line)
				forced.AllocateOnMiss(line)
				check(step, "AllocateOnMiss")
			case op < 4 && len(lf.inflight) > 0:
				i := rng.Intn(len(lf.inflight))
				for _, f := range []*scriptFetcher{lf, ff} {
					r := f.inflight[i]
					f.inflight = slices.Delete(f.inflight, i, i+1)
					r.client.LineArrived(now, r.lineAddr, r.tag)
				}
				check(step, "LineArrived")
			default:
				spare, accept, ok := rng.Intn(4) != 0, rng.Intn(4) != 0, rng.Intn(4) != 0
				lf.spare, lf.accept, lf.ok = spare, accept, ok
				ff.spare, ff.accept, ff.ok = spare, accept, ok
				if latched.idle {
					latchedTicks++
				}
				forced.idle = false
				latched.Tick(now, lf)
				forced.Tick(now, ff)
				check(step, "Tick")
			}
		}
	}
	if latchedTicks == 0 {
		t.Fatal("the latch never engaged: the sequences do not exercise it")
	}
}

// TestNextEventQuiet: whenever NextEvent says the pool has nothing to do
// before a later cycle, a Tick in between issues no read and changes
// nothing — random Probe, AllocateOnMiss, LineArrived and Tick sequences
// against random BIU answers.
func TestNextEventQuiet(t *testing.T) {
	quiet := 0
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := New(rng.Intn(5), 1+rng.Intn(4), 32)
		f := &scriptFetcher{}
		for step := 0; step < 1000; step++ {
			now := uint64(step)
			line := uint32(rng.Intn(16)) * 32
			switch op := rng.Intn(10); {
			case op < 2:
				p.Probe(line)
			case op < 3:
				p.AllocateOnMiss(line)
			case op < 4 && len(f.inflight) > 0:
				r := f.inflight[0]
				f.inflight = f.inflight[1:]
				r.client.LineArrived(now, r.lineAddr, r.tag)
			default:
				f.spare, f.accept, f.ok = rng.Intn(4) != 0, rng.Intn(4) != 0, rng.Intn(4) != 0
				if p.NextEvent(now-1, f) <= now {
					p.Tick(now, f)
					continue
				}
				quiet++
				idle, reads := p.idle, len(f.reads)
				p.Tick(now, f)
				if p.idle != idle || len(f.reads) != reads {
					t.Fatalf("seed %d step %d: Tick acted on a cycle NextEvent called quiet", seed, step)
				}
			}
		}
	}
	if quiet == 0 {
		t.Fatal("NextEvent never answered quiet; the test exercises nothing")
	}
}
