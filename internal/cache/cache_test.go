package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTagArrayBasic(t *testing.T) {
	c := NewTagArray(1024, 32) // 32 lines
	if c.Lines() != 32 || c.LineBytes() != 32 {
		t.Fatalf("geometry: %d lines %d bytes", c.Lines(), c.LineBytes())
	}
	if c.Lookup(0x1000) {
		t.Error("hit in empty cache")
	}
	c.Fill(0x1000)
	if !c.Lookup(0x1000) || !c.Lookup(0x101f) {
		t.Error("miss after fill (same line)")
	}
	if c.Lookup(0x1020) {
		t.Error("hit on next line")
	}
	// conflicting address: same index (0x1000 + 1024)
	ev, had := c.Fill(0x1400)
	if !had || ev != 0x1000 {
		t.Errorf("eviction = %#x,%v want 0x1000,true", ev, had)
	}
	if c.Probe(0x1000) {
		t.Error("evicted line still present")
	}
	if c.Accesses() != 4 || c.Misses() != 2 {
		t.Errorf("accesses=%d misses=%d", c.Accesses(), c.Misses())
	}
	if c.HitRate() != 0.5 {
		t.Errorf("hit rate %f", c.HitRate())
	}
}

func TestTagArrayLineAddr(t *testing.T) {
	c := NewTagArray(2048, 32)
	if c.LineAddr(0x1234) != 0x1220 {
		t.Errorf("LineAddr = %#x", c.LineAddr(0x1234))
	}
}

func TestTagArrayInvalidate(t *testing.T) {
	c := NewTagArray(512, 32)
	c.Fill(0x40)
	c.InvalidateAll()
	if c.Probe(0x40) {
		t.Error("line survived invalidate")
	}
}

func TestTagArrayBadGeometry(t *testing.T) {
	for _, g := range [][2]int{{1000, 32}, {1024, 30}, {32, 64}, {0, 32}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("geometry %v did not panic", g)
				}
			}()
			NewTagArray(g[0], g[1])
		}()
	}
}

// Property: after Fill(a), Probe(a) always hits; and Probe(b) for b in a
// different line either misses or b was filled more recently than a's
// conflict — i.e. the tag array never reports a stale hit.
func TestTagArrayNeverStale(t *testing.T) {
	f := func(addrs []uint32) bool {
		c := NewTagArray(1024, 32)
		last := make(map[uint32]uint32) // index → line addr most recently filled
		for _, a := range addrs {
			la := c.LineAddr(a)
			idx := la >> 5 & 31
			c.Fill(a)
			last[idx] = la
			if !c.Probe(a) {
				return false
			}
		}
		// Every hit the cache reports must match the most recent fill
		// of that index.
		for idx, la := range last {
			if !c.Probe(la) {
				return false
			}
			_ = idx
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(2))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestMSHRFile(t *testing.T) {
	f := NewMSHRFile(2)
	if f.Capacity() != 2 || !f.Available() {
		t.Fatal("bad initial state")
	}
	if !f.Allocate() || !f.Allocate() {
		t.Fatal("allocations failed")
	}
	if f.Available() || f.Allocate() {
		t.Error("over-allocated")
	}
	if f.InUse() != 2 {
		t.Errorf("in use = %d after a refused allocation, want 2", f.InUse())
	}
	f.Release()
	if !f.Available() || f.InUse() != 1 {
		t.Errorf("release did not free (in use %d)", f.InUse())
	}
	f.TickOccupancy(1)
	if f.Utilisation(1) != 1.0 {
		t.Errorf("utilisation = %f", f.Utilisation(1))
	}
}

func TestMSHRReleasePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("release on empty file did not panic")
		}
	}()
	NewMSHRFile(1).Release()
}

func TestMSHRMinimumOne(t *testing.T) {
	if NewMSHRFile(0).Capacity() != 1 {
		t.Error("capacity floor not applied")
	}
}

func TestWriteCacheCoalescing(t *testing.T) {
	w := NewWriteCache(4, 32)
	// Eight stores to the same line: 1 miss + 7 hits, no transactions yet.
	for i := uint32(0); i < 8; i++ {
		hit, _, evicted := w.Store(0x2000 + i*4)
		if evicted {
			t.Fatal("unexpected eviction")
		}
		if (i == 0) == hit {
			t.Errorf("store %d hit=%v", i, hit)
		}
	}
	if w.Hits() != 7 || w.Stores() != 8 {
		t.Errorf("hits=%d stores=%d", w.Hits(), w.Stores())
	}
	// Fill the remaining 3 lines, then one more: LRU eviction of the
	// first line with all 8 words coalesced.
	w.Store(0x3000)
	w.Store(0x4000)
	w.Store(0x5000)
	hit, ev, evicted := w.Store(0x6000)
	if hit || !evicted {
		t.Fatalf("expected eviction, hit=%v evicted=%v", hit, evicted)
	}
	if ev.LineAddr != 0x2000 || ev.Words != 8 {
		t.Errorf("eviction %+v", ev)
	}
	if w.Transactions() != 1 {
		t.Errorf("transactions = %d", w.Transactions())
	}
}

func TestWriteCacheLoadForwarding(t *testing.T) {
	w := NewWriteCache(4, 32)
	w.Store(0x2004)
	if !w.Load(0x2004) {
		t.Error("load missed forwarded store")
	}
	if w.Load(0x2008) {
		t.Error("load hit a word never stored")
	}
	if w.Load(0x9999 &^ 3) {
		t.Error("load hit an absent line")
	}
	// 1 store miss + 1 load hit + 2 load misses.
	if w.Hits() != 1 || w.Accesses() != 4 {
		t.Errorf("hits=%d accesses=%d", w.Hits(), w.Accesses())
	}
}

func TestWriteCacheRepeatedIndexPattern(t *testing.T) {
	// The paper's motivating pattern: a loop index updated repeatedly —
	// traffic ratio should collapse far below 1.
	w := NewWriteCache(4, 32)
	for i := 0; i < 1000; i++ {
		w.Store(0x7000)
	}
	w.Flush()
	if w.Transactions() != 1 {
		t.Errorf("transactions = %d want 1", w.Transactions())
	}
	if r := w.TrafficRatio(); r > 0.002 {
		t.Errorf("traffic ratio %f", r)
	}
}

func TestWriteCacheVectorPattern(t *testing.T) {
	// Sequential vector store: 8 words per line coalesce into 1
	// transaction per line.
	w := NewWriteCache(4, 32)
	for a := uint32(0); a < 32*100; a += 4 {
		w.Store(0x10000 + a)
	}
	w.Flush()
	if w.Transactions() != 100 {
		t.Errorf("transactions = %d want 100", w.Transactions())
	}
	if r := w.TrafficRatio(); r < 0.12 || r > 0.13 {
		t.Errorf("traffic ratio %f want 0.125", r)
	}
}

func TestWriteCacheMicroTLB(t *testing.T) {
	w := NewWriteCache(4, 32)
	w.Store(0x2000)
	w.Store(0x2100) // same 4K page → validated
	w.Store(0x9000) // different page → needs MMU check
	if w.PageMatches() != 1 || w.PageMissChecks() != 2 {
		t.Errorf("pageMatches=%d missChecks=%d", w.PageMatches(), w.PageMissChecks())
	}
}

func TestWriteCacheFlush(t *testing.T) {
	w := NewWriteCache(4, 32)
	w.Store(0x1000)
	w.Store(0x2000)
	evs := w.Flush()
	if len(evs) != 2 {
		t.Errorf("flush returned %d evictions", len(evs))
	}
	if w.Load(0x1000) {
		t.Error("line survived flush")
	}
}

// Property: transactions never exceed stores (coalescing can only reduce
// traffic), and the hit rate is within [0,1].
func TestWriteCacheTrafficInvariant(t *testing.T) {
	f := func(addrs []uint16, sizes uint8) bool {
		n := int(sizes%8) + 1
		w := NewWriteCache(n, 32)
		for _, a := range addrs {
			w.Store(uint32(a) &^ 3)
		}
		w.Flush()
		if w.Transactions() > w.Stores() {
			return false
		}
		hr := w.HitRate()
		return hr >= 0 && hr <= 1
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(3))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestVictimCacheBasics(t *testing.T) {
	v := NewVictimCache(2)
	if !v.Enabled() {
		t.Fatal("2-line victim cache disabled")
	}
	if v.Probe(0x1000) {
		t.Error("hit in empty victim cache")
	}
	v.Insert(0x1000)
	if !v.Probe(0x1000) {
		t.Error("missed inserted line")
	}
	// A probe hit removes the line (it swapped back into the primary).
	if v.Probe(0x1000) {
		t.Error("line survived its swap-back")
	}
	// LRU: oldest of three goes.
	v.Insert(0x2000)
	v.Insert(0x3000)
	v.Insert(0x4000)
	if v.Probe(0x2000) {
		t.Error("LRU line survived")
	}
	if !v.Probe(0x3000) || !v.Probe(0x4000) {
		t.Error("young lines evicted")
	}
	if v.Probes() != 6 || v.Hits() != 3 {
		t.Errorf("probes=%d hits=%d", v.Probes(), v.Hits())
	}
	if r := v.HitRate(); r != 0.5 {
		t.Errorf("hit rate %f", r)
	}
}

func TestVictimCacheDisabled(t *testing.T) {
	v := NewVictimCache(0)
	if v.Enabled() {
		t.Fatal("0-line victim cache enabled")
	}
	v.Insert(0x1000) // must not panic
	if v.Probe(0x1000) {
		t.Error("disabled cache hit")
	}
	if v.HitRate() != 0 {
		t.Error("disabled hit rate nonzero")
	}
}

func BenchmarkTagArrayLookup(b *testing.B) {
	c := NewTagArray(32<<10, 32)
	for a := uint32(0); a < 32<<10; a += 32 {
		c.Fill(a)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Lookup(uint32(i*64) & (32<<10 - 1))
	}
}

func BenchmarkWriteCacheStore(b *testing.B) {
	w := NewWriteCache(4, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Store(uint32(i*4) & 0xffff)
	}
}
