package mem

import (
	"math"
	"testing"
)

func TestSingleReadLatency(t *testing.T) {
	b := New(Config{Latency: 17, LineTransfer: 4, MaxOutstanding: 8})
	var doneAt uint64
	if _, ok := b.Read(100, 0x1000, FuncClient(func(now uint64, _ uint32, _ uint64) { doneAt = now }), 0); !ok {
		t.Fatal("read rejected")
	}
	for now := uint64(100); now <= 130; now++ {
		b.Tick(now)
	}
	// data complete at 100 + 17 + 4 = 121
	if doneAt != 121 {
		t.Errorf("doneAt = %d want 121", doneAt)
	}
}

func TestOverlappedLatencySerialisedTransfer(t *testing.T) {
	b := New(DefaultConfig())
	var d1, d2 uint64
	b.Read(0, 0x1000, FuncClient(func(now uint64, _ uint32, _ uint64) { d1 = now }), 0)
	b.Read(0, 0x1000, FuncClient(func(now uint64, _ uint32, _ uint64) { d2 = now }), 0)
	for now := uint64(0); now <= 40; now++ {
		b.Tick(now)
	}
	// both latencies overlap (0+17); transfers serialise: 21, then 25.
	if d1 != 21 || d2 != 25 {
		t.Errorf("done = %d, %d want 21, 25", d1, d2)
	}
}

func TestMaxOutstanding(t *testing.T) {
	b := New(Config{Latency: 17, LineTransfer: 4, MaxOutstanding: 2})
	_, ok1 := b.Read(0, 0x1000, FuncClient(func(uint64, uint32, uint64) {}), 0)
	_, ok2 := b.Read(0, 0x1000, FuncClient(func(uint64, uint32, uint64) {}), 0)
	if !ok1 || !ok2 {
		t.Fatal("first two reads rejected")
	}
	if b.CanAccept() {
		t.Error("CanAccept true at capacity")
	}
	if _, ok := b.Read(0, 0x1000, FuncClient(func(uint64, uint32, uint64) {}), 0); ok {
		t.Error("read accepted over capacity")
	}
	for now := uint64(0); now <= 30; now++ {
		b.Tick(now)
	}
	if !b.CanAccept() {
		t.Error("capacity not released after completion")
	}
}

func TestWritesConsumeBandwidth(t *testing.T) {
	b := New(DefaultConfig())
	b.Write(0) // bus busy 0..4
	if !b.Busy(1) {
		t.Error("bus should be busy after write")
	}
	var d1 uint64
	b.Read(0, 0x1000, FuncClient(func(now uint64, _ uint32, _ uint64) { d1 = now }), 0)
	for now := uint64(0); now <= 40; now++ {
		b.Tick(now)
	}
	// read data ready at 17, bus free at 4 → transfer 17..21
	if d1 != 21 {
		t.Errorf("doneAt = %d want 21", d1)
	}
	// now make the bus the bottleneck
	b2 := New(DefaultConfig())
	for i := 0; i < 6; i++ {
		b2.Write(0)
	}
	var d2 uint64
	b2.Read(0, 0x1000, FuncClient(func(now uint64, _ uint32, _ uint64) { d2 = now }), 0)
	for now := uint64(0); now <= 60; now++ {
		b2.Tick(now)
	}
	// writes occupy the bus until 24; read data ready at 17 but transfer
	// waits: 24+4 = 28.
	if d2 != 28 {
		t.Errorf("doneAt = %d want 28", d2)
	}
}

func TestCompletionOrderFIFO(t *testing.T) {
	// Same-cycle requests complete in issue order (the bus serialises).
	b := New(DefaultConfig())
	var order []int
	b.Read(0, 0x1000, FuncClient(func(uint64, uint32, uint64) { order = append(order, 0) }), 0)
	b.Read(0, 0x1000, FuncClient(func(uint64, uint32, uint64) { order = append(order, 1) }), 0)
	b.Read(0, 0x1000, FuncClient(func(uint64, uint32, uint64) { order = append(order, 2) }), 0)
	for now := uint64(0); now <= 60; now++ {
		b.Tick(now)
	}
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Errorf("completion order %v", order)
	}
}

func TestStats(t *testing.T) {
	b := New(DefaultConfig())
	b.Read(0, 0x1000, FuncClient(func(uint64, uint32, uint64) {}), 0)
	b.Write(0)
	for now := uint64(0); now <= 60; now++ {
		b.Tick(now)
	}
	s := b.Stats()
	if s.Reads != 1 || s.Writes != 1 {
		t.Errorf("reads=%d writes=%d", s.Reads, s.Writes)
	}
	if s.BusBusy != 8 {
		t.Errorf("busBusy=%d want 8", s.BusBusy)
	}
	if s.AvgReadLatency() < 21 {
		t.Errorf("avg latency %f", s.AvgReadLatency())
	}
	if (Stats{}).AvgReadLatency() != 0 {
		t.Error("zero-stats latency not 0")
	}
}

func TestLongLatencyConfig(t *testing.T) {
	b := New(Config{Latency: 35, LineTransfer: 4, MaxOutstanding: 8})
	var d uint64
	b.Read(0, 0x1000, FuncClient(func(now uint64, _ uint32, _ uint64) { d = now }), 0)
	for now := uint64(0); now <= 60; now++ {
		b.Tick(now)
	}
	if d != 39 {
		t.Errorf("doneAt = %d want 39", d)
	}
}

func TestDefaultsApplied(t *testing.T) {
	b := New(Config{})
	c := b.Config()
	if c.Latency != 17 || c.LineTransfer != 4 || c.MaxOutstanding != 8 {
		t.Errorf("defaults not applied: %+v", c)
	}
}

// TestNextEventIsFirstCompletion: NextEvent names the cycle of the first
// completion Tick will deliver — a Tick before it delivers nothing, a
// Tick at it delivers — and math.MaxUint64 with nothing in flight.
func TestNextEventIsFirstCompletion(t *testing.T) {
	b := New(Config{Latency: 9, LineTransfer: 3, MaxOutstanding: 4})
	if b.NextEvent() != math.MaxUint64 {
		t.Fatalf("idle BIU NextEvent = %d, want math.MaxUint64", b.NextEvent())
	}
	var got []uint64
	client := FuncClient(func(now uint64, _ uint32, _ uint64) { got = append(got, now) })
	for now := uint64(1); now < 400; now++ {
		next := b.NextEvent()
		before := len(got)
		b.Tick(now)
		switch {
		case now < next && len(got) != before:
			t.Fatalf("cycle %d: Tick delivered before NextEvent %d", now, next)
		case now == next && len(got) == before:
			t.Fatalf("cycle %d: NextEvent named this cycle but Tick delivered nothing", now)
		}
		if now%7 == 0 || now%11 == 0 {
			b.Read(now, uint32(now)*32, client, 0)
		}
	}
	if len(got) == 0 {
		t.Fatal("no read completed; the test exercises nothing")
	}
}
