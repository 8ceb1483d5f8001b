package core

import (
	"context"
	"errors"
	"testing"

	"aurora/internal/trace"
)

// TestRunContextCancellation: a cancelled context stops the cycle loop at
// its first poll, one PollInterval into the run, and returns ctx.Err(); the
// same trace under a live context runs to completion.
func TestRunContextCancellation(t *testing.T) {
	build := func() *trace.SliceStream {
		b := newTB()
		// Long enough that the loop crosses many polling windows.
		b.loop(20_000, func() { b.alu(8, 9, 10) })
		return b.stream()
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p, err := NewProcessor(bigCache(), build())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := p.RunContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled RunContext returned (%v, %v), want context.Canceled", rep, err)
	}
	if p.Cycles() < PollInterval || p.Cycles() > 2*PollInterval {
		t.Errorf("cancellation landed at cycle %d, want at the first poll past cycle %d",
			p.Cycles(), PollInterval)
	}

	// Control: the identical trace completes under a background context.
	p2, err := NewProcessor(bigCache(), build())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p2.RunContext(context.Background()); err != nil {
		t.Fatalf("uncancelled run failed: %v", err)
	}
}

// TestRunContextCancelledWhileSkipping: a pointer chase whose every load
// misses to memory leaves the machine quiet for most of each miss, so the
// loop jumps the clock and rarely lands on a multiple of PollInterval. A
// context cancelled mid-run must still stop it at the next poll crossing.
func TestRunContextCancelledWhileSkipping(t *testing.T) {
	b := newTB()
	addr := uint32(0x10_0000)
	b.loop(20_000, func() {
		b.load(8, 8, addr)
		addr += 4096 // a new line and no sequential prefetch: every load misses
	})
	p, err := NewProcessor(bigCache(), b.stream())
	if err != nil {
		t.Fatal(err)
	}
	steps := uint64(0)
	for p.Cycles() < 3*PollInterval+PollInterval/3 {
		if !p.Step() {
			t.Fatal("trace drained before the cancellation point")
		}
		steps++
	}
	if 2*steps > p.Cycles() {
		t.Fatalf("%d steps for %d cycles: the pointer chase should skip most of its cycles", steps, p.Cycles())
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	at := p.Cycles()
	rep, err := p.RunContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext cancelled at cycle %d returned (%v, %v), want context.Canceled", at, rep, err)
	}
	if next := (at/PollInterval + 1) * PollInterval; p.Cycles() < next || p.Cycles() > next+PollInterval/4 {
		t.Errorf("cancelled at cycle %d, stopped at %d: want the first step past the poll point %d",
			at, p.Cycles(), next)
	}
}

// TestPollDue pins the crossing rule: a one-cycle step polls exactly when it
// lands on a multiple of PollInterval, and a jump polls when it passes one.
func TestPollDue(t *testing.T) {
	for _, c := range []struct {
		from, to uint64
		want     bool
	}{
		{0, 1, false},
		{PollInterval - 1, PollInterval, true},
		{PollInterval, PollInterval + 1, false},
		{PollInterval - 5, PollInterval + 20, true},
		{PollInterval + 1, 2*PollInterval - 1, false},
		{3*PollInterval - 1, 3 * PollInterval, true},
	} {
		if got := PollDue(c.from, c.to); got != c.want {
			t.Errorf("PollDue(%d, %d) = %v, want %v", c.from, c.to, got, c.want)
		}
	}
}
