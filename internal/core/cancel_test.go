package core

import (
	"context"
	"errors"
	"testing"

	"aurora/internal/trace"
)

// TestRunContextCancellation: a cancelled context stops the cycle loop within
// one polling window (cancelCheckMask cycles) and returns ctx.Err(); the same
// trace under a live context runs to completion.
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
	if p.Cycles() > cancelCheckMask+1 {
		t.Errorf("cancellation landed at cycle %d, want within one %d-cycle polling window",
			p.Cycles(), cancelCheckMask+1)
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
