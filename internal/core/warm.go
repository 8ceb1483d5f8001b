package core

// Warm-up support for the sampled + fast-forward simulation mode
// (internal/sample). During fast-forward the VM executes instructions at
// functional speed and only the machine's long-lived locality state — the
// primary cache contents — is kept current, so the next detailed window
// starts from caches a full simulation would (approximately) have produced.
// No cycles pass, no statistics are counted, no prefetch or write-cache
// timing state moves: those structures are small enough that the detailed
// window's leading instructions (the window warm prefix the estimator
// discards) re-establish them.

import "aurora/internal/isa"

// WarmKind classifies one fast-forwarded access for WarmAccess.
type WarmKind uint8

const (
	// WarmFetch is an instruction fetch: warms the instruction cache.
	WarmFetch WarmKind = iota
	// WarmLoad is a data load: warms the data cache.
	WarmLoad
	// WarmStore is a data store: warms the data cache (standing in for the
	// write-cache eviction that installs the line in the detailed model).
	WarmStore
)

// WarmKindOf classifies a memory instruction's data access: stores warm
// as WarmStore, every other class as WarmLoad.
func WarmKindOf(c isa.Class) WarmKind {
	if c == isa.ClassStore || c == isa.ClassFPStore {
		return WarmStore
	}
	return WarmLoad
}

// WarmAccess applies one fast-forwarded access to the processor's warm-up
// state. It only moves cache contents — never the cycle clock, the
// statistics counters, or any queue — so interleaving WarmAccess calls
// between detailed windows leaves the timing model's invariants untouched.
//
//aurora:hotpath
func (p *Processor) WarmAccess(k WarmKind, addr uint32) {
	if k == WarmFetch {
		p.ifu.WarmFill(addr)
		return
	}
	p.lsu.WarmFill(addr)
}

// Reopen resumes fetch after the processor's stream has been given more
// records. A stream whose NextBatch returns 0 latches the fetch unit into its
// drained state; the sampled mode uses exactly that to empty the pipeline at
// a window boundary, then fast-forwards the VM feeding the stream and calls
// Reopen for the next window. The cycle clock keeps its value across the
// gap: fast-forwarded instructions take zero simulated cycles.
func (p *Processor) Reopen() { p.ifu.Reopen() }
