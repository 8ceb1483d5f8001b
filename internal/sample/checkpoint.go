package sample

import (
	"context"
	"fmt"
	"sync"

	"aurora/internal/core"
	"aurora/internal/trace"
	"aurora/internal/vm"
	"aurora/internal/workloads"
)

// warmAccess is one fast-forwarded access in a checkpoint's replay log:
// enough to reconstruct the warm cache contents of any configuration
// geometry, and nothing more.
type warmAccess struct {
	addr uint32
	kind core.WarmKind
}

// warmDedupBlock is the granularity at which consecutive accesses in the
// warm log are coalesced: a run of same-kind accesses inside one aligned
// 16-byte block logs a single entry. A direct-mapped fill of a line already
// present is a pure no-op, so replay is access-for-access equivalent for any
// cache with lines of at least this size; Checkpoint.Run rejects smaller
// geometries. Fetches are the win — sequential code logs one entry per
// block instead of one per instruction.
const warmDedupBlock = 16

// maxWarmLog bounds one segment's replay log (newest entries win). Every
// paper-scale cache holds at most a few thousand lines, so the most recent
// million accesses fix the warm contents exactly for any geometry the study
// sweeps; the cap only matters for extreme warm-up or interval lengths.
const maxWarmLog = 1 << 20

// segment is one sampling period of the captured functional pass: the
// fast-forwarded accesses that warm the caches, then the recorded dynamic
// records of the detailed window that follows them. The final segment of a
// budget-bounded run may have an empty window.
type segment struct {
	warm []warmAccess
	win  []trace.Record
}

// Checkpoint is one workload's functional pass, captured so that every
// configuration of a sweep replays it instead of re-executing it: the
// warm-access log of each fast-forward stretch and the dynamic instruction
// records of each detailed window. Everything in it is a pure function of
// (workload, warm-up, interval, window, budget) — configuration-independent
// — so one VM pass per workload serves N design points, and a sampled run
// through a shared checkpoint is byte-identical to one through a private
// checkpoint by construction: both are pure replays of the same capture.
//
// A checkpoint is valid only for the exact (workload, warm-up, interval,
// window, budget) it was built from; Run rejects any other combination,
// which is what invalidates checkpoints when the workload or the warm-up
// length changes.
type Checkpoint struct {
	Workload string
	WarmUp   uint64 // requested warm-up length (identity)
	Interval uint64 // sampling period (identity)
	Window   uint64 // detailed instructions per window (identity)
	Budget   uint64 // total instruction budget, 0 = to natural halt (identity)

	Executed uint64 // instructions actually executed (the kernel may halt first)
	Halted   bool   // the kernel ran to natural completion within the budget
	// Truncated reports that at least one replay-log segment was ring-capped
	// at maxWarmLog accesses; warm cache contents are still exact for any
	// cache smaller than the retained suffix's footprint.
	Truncated bool

	segs []segment
}

// NewCheckpoint executes the workload's functional pass once under the
// normalized sampling layout of p, capturing the warm-up footprint and
// every window's records. ctx cancels a long capture.
func NewCheckpoint(ctx context.Context, w *workloads.Workload, budget uint64, p Params) (*Checkpoint, error) {
	p = p.Normalize()
	m, err := w.NewMachine()
	if err != nil {
		return nil, err
	}
	cp := &Checkpoint{
		Workload: w.Name,
		WarmUp:   p.WarmUp,
		Interval: p.Interval,
		Window:   p.Window,
		Budget:   budget,
	}

	// Warm-up prefix: functional execution, warm log only.
	if err := cp.captureWarm(ctx, m, p.WarmUp, w.Name); err != nil {
		return nil, err
	}

	// Alternate detailed windows and fast-forward stretches to the budget.
	for !m.Halted() && (budget == 0 || m.Steps() < budget) {
		win := p.Window
		if budget != 0 && m.Steps()+win > budget {
			win = budget - m.Steps()
		}
		if err := cp.captureWindow(ctx, m, win, w.Name); err != nil {
			return nil, err
		}
		if m.Halted() || (budget != 0 && m.Steps() >= budget) {
			break
		}
		ff := p.Interval - p.Window
		if budget != 0 && m.Steps()+ff > budget {
			ff = budget - m.Steps()
		}
		if err := cp.captureWarm(ctx, m, ff, w.Name); err != nil {
			return nil, err
		}
	}
	cp.Executed = m.Steps()
	cp.Halted = m.Halted()
	// A trailing fast-forward stretch with no window after it warms nothing
	// anyone measures; drop its log (the instructions still count — they
	// were executed and are part of Executed).
	if n := len(cp.segs); n > 0 && len(cp.segs[n-1].win) == 0 && n > 1 {
		cp.segs[n-1].warm = nil
	}
	return cp, nil
}

// captureBatch is how many records capture reads from the VM per call, and
// so how often it polls ctx.
const captureBatch = 256

// captureWarm steps the VM n instructions (or to halt), appending the
// deduplicated warm-access log as a new segment. n may be 0 (a layout with
// Interval == Window has no fast-forward stretch); nothing is then read.
func (cp *Checkpoint) captureWarm(ctx context.Context, m *vm.Machine, n uint64, name string) error {
	ring := make([]warmAccess, 0, min(n/2+2, maxWarmLog))
	start := 0
	push := func(a warmAccess) {
		if len(ring) < maxWarmLog {
			ring = append(ring, a)
			return
		}
		ring[start] = a
		start = (start + 1) % maxWarmLog
		cp.Truncated = true
	}
	// lastFetch/lastData hold the previous logged access per cache stream,
	// +1 so the zero value never matches a real block.
	var lastFetch, lastData uint64
	var buf [captureBatch]trace.Record
	s := m.Stream(n)
	for s.Count() < n {
		k := s.NextBatch(buf[:])
		if k == 0 {
			break
		}
		for _, rec := range buf[:k] {
			if blk := uint64(rec.PC/warmDedupBlock) + 1; blk != lastFetch {
				lastFetch = blk
				push(warmAccess{addr: rec.PC, kind: core.WarmFetch})
			}
			if rec.SI.Class.IsMem() {
				kind := core.WarmKindOf(rec.SI.Class)
				if key := (uint64(rec.MemAddr/warmDedupBlock)+1)<<2 | uint64(kind); key != lastData {
					lastData = key
					push(warmAccess{addr: rec.MemAddr, kind: kind})
				}
			}
		}
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	if err := s.Err(); err != nil {
		return fmt.Errorf("sample: %s execution fault: %w", name, err)
	}
	log := ring
	if start != 0 {
		log = make([]warmAccess, 0, len(ring))
		log = append(log, ring[start:]...)
		log = append(log, ring[:start]...)
	}
	cp.segs = append(cp.segs, segment{warm: log})
	return nil
}

// captureWindow steps the VM n instructions (or to halt), reading the
// dynamic records straight into the current segment's window.
func (cp *Checkpoint) captureWindow(ctx context.Context, m *vm.Machine, n uint64, name string) error {
	win := make([]trace.Record, n)
	s := m.Stream(n)
	k := 0
	for k < len(win) {
		got := s.NextBatch(win[k:min(k+captureBatch, len(win))])
		if got == 0 {
			break
		}
		k += got
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	if err := s.Err(); err != nil {
		return fmt.Errorf("sample: %s execution fault: %w", name, err)
	}
	cp.segs[len(cp.segs)-1].win = win[:k]
	return nil
}

// Matches reports whether the checkpoint can seed a sampled run of the
// given workload, sampling layout and budget.
func (cp *Checkpoint) Matches(workload string, budget uint64, p Params) bool {
	p = p.Normalize()
	return cp.Workload == workload && cp.WarmUp == p.WarmUp &&
		cp.Interval == p.Interval && cp.Window == p.Window && cp.Budget == budget
}

// CheckpointCache shares functional passes across the jobs of a sweep: one
// checkpoint per (workload, layout, budget), built once under single-flight
// (concurrent requesters of one key wait for the first builder). Failed and
// cancelled builds are withdrawn, so a later request retries.
type CheckpointCache struct {
	mu sync.Mutex
	m  map[cpKey]*cpEntry
}

type cpKey struct {
	workload string
	warmUp   uint64
	interval uint64
	window   uint64
	budget   uint64
}

type cpEntry struct {
	done chan struct{}
	cp   *Checkpoint
	err  error
}

// NewCheckpointCache returns an empty cache.
func NewCheckpointCache() *CheckpointCache {
	return &CheckpointCache{m: map[cpKey]*cpEntry{}}
}

// Get returns the checkpoint for (w, budget, p), building it on first use.
func (c *CheckpointCache) Get(ctx context.Context, w *workloads.Workload, budget uint64, p Params) (*Checkpoint, error) {
	p = p.Normalize()
	key := cpKey{workload: w.Name, warmUp: p.WarmUp, interval: p.Interval, window: p.Window, budget: budget}
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		c.mu.Lock()
		e, ok := c.m[key]
		if !ok {
			e = &cpEntry{done: make(chan struct{})}
			c.m[key] = e
			c.mu.Unlock()
			e.cp, e.err = NewCheckpoint(ctx, w, budget, p)
			if e.err != nil {
				// Errors (including cancellation) are not cached: withdraw
				// the entry so the next requester rebuilds.
				c.mu.Lock()
				if c.m[key] == e {
					delete(c.m, key)
				}
				c.mu.Unlock()
			}
			close(e.done)
			return e.cp, e.err
		}
		c.mu.Unlock()
		select {
		case <-e.done:
			if e.err == nil {
				return e.cp, nil
			}
			// The builder failed; loop and retry under our own context.
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}
