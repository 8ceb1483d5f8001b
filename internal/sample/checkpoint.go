package sample

import (
	"context"
	"fmt"
	"sync"
	"unsafe"

	"aurora/internal/core"
	"aurora/internal/trace"
	"aurora/internal/vm"
	"aurora/internal/workloads"
)

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
	warm []warmEntry
	win  []winRec
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
	// static is the capture machine's predecoded text table: a window
	// record's SI is &static[(pc-asm.TextBase)/4].
	static []trace.StaticInstr
}

// size is the checkpoint's encoded bytes: its warm entries and window
// records, which is what grows with the budget.
func (cp *Checkpoint) size() int64 {
	var n int64
	for _, seg := range cp.segs {
		n += int64(len(seg.warm))*int64(unsafe.Sizeof(warmEntry(0))) +
			int64(len(seg.win))*int64(unsafe.Sizeof(winRec{}))
	}
	return n
}

// NewCheckpoint executes the workload's functional pass once under the
// normalized sampling layout of p, capturing the warm-up footprint and
// every window's records. ctx cancels a long capture.
func NewCheckpoint(ctx context.Context, w *workloads.Workload, budget uint64, p Params) (*Checkpoint, error) {
	return newCheckpoint(ctx, w, budget, p, maxWarmLog)
}

// newCheckpoint is NewCheckpoint with each segment's warm log capped at
// maxLog entries.
func newCheckpoint(ctx context.Context, w *workloads.Workload, budget uint64, p Params, maxLog int) (*Checkpoint, error) {
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
		static:   m.Static(),
	}
	ring := &warmRing{max: maxLog}

	// Warm-up prefix: functional execution, warm log only.
	if err := cp.captureWarm(ctx, m, ring, p.WarmUp, w.Name); err != nil {
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
		if err := cp.captureWarm(ctx, m, ring, ff, w.Name); err != nil {
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
// deduplicated warm-access log as a new segment, collected in ring. n may
// be 0 (a layout with Interval == Window has no fast-forward stretch);
// nothing is then read.
func (cp *Checkpoint) captureWarm(ctx context.Context, m *vm.Machine, ring *warmRing, n uint64, name string) error {
	ring.reset()
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
		for i := range buf[:k] {
			rec := &buf[i]
			if blk := uint64(rec.PC/warmDedupBlock) + 1; blk != lastFetch {
				lastFetch = blk
				ring.push(packWarm(core.WarmFetch, rec.PC))
			}
			if rec.SI.Class.IsMem() {
				kind := core.WarmKindOf(rec.SI.Class)
				if key := (uint64(rec.MemAddr/warmDedupBlock)+1)<<2 | uint64(kind); key != lastData {
					lastData = key
					ring.push(packWarm(kind, rec.MemAddr))
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
	cp.Truncated = cp.Truncated || ring.truncated
	cp.segs = append(cp.segs, segment{warm: ring.log()})
	return nil
}

// captureWindow steps the VM n instructions (or to halt), encoding the
// dynamic records into the current segment's window.
func (cp *Checkpoint) captureWindow(ctx context.Context, m *vm.Machine, n uint64, name string) error {
	win := make([]winRec, 0, n)
	var buf [captureBatch]trace.Record
	s := m.Stream(n)
	for uint64(len(win)) < n {
		k := s.NextBatch(buf[:min(uint64(captureBatch), n-uint64(len(win)))])
		if k == 0 {
			break
		}
		for i := range buf[:k] {
			r, err := encodeRecord(cp.static, &buf[i])
			if err != nil {
				return fmt.Errorf("sample: %s: %w", name, err)
			}
			win = append(win, r)
		}
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	if err := s.Err(); err != nil {
		return fmt.Errorf("sample: %s execution fault: %w", name, err)
	}
	if len(win) < cap(win) {
		// The kernel halted inside the window: keep only what it ran.
		win = append([]winRec(nil), win...)
	}
	cp.segs[len(cp.segs)-1].win = win
	return nil
}

// Matches reports whether the checkpoint can seed a sampled run of the
// given workload, sampling layout and budget.
func (cp *Checkpoint) Matches(workload string, budget uint64, p Params) bool {
	p = p.Normalize()
	return cp.Workload == workload && cp.WarmUp == p.WarmUp &&
		cp.Interval == p.Interval && cp.Window == p.Window && cp.Budget == budget
}

// checkpointCacheBytes bounds the encoded bytes of the completed
// checkpoints one CheckpointCache holds: about five full sampled sweeps of
// the 15 kernels at the default 2M-instruction budget.
const checkpointCacheBytes = 256 << 20

// CheckpointCache shares functional passes across the jobs of a sweep: one
// checkpoint per (workload, layout, budget), built once under single-flight
// (concurrent requesters of one key wait for the first builder). Failed and
// cancelled builds are withdrawn, so a later request retries.
//
// Completed checkpoints are held within a byte budget: when a build takes
// the total past it, the least recently requested completed entries are
// dropped, and a later request for one rebuilds it. A build in flight is
// never dropped, and dropping only forgets the map entry — a job already
// holding the *Checkpoint keeps replaying it.
type CheckpointCache struct {
	mu        sync.Mutex
	m         map[cpKey]*cpEntry
	budget    int64  // bound on bytes, in encoded bytes
	bytes     int64  // encoded bytes of the completed entries in m
	clock     uint64 // request counter; an entry's used is its last tick
	builds    uint64
	evictions uint64
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
	size int64  // encoded bytes once built; 0 while the build is in flight
	used uint64 // CheckpointCache.clock at the entry's latest request
}

// CheckpointCacheStats counts a cache's builds and evictions. A request
// that rebuilds an evicted checkpoint counts as a build.
type CheckpointCacheStats struct {
	Builds    uint64
	Evictions uint64
}

// NewCheckpointCache returns an empty cache.
func NewCheckpointCache() *CheckpointCache {
	return newCheckpointCache(checkpointCacheBytes)
}

func newCheckpointCache(budget int64) *CheckpointCache {
	return &CheckpointCache{m: map[cpKey]*cpEntry{}, budget: budget}
}

// Stats returns a snapshot of the cache's counters.
func (c *CheckpointCache) Stats() CheckpointCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CheckpointCacheStats{Builds: c.builds, Evictions: c.evictions}
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
		c.clock++
		e, ok := c.m[key]
		if !ok {
			e = &cpEntry{done: make(chan struct{}), used: c.clock}
			c.m[key] = e
			c.builds++
			c.mu.Unlock()
			e.cp, e.err = NewCheckpoint(ctx, w, budget, p)
			c.mu.Lock()
			if e.err != nil {
				// Errors (including cancellation) are not cached: withdraw
				// the entry so the next requester rebuilds.
				if c.m[key] == e {
					delete(c.m, key)
				}
			} else {
				e.size = e.cp.size()
				c.bytes += e.size
				c.evict()
			}
			c.mu.Unlock()
			close(e.done)
			return e.cp, e.err
		}
		e.used = c.clock
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

// evict drops the least recently requested completed entries until the
// completed entries fit the budget. c.mu must be held.
func (c *CheckpointCache) evict() {
	for c.bytes > c.budget {
		var oldKey cpKey
		var old *cpEntry
		for k, e := range c.m {
			if e.size > 0 && (old == nil || e.used < old.used) {
				oldKey, old = k, e
			}
		}
		if old == nil {
			return
		}
		delete(c.m, oldKey)
		c.bytes -= old.size
		c.evictions++
	}
}
