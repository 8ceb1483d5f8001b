package sample

import (
	"context"
	"fmt"
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
// A checkpoint is valid only for the exact CaptureKey it was built from;
// Run rejects any other, which is what invalidates checkpoints when the
// workload or the warm-up length changes.
type Checkpoint struct {
	CaptureKey

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

// CaptureKey is a checkpoint's identity: everything its functional pass is
// a pure function of. It is comparable, so it keys a cache of checkpoints
// as it stands.
type CaptureKey struct {
	Workload string
	WarmUp   uint64 // requested warm-up length
	Interval uint64 // sampling period
	Window   uint64 // detailed instructions per window
	Budget   uint64 // total instruction budget, 0 = to natural halt
}

// CaptureKey returns the identity of the checkpoint that seeds a sampled run
// of workload under p's normalized layout and the given budget.
func (p Params) CaptureKey(workload string, budget uint64) CaptureKey {
	p = p.Normalize()
	return CaptureKey{Workload: workload, WarmUp: p.WarmUp, Interval: p.Interval, Window: p.Window, Budget: budget}
}

// Size is the checkpoint's bytes: the struct, then its warm entries and
// window records, which is what grows with the budget. A nil checkpoint, a
// failed capture's, counts as the struct alone, so that a cache keeping
// failed captures bounds them too.
func (cp *Checkpoint) Size() int64 {
	n := int64(unsafe.Sizeof(Checkpoint{}))
	if cp == nil {
		return n
	}
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
	cp := &Checkpoint{CaptureKey: p.CaptureKey(w.Name, budget), static: m.Static()}
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
