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

// rig is a memory system (BIU and stream buffers) with an LSU or an IFU on
// it, ticked in the processor's order; the driver stands in for issue.
type rig struct {
	biu  *mem.BIU
	pfu  *prefetch.Buffers
	lsu  *LSU
	ifu  *IFU
	done [][2]uint64 // LSU completions: dispatch number, cycle
}

// newRig builds a rig from seed; equal seeds build equal rigs.
func newRig(seed int64, withIFU bool) (*rig, *rand.Rand) {
	rng := rand.New(rand.NewSource(seed))
	r := &rig{
		biu: mem.New(mem.Config{Latency: 2 + rng.Intn(30), LineTransfer: 1 + rng.Intn(4),
			MaxOutstanding: 1 + rng.Intn(6)}),
		pfu: prefetch.New(rng.Intn(4), 1+rng.Intn(3), 32),
	}
	if !withIFU {
		r.lsu = NewLSU(LSUConfig{
			DCacheBytes: 1 << 10, LineBytes: 32, DCacheLatency: 1 + rng.Intn(4),
			MSHRs: 1 + rng.Intn(4), WriteCacheLines: 1 + rng.Intn(4),
			VictimLines: rng.Intn(2) * 2,
		}, r.biu, r.pfu)
		if rng.Intn(2) == 0 {
			r.lsu.Translate = func(addr uint32) int { return int(addr>>10%4) * 3 }
		}
		r.lsu.OnComplete = func(op *MemOp, t uint64) { r.done = append(r.done, [2]uint64{uint64(op.RobIdx), t}) }
		return r, rng
	}
	kind := []string{"folding", "static", "bimodal", "gshare"}[rng.Intn(4)]
	bp, err := bpred.Parse(kind)
	if err != nil {
		panic(err)
	}
	r.ifu = NewIFU(IFUConfig{ICacheBytes: 512, LineBytes: 32, FetchQueue: 2 + rng.Intn(7),
		DisableBranchFolding: rng.Intn(3) == 0, BPred: bp},
		r.biu, r.pfu, &trace.SliceStream{Records: randomTrace(rng, 1500)})
	return r, rng
}

// randomTrace walks a 4 KB code region: straight-line runs broken by
// taken and untaken branches and register-indirect jumps.
func randomTrace(rng *rand.Rand, n int) []trace.Record {
	recs := make([]trace.Record, 0, n)
	pc := uint32(0x1000)
	for len(recs) < n {
		in := isa.Instruction{Op: isa.OpADDU, Rd: 8, Rs: 9, Rt: 10}
		switch rng.Intn(8) {
		case 0:
			in = isa.Instruction{Op: isa.OpBNE, Rs: 8}
		case 1:
			in = isa.Instruction{Op: isa.OpJR, Rs: 31}
		}
		rec := trace.NewRecord(pc, in)
		pc += 4
		if in.Op != isa.OpADDU && (in.Op == isa.OpJR || rng.Intn(2) == 0) {
			rec.Taken, rec.Target = true, 0x1000+uint32(rng.Intn(1024))*4
			recs = append(recs, rec, trace.NewRecord(pc, isa.Instruction{Op: isa.OpADDU, Rd: 8, Rs: 9, Rt: 10}))
			pc = rec.Target
			continue
		}
		recs = append(recs, rec)
	}
	return recs
}

func (r *rig) tick(now uint64) {
	r.biu.Tick(now)
	if r.lsu != nil {
		r.lsu.Tick(now)
	}
	if r.ifu != nil {
		r.ifu.Tick(now)
	}
	r.pfu.Tick(now, r.biu)
}

func (r *rig) nextEvent(now uint64) uint64 {
	next := min(r.biu.NextEvent(), r.pfu.NextEvent(now, r.biu))
	if r.lsu != nil {
		next = min(next, r.lsu.NextEvent(now))
	}
	if r.ifu != nil {
		next = min(next, r.ifu.NextEvent(now))
	}
	return next
}

func (r *rig) skip(now, to uint64) {
	if r.lsu != nil {
		r.lsu.Skip(to - now)
	}
}

// rigState is what a rig shows the rest of the machine, and its counters:
// the completion log and fetch queue enter as their length and a checksum.
type rigState struct {
	BIU                   mem.Stats
	Outstanding           int
	LSU                   LSUStats
	MSHR                  uint64
	DAcc, DMiss, IAcc     uint64
	IFU                   IFUStats
	QueueLen              int
	QueueSum, DoneSum     uint64
	DoneLen               int
	LSUBusy, IFUExhausted bool
}

func (r *rig) state() rigState {
	s := rigState{BIU: r.biu.Stats(), Outstanding: r.biu.OutstandingReads(), DoneLen: len(r.done)}
	for i, d := range r.done {
		s.DoneSum += uint64(i+1) * (d[0]<<20 ^ d[1])
	}
	if r.lsu != nil {
		s.LSU, s.MSHR, s.LSUBusy = r.lsu.Stats(), r.lsu.MSHR().OccupancyIntegral(), r.lsu.Busy()
		s.DAcc, s.DMiss = r.lsu.DCache().Accesses(), r.lsu.DCache().Misses()
	}
	if r.ifu != nil {
		s.IFU, s.QueueLen, s.IFUExhausted = r.ifu.Stats(), r.ifu.QueueLen(), r.ifu.Done()
		s.IAcc = r.ifu.ICache().Accesses()
		for k := 0; k < r.ifu.qLen; k++ {
			fi := &r.ifu.queue[r.ifu.slot(k)]
			s.QueueSum = s.QueueSum*31 + uint64(fi.Rec.PC)
			if fi.PairHead || fi.DepOnPrev || fi.Redirect {
				s.QueueSum += uint64(k + 1)
			}
		}
	}
	return s
}

// driveRig runs one random script through a rig that jumps quiet cycles
// the way the processor does — NextEvent from every unit, Skip to the
// cycle before the earliest, never past the script's next operation — and
// through a reference rig that ticks every cycle. Both must be in the same
// state at every cycle the jumping rig lands on. It returns the cycles
// skipped.
func driveRig(t *testing.T, seed int64, withIFU bool) uint64 {
	got, rng := newRig(seed, withIFU)
	ref, _ := newRig(seed, withIFU)
	var skipped, gotAt uint64
	nextOp, dispatched := uint64(1), 0
	for now := uint64(1); now < 2000; now++ {
		ref.tick(now)
		if now > gotAt {
			got.tick(now)
			gotAt = now
		}
		if now == nextOp {
			// Issue: the IFU's queue drains, the LSU takes an op.
			if withIFU {
				if n := min(ref.ifu.QueueLen(), rng.Intn(3)); n > 0 {
					got.ifu.Consume(n)
					ref.ifu.Consume(n)
				}
			} else if ref.lsu.CanAccept() {
				op := MemOp{Addr: uint32(rng.Intn(96)) * 24, Store: rng.Intn(3) == 0, RobIdx: int32(dispatched)}
				got.lsu.Dispatch(op, now)
				ref.lsu.Dispatch(op, now)
				dispatched++
			}
			nextOp = now + 1 + uint64(rng.Intn(30))
		}
		if now < gotAt {
			continue
		}
		if g, w := got.state(), ref.state(); g != w {
			t.Fatalf("seed %d cycle %d: jumping rig differs from the forced one\n got %+v\nwant %+v", seed, now, g, w)
		}
		if next := got.nextEvent(now); next > now+1 {
			if to := min(next-1, nextOp-1); to > now {
				got.skip(now, to)
				gotAt = to
				skipped += to - now
			}
		}
	}
	return skipped
}

// TestLSUNextEventMatchesForcedTick: the LSU's NextEvent never lets a jump
// cross a port access or data return, and Skip adds the MSHR occupancy the
// skipped ticks would have counted.
func TestLSUNextEventMatchesForcedTick(t *testing.T) {
	var skipped uint64
	for seed := int64(1); seed <= 150; seed++ {
		skipped += driveRig(t, seed, false)
	}
	if skipped == 0 {
		t.Fatal("no script ever jumped a cycle; the test exercises nothing")
	}
}

// TestIFUNextEventMatchesForcedTick: the IFU's NextEvent never lets a jump
// cross a fill's arrival, the end of a bubble or a fetch.
func TestIFUNextEventMatchesForcedTick(t *testing.T) {
	var skipped uint64
	for seed := int64(1); seed <= 150; seed++ {
		skipped += driveRig(t, seed, true)
	}
	if skipped == 0 {
		t.Fatal("no script ever jumped a cycle; the test exercises nothing")
	}
}
