package fpu

import (
	"math/rand"
	"testing"

	"aurora/internal/isa"
)

// randomFPUConfig draws a small FPU: any policy, precise or not, short
// latencies, either pipelining, tight queues and one or two result buses.
func randomFPUConfig(rng *rand.Rand) Config {
	return Config{
		Policy:        IssuePolicy(rng.Intn(3)),
		Precise:       rng.Intn(4) == 0,
		InstrQueue:    1 + rng.Intn(4),
		LoadQueue:     1 + rng.Intn(2),
		StoreQueue:    1 + rng.Intn(2),
		ReorderBuffer: 1 + rng.Intn(5),
		AddLatency:    1 + rng.Intn(4), AddPipelined: rng.Intn(2) == 0,
		MulLatency: 2 + rng.Intn(5), MulPipelined: rng.Intn(2) == 0,
		DivLatency: 5 + rng.Intn(15), DivPipelined: rng.Intn(2) == 0,
		CvtLatency: 1 + rng.Intn(3), CvtPipelined: rng.Intn(2) == 0,
		ResultBuses: 1 + rng.Intn(2),
	}
}

var fuzzOps = []isa.Op{isa.OpFADD, isa.OpFSUB, isa.OpFMUL, isa.OpFDIV, isa.OpFSQRT,
	isa.OpCVTD, isa.OpCEQ, isa.OpCLT}

// sameFPU fails t unless the two FPUs answer every question the core asks
// alike at cycle now.
func sameFPU(t *testing.T, seed int64, now uint64, a, b *FPU) {
	t.Helper()
	if sa, sb := a.Stats(now), b.Stats(now); sa != sb {
		t.Fatalf("seed %d cycle %d: stats differ\n got %+v\nwant %+v", seed, now, sa, sb)
	}
	if a.QueueLen() != b.QueueLen() || a.Drained(now) != b.Drained(now) ||
		a.CanDispatchInstr() != b.CanDispatchInstr() || a.CanDispatchLoad() != b.CanDispatchLoad() ||
		a.CanDispatchStore() != b.CanDispatchStore() || a.FCCReadyAt() != b.FCCReadyAt() {
		t.Fatalf("seed %d cycle %d: queue, drain or dispatch answers differ", seed, now)
	}
	for r := uint8(0); r < 32; r++ {
		if a.RegReadyAt(r, r%2 == 0) != b.RegReadyAt(r, r%2 == 0) {
			t.Fatalf("seed %d cycle %d: f%d ready at %d, want %d", seed, now, r,
				a.RegReadyAt(r, r%2 == 0), b.RegReadyAt(r, r%2 == 0))
		}
	}
}

// driveFPU runs one random dispatch script through got and through a
// reference that ticks every cycle with its idle latch cleared first, as
// before the latch existed. With jump set, got also jumps quiet cycles the
// way the processor does: after each cycle it asks NextEvent and Skips to
// the cycle before the answer (never past the script's next operation).
// It returns the cycles got latched idle and the cycles it skipped.
func driveFPU(t *testing.T, seed int64, jump bool) (latched, skipped uint64) {
	rng := rand.New(rand.NewSource(seed))
	cfg := randomFPUConfig(rng)
	got, ref := New(cfg), New(cfg)
	type arrival struct{ seq, at uint64 }
	var arrivals []arrival // FP loads in flight, one per load-queue slot
	nextOp := uint64(1)
	var gotAt uint64 // the last cycle got has accounted for
	for now := uint64(1); now < 600; now++ {
		ref.idle = false
		ref.Tick(now)
		if now > gotAt {
			if got.idle {
				latched++
			}
			got.Tick(now)
			gotAt = now
		}
		// Load data lands between ticks, as LSU completions do.
		for i := 0; i < len(arrivals); i++ {
			if a := arrivals[i]; a.at == now {
				got.LoadArrived(a.seq, now)
				ref.LoadArrived(a.seq, now)
				arrivals = append(arrivals[:i], arrivals[i+1:]...)
				i--
			}
		}
		if now == nextOp {
			reg, dbl := uint8(rng.Intn(8)*2), rng.Intn(2) == 0
			switch op := rng.Intn(10); {
			case op < 5 && ref.CanDispatchInstr():
				in := isa.Instruction{Op: fuzzOps[rng.Intn(len(fuzzOps))],
					Fd: reg, Fs: uint8(rng.Intn(8) * 2), Ft: uint8(rng.Intn(8) * 2), Double: dbl}
				rec := mkFP(in.Op, in.Fd, in.Fs, in.Ft, dbl)
				got.DispatchInstr(rec, now)
				ref.DispatchInstr(rec, now)
			case op < 7 && ref.CanDispatchLoad():
				seq := got.DispatchLoad(reg, dbl)
				ref.DispatchLoad(reg, dbl)
				arrivals = append(arrivals, arrival{seq, now + 1 + uint64(rng.Intn(25))})
			case op < 9 && ref.CanDispatchStore():
				got.DispatchStore(got.CaptureWriter(reg, dbl), now)
				ref.DispatchStore(ref.CaptureWriter(reg, dbl), now)
			default:
				got.WriteFromIPU(reg|1, now)
				ref.WriteFromIPU(reg|1, now)
			}
			nextOp = now + 1 + uint64(rng.Intn(12))
		}
		if now == gotAt {
			sameFPU(t, seed, now, got, ref)
		}
		if !jump || now < gotAt {
			continue
		}
		limit := nextOp - 1
		for _, a := range arrivals {
			limit = min(limit, a.at-1)
		}
		if next := got.NextEvent(now); next > now+1 {
			if to := min(next-1, limit); to > now {
				got.Skip(to - now)
				gotAt = to
				skipped += to - now
			}
		}
	}
	return latched, skipped
}

// TestIdleLatchMatchesForcedTick: the FPU's idle latch is only a skip.
// Random dispatch scripts must leave a latched FPU and one ticked every
// cycle with its latch cleared answering alike at every cycle, Stats
// included: the skipped cycles settle in bulk.
func TestIdleLatchMatchesForcedTick(t *testing.T) {
	var latched uint64
	for seed := int64(1); seed <= 300; seed++ {
		l, _ := driveFPU(t, seed, false)
		latched += l
	}
	if latched == 0 {
		t.Fatal("no script ever latched the FPU idle; the test exercises nothing")
	}
}

// TestNextEventMatchesForcedTick: NextEvent never lets a jump cross a cycle
// on which Tick would act, and Skip adds exactly what the skipped ticks
// would have counted — a jumping FPU answers like the forced reference at
// every cycle it lands on.
func TestNextEventMatchesForcedTick(t *testing.T) {
	var skipped uint64
	for seed := int64(1); seed <= 300; seed++ {
		_, s := driveFPU(t, seed, true)
		skipped += s
	}
	if skipped == 0 {
		t.Fatal("no script ever jumped a cycle; the test exercises nothing")
	}
}
