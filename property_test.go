package aurora

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"aurora/internal/isa"
	"aurora/internal/trace"
)

// Property tests over the timing model: for arbitrary (but well-formed)
// traces and configurations, global invariants must hold.

// genTrace builds a well-formed synthetic trace from a random byte script.
func genTrace(script []byte) []trace.Record {
	var recs []trace.Record
	pc := uint32(0x1000)
	for _, op := range script {
		var in isa.Instruction
		var addr uint32
		switch op % 8 {
		case 0, 1, 2:
			in = isa.Instruction{Op: isa.OpADDU, Rd: 8 + op%8, Rs: 9, Rt: 10}
		case 3:
			in = isa.Instruction{Op: isa.OpLW, Rt: 8 + op%4, Rs: 29}
			addr = 0x2000 + uint32(op)*64
		case 4:
			in = isa.Instruction{Op: isa.OpSW, Rt: 8, Rs: 29}
			addr = 0x8000 + uint32(op)*32
		case 5:
			in = isa.Instruction{Op: isa.OpMULT, Rs: 8, Rt: 9}
		case 6:
			in = isa.Instruction{Op: isa.OpXOR, Rd: 11, Rs: 8, Rt: 9}
		case 7:
			in = isa.Instruction{Op: isa.OpSLL} // nop
		}
		rec := trace.NewRecord(pc, in)
		rec.MemAddr = addr
		recs = append(recs, rec)
		pc += 4
		if pc > 0x1000+4*256 { // loop the PC region: bounded code footprint
			pc = 0x1000
		}
	}
	return recs
}

// genConfig derives a valid configuration from three random bytes.
func genConfig(a, b, c byte) Config {
	cfg := Baseline()
	cfg.ICacheBytes = 1024 << (a % 3)
	cfg.DCacheBytes = 16384 << (a / 3 % 3)
	cfg.MSHRs = 1 + int(b%4)
	cfg.ReorderBuffer = 2 + int(b/4%8)
	cfg.WriteCacheLines = 2 << (c % 3)
	cfg.PrefetchBuffers = int(c / 4 % 9) // 0..8; 0 disables prefetch
	cfg.IssueWidth = 1 + int(c%2)
	return cfg
}

// Property: the simulator always terminates, retires exactly the trace, and
// its statistics satisfy conservation laws.
func TestPropertySimulatorInvariants(t *testing.T) {
	f := func(script []byte, a, b, c byte) bool {
		if len(script) > 2000 {
			script = script[:2000]
		}
		recs := genTrace(script)
		cfg := genConfig(a, b, c)
		rep, err := RunTrace(context.Background(), cfg, &trace.SliceStream{Records: recs})
		if err != nil {
			t.Logf("config %+v: %v", cfg, err)
			return false
		}
		if rep.Instructions != uint64(len(recs)) {
			t.Logf("retired %d of %d", rep.Instructions, len(recs))
			return false
		}
		if len(recs) > 0 && rep.Cycles == 0 {
			return false
		}
		// Cycles ≥ instructions / issue width.
		if rep.Cycles*uint64(cfg.IssueWidth) < rep.Instructions {
			t.Logf("cycles %d below issue bound", rep.Cycles)
			return false
		}
		// Stall accounting never exceeds total cycles.
		var stalls uint64
		for cause := StallCause(0); cause < NumStallCauses; cause++ {
			stalls += rep.Stalls[cause]
		}
		if stalls > rep.Cycles {
			t.Logf("stalls %d exceed cycles %d", stalls, rep.Cycles)
			return false
		}
		// Miss counts bounded by accesses; prefetch hits bounded by probes.
		if rep.ICacheMisses > rep.ICacheAccesses || rep.DCacheMisses > rep.DCacheAccesses {
			return false
		}
		if rep.IPrefetchHits > rep.IPrefetchProbes || rep.DPrefetchHits > rep.DPrefetchProbes {
			return false
		}
		// Write-cache conservation: transactions ≤ stores, hits ≤ accesses.
		if rep.WCTransactions > rep.WCStores || rep.WCHits > rep.WCAccesses {
			return false
		}
		// Disabled prefetch must report no prefetch activity.
		if cfg.PrefetchBuffers == 0 && (rep.IPrefetchHits != 0 || rep.DPrefetchHits != 0) {
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(7))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: the simulator is deterministic — the same trace and config give
// identical reports.
func TestPropertyDeterminism(t *testing.T) {
	f := func(script []byte, a, b, c byte) bool {
		if len(script) > 800 {
			script = script[:800]
		}
		recs := genTrace(script)
		cfg := genConfig(a, b, c)
		r1, err1 := RunTrace(context.Background(), cfg, &trace.SliceStream{Records: recs})
		r2, err2 := RunTrace(context.Background(), cfg, &trace.SliceStream{Records: recs})
		if (err1 == nil) != (err2 == nil) {
			return false
		}
		if err1 != nil {
			return true
		}
		return r1.Cycles == r2.Cycles && r1.Instructions == r2.Instructions &&
			r1.Stalls == r2.Stalls && r1.DualIssues == r2.DualIssues
	}
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(8))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: adding resources never makes the machine slower on the same
// trace — monotonicity of MSHRs (the strongest monotone knob in the model).
func TestPropertyMSHRMonotone(t *testing.T) {
	f := func(script []byte, seed byte) bool {
		if len(script) > 1200 {
			script = script[:1200]
		}
		recs := genTrace(script)
		cycles := func(mshrs int) uint64 {
			cfg := Baseline()
			cfg.DCacheBytes = 16 << 10
			cfg.MSHRs = mshrs
			cfg.PrefetchBuffers = int(seed % 5)
			rep, err := RunTrace(context.Background(), cfg, &trace.SliceStream{Records: recs})
			if err != nil {
				t.Fatal(err)
			}
			return rep.Cycles
		}
		// Allow a tiny tolerance: more overlap can shift prefetch
		// timing slightly, but a regression beyond 2% is a bug.
		c1, c4 := cycles(1), cycles(4)
		return float64(c4) <= float64(c1)*1.02
	}
	cfg := &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(9))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: cost model is monotone in every resource.
func TestPropertyCostMonotone(t *testing.T) {
	f := func(a, b, c byte) bool {
		cfg := genConfig(a, b, c)
		base, err := Cost(cfg)
		if err != nil {
			return false
		}
		grow := cfg
		grow.MSHRs++
		grow.ReorderBuffer++
		grow.WriteCacheLines++
		grown, err := Cost(grow)
		if err != nil {
			return false
		}
		return grown > base
	}
	cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(10))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: the §6 rescheduling pass preserves the instruction multiset and
// every true dependence order, and never slows the machine down much (it
// can shift cache behaviour slightly, but a large regression is a bug).
func TestPropertyRescheduleSound(t *testing.T) {
	f := func(script []byte) bool {
		if len(script) > 1500 {
			script = script[:1500]
		}
		recs := genTrace(script)
		rs := trace.NewReschedule(&trace.SliceStream{Records: append([]trace.Record{}, recs...)})
		var out []trace.Record
		buf := make([]trace.Record, 64)
		for n := rs.NextBatch(buf); n > 0; n = rs.NextBatch(buf) {
			out = append(out, buf[:n]...)
		}
		if len(out) != len(recs) {
			t.Logf("reschedule dropped records: %d → %d", len(recs), len(out))
			return false
		}
		// Multiset of opcodes preserved.
		count := func(rs []trace.Record) map[isa.Op]int {
			m := map[isa.Op]int{}
			for _, r := range rs {
				m[r.SI.In.Op]++
			}
			return m
		}
		in, outc := count(recs), count(out)
		for op, n := range in {
			if outc[op] != n {
				t.Logf("op %v count %d → %d", op, n, outc[op])
				return false
			}
		}
		// Every writer of a register still precedes its readers within
		// the reordered stream (per original producer/consumer pair,
		// checked pairwise over a window).
		lastWrite := map[uint8]int{}
		for i, r := range out {
			for _, s := range []uint8{r.SI.Deps.SrcInt[0], r.SI.Deps.SrcInt[1]} {
				if s == 0 {
					continue
				}
				if w, ok := lastWrite[s]; ok && w > i {
					return false
				}
			}
			if d := r.SI.Deps.DstInt; d != 0 {
				lastWrite[d] = i
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(11))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: running any generated trace through the scheduler and the
// simulator still satisfies the basic conservation laws.
func TestPropertyScheduledSimulation(t *testing.T) {
	f := func(script []byte, a, b, c byte) bool {
		if len(script) > 800 {
			script = script[:800]
		}
		recs := genTrace(script)
		cfg := genConfig(a, b, c)
		rep, err := RunTrace(context.Background(), cfg, trace.NewReschedule(&trace.SliceStream{Records: recs}))
		if err != nil {
			return false
		}
		return rep.Instructions == uint64(len(recs))
	}
	cfg := &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(12))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
