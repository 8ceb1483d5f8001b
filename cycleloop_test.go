package aurora

import (
	"context"
	"testing"

	"aurora/internal/core"
	"aurora/internal/trace"
)

// loopStream replays a fixed record sequence forever — an endless synthetic
// workload, so the steady-state cycle loop can be measured (or stepped by a
// benchmark) without ever draining.
type loopStream struct {
	recs []trace.Record
	i    int
}

func (s *loopStream) NextBatch(buf []trace.Record) int {
	for i := range buf {
		buf[i] = s.recs[s.i]
		s.i++
		if s.i == len(s.recs) {
			s.i = 0
		}
	}
	return len(buf)
}

func (s *loopStream) Err() error { return nil }

// newWarmCycleLoop builds a processor over an endless synthetic trace and
// steps it past the cold phase (cache fills, pool and ring growth), leaving
// it in steady state.
func newWarmCycleLoop(tb testing.TB, cfg core.Config) *core.Processor {
	tb.Helper()
	script := make([]byte, 1024)
	for i := range script {
		script[i] = byte(i * 131)
	}
	p, err := core.NewProcessor(cfg, &loopStream{recs: genTrace(script)})
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 50_000; i++ {
		if !p.Step() {
			tb.Fatal("endless trace drained")
		}
	}
	return p
}

// TestCycleLoopZeroAlloc pins the headline property: once warmed up, the
// per-cycle simulation step performs no heap allocation at all — with the
// default folding front end and with every branch predictor swapped in
// (Predict/Update/Recover are on the per-cycle path), and on every real
// kernel fed by the VM (kernel/<name>: vm.Stream and the core together).
// Every stream is batched, so the synthetic subtests exercise the same
// IFU refill path as the kernels.
func TestCycleLoopZeroAlloc(t *testing.T) {
	for _, spec := range []string{"folding", "static", "bimodal", "gshare", "tage"} {
		spec := spec
		t.Run(spec, func(t *testing.T) {
			bp, err := ParseBPred(spec)
			if err != nil {
				t.Fatal(err)
			}
			p := newWarmCycleLoop(t, Baseline().WithBPred(bp))
			requireZeroAllocSteps(t, p.Step)
		})
	}
	for _, name := range WorkloadNames() {
		name := name
		t.Run("kernel/"+name, func(t *testing.T) {
			w, err := GetWorkload(name)
			if err != nil {
				t.Fatal(err)
			}
			sim, err := NewSimulation(context.Background(), Baseline(), w, RunOptions{Budget: 2_000_000})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 20_000; i++ {
				if !sim.Step() {
					t.Fatalf("drained during warm-up: %v", sim.Err())
				}
			}
			requireZeroAllocSteps(t, sim.Step)
			if !sim.Step() {
				t.Fatalf("drained before the measured span ended: %v", sim.Err())
			}
		})
	}
}

// requireZeroAllocSteps fails t unless 5k calls of step allocate nothing.
func requireZeroAllocSteps(t *testing.T, step func() bool) {
	t.Helper()
	avg := testing.AllocsPerRun(20, func() {
		for i := 0; i < 5_000; i++ {
			step()
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state cycle loop allocates: %.2f allocs per 5k-cycle run, want 0", avg)
	}
}

// TestSimulationStepMatchesRun checks that driving a workload through the
// incremental Simulation API retires exactly as many instructions in
// exactly as many cycles as the batch Run path.
func TestSimulationStepMatchesRun(t *testing.T) {
	w, err := GetWorkload("espresso")
	if err != nil {
		t.Fatal(err)
	}
	const budget = 40_000
	rep, err := Run(context.Background(), Baseline(), w, RunOptions{Budget: budget})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := NewSimulation(context.Background(), Baseline(), w, RunOptions{Budget: budget})
	if err != nil {
		t.Fatal(err)
	}
	for sim.Step() {
	}
	if sim.Cycles() != rep.Cycles || sim.Instructions() != rep.Instructions {
		t.Fatalf("stepped run: %d cycles / %d instructions, batch run: %d / %d",
			sim.Cycles(), sim.Instructions(), rep.Cycles, rep.Instructions)
	}
}

// BenchmarkCycleLoop times the steady-state cycle loop over a warmed-up
// machine; allocs/op must report 0. One op is one Step, which may jump
// the clock over quiet cycles, so the loop's cost per simulated cycle is
// reported separately as ns/cycle.
func BenchmarkCycleLoop(b *testing.B) {
	p := newWarmCycleLoop(b, Baseline())
	start := p.Cycles()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Step()
	}
	b.StopTimer()
	if cycles := p.Cycles() - start; cycles > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(cycles), "ns/cycle")
	}
}
