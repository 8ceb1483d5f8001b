// Package aurora is a trace-driven timing simulator of the Aurora III, the
// experimental 300 MHz GaAs microprocessor of Upton, Huff, Mudge and Brown,
// "Resource Allocation in a High Clock Rate Microprocessor" (ASPLOS VI,
// 1994). It reproduces the paper's resource-allocation study: three machine
// models (small / baseline / large), single- and dual-issue pipelines,
// stream-buffer prefetching, a non-blocking external data cache with MSHRs,
// a coalescing write cache, and a decoupled floating-point unit with
// configurable queues and functional-unit latencies — all costed in
// Register Bit Equivalents.
//
// # Quick start
//
//	w, _ := aurora.GetWorkload("espresso")
//	rep, _ := aurora.Run(context.Background(), aurora.Baseline(), w, aurora.RunOptions{})
//	fmt.Printf("CPI %.3f, icache hit %.1f%%\n", rep.CPI(), 100*rep.ICacheHitRate())
//
// Workloads are MIPS R3000 assembly kernels modelled after the SPEC92
// programs the paper used; they are assembled and executed functionally by
// an internal MIPS VM whose dynamic instruction trace drives the timing
// model, mirroring the paper's trace-driven methodology.
package aurora

import (
	"context"

	"aurora/internal/bpred"
	"aurora/internal/core"
	"aurora/internal/fpu"
	"aurora/internal/harness"
	"aurora/internal/mem"
	"aurora/internal/mmu"
	"aurora/internal/obs"
	"aurora/internal/rbe"
	"aurora/internal/sample"
	"aurora/internal/simfault"
	"aurora/internal/trace"
	"aurora/internal/workloads"
)

// SimFault is the typed error a panic inside the timing core is recovered
// into: it identifies the job (configuration fingerprint, workload), the
// faulting subsystem and the simulated cycle the panic fired at, and carries
// the stack. Match with errors.As:
//
//	var f *aurora.SimFault
//	if errors.As(err, &f) { log.Printf("bad design point: %v", f) }
type SimFault = simfault.Fault

// Config is a complete machine configuration (Table 1 resources plus the
// memory system and FPU).
type Config = core.Config

// Report carries the result of a timing run: CPI, stall breakdown, cache,
// prefetch, write-cache and FPU statistics.
type Report = core.Report

// StallCause labels the stall buckets of Figure 6.
type StallCause = core.StallCause

// Stall causes (paper §5.3, plus FPU decoupling and a residual bucket).
const (
	StallICache    = core.StallICache
	StallLoad      = core.StallLoad
	StallROBFull   = core.StallROBFull
	StallLSUBusy   = core.StallLSUBusy
	StallFPU       = core.StallFPU
	StallOther     = core.StallOther
	NumStallCauses = core.NumStallCauses
)

// FPUConfig parameterises the decoupled floating-point unit.
type FPUConfig = fpu.Config

// FPUPolicy selects the §5.8 issue policy.
type FPUPolicy = fpu.IssuePolicy

// FPU issue policies.
const (
	FPUInOrder   = fpu.InOrderComplete
	FPUOOOSingle = fpu.OutOfOrderSingle
	FPUOOODual   = fpu.OutOfOrderDual
)

// MemoryConfig parameterises the secondary memory system (BIU).
type MemoryConfig = mem.Config

// BPredConfig selects and sizes the branch direction predictor (extension;
// the zero value keeps the paper's branch-folding front end). See
// docs/BRANCH-PREDICTION.md.
type BPredConfig = bpred.Config

// BPredKind names a predictor model.
type BPredKind = bpred.Kind

// Predictor models, from the paper's folded front end to TAGE.
const (
	BPredFolding = bpred.Folding
	BPredStatic  = bpred.Static
	BPredBimodal = bpred.Bimodal
	BPredGShare  = bpred.GShare
	BPredTAGE    = bpred.TAGE
)

// ParseBPred parses a -bpred flag value such as "gshare:entries=4096,hist=12"
// into a predictor configuration.
func ParseBPred(s string) (BPredConfig, error) { return bpred.Parse(s) }

// MMUConfig parameterises the optional structured MMU model (TLB +
// secondary cache) behind the BIU; the zero value keeps the paper's flat
// average-latency abstraction.
type MMUConfig = mmu.Config

// DefaultMMU returns a period-plausible structured MMU (64-entry TLB,
// 512 KB secondary cache).
func DefaultMMU() MMUConfig { return mmu.DefaultConfig() }

// Workload is one benchmark kernel (a SPEC92 stand-in).
type Workload = workloads.Workload

// Machine-model constructors (Table 1).
var (
	Small        = core.Small
	Baseline     = core.Baseline
	Large        = core.Large
	RecommendedE = core.RecommendedE
	Models       = core.Models
)

// DefaultFPU returns the §5.11 recommended FPU configuration.
func DefaultFPU() FPUConfig { return fpu.DefaultConfig() }

// ModelByName resolves a Table 1 model name ("small", "baseline", "large")
// or the §5.6 recommendation ("pointE").
func ModelByName(name string) (Config, error) { return harness.ModelByName(name) }

// GetWorkload returns a workload by its SPEC name ("espresso", "alvinn", ...).
func GetWorkload(name string) (*Workload, error) { return workloads.Get(name) }

// WorkloadNames lists all workloads, integer suite first.
func WorkloadNames() []string { return workloads.Names() }

// IntegerSuite returns the six SPECint92 stand-ins in the paper's order.
func IntegerSuite() []*Workload { return workloads.Integer() }

// FPSuite returns the nine SPECfp92 stand-ins in the paper's order.
func FPSuite() []*Workload { return workloads.FP() }

// RunOptions selects how Run and NewSimulation simulate a workload.
type RunOptions struct {
	// Budget bounds the dynamic instruction count; 0 uses the workload's
	// default budget, which covers the kernel's full natural run.
	Budget uint64
	// Scheduled applies the §6 "better compiler scheduling" pass: each
	// basic block of the dynamic trace is list-scheduled (loads hoisted
	// away from their consumers) before it reaches the timing model —
	// modelling a recompiled binary.
	Scheduled bool
	// Sink, when non-nil, receives the run's observability stream (see
	// internal/obs): timeline events and, at the sink's sampling interval,
	// per-interval metric batches. A nil sink keeps the timing model on
	// its zero-cost path, so the Report is identical.
	Sink obs.Sink
}

// Run executes a workload on the given machine configuration.
// Cancelling ctx stops the simulation within a few thousand cycles and
// returns ctx.Err(). A panic inside machine construction or the timing
// core comes back as a *SimFault instead of unwinding the caller.
func Run(ctx context.Context, cfg Config, w *Workload, opts RunOptions) (*Report, error) {
	sim, err := NewSimulation(ctx, cfg, w, opts)
	if err != nil {
		return nil, err
	}
	return sim.Run()
}

// Simulation is an incrementally-stepped timing run: the same machine Run
// drives, exposed one tick at a time (Step, Cycles, Instructions, Err,
// FastForward). A Step may jump the clock over quiet cycles first, so
// Cycles can advance by more than one. Benchmarks use it to warm a
// processor up and then time the steady-state cycle loop in isolation.
type Simulation = harness.Simulation

// NewSimulation prepares a workload run for tick-by-tick stepping. Once
// ctx is cancelled, Step returns false within a few thousand cycles and
// Err reports ctx.Err().
func NewSimulation(ctx context.Context, cfg Config, w *Workload, opts RunOptions) (*Simulation, error) {
	return harness.NewSimulation(ctx, cfg, w, harness.Options{Budget: opts.Budget, Scheduled: opts.Scheduled}, opts.Sink)
}

// SampleParams configures the sampled simulation mode (see internal/sample);
// the zero value selects the tuned defaults.
type SampleParams = sample.Params

// SampledReport is a sampled run's estimate: CPI with a measured confidence
// bound, plus the window measurements behind it.
type SampledReport = sample.Report

// RunSampled executes a workload in sampled + fast-forward mode: the
// functional VM fast-forwards between periodic cycle-accurate windows and
// CPI is estimated from the windows with a reported confidence bound
// (Report.CPIError). On the pinned benchmark sweep this is 5-8× faster than
// Run with |CPI error| within the bound on every kernel — see
// docs/SIMULATION-MODES.md for the algorithm and the error model.
// maxInstr follows RunOptions.Budget's convention (0 = the workload's
// default budget).
func RunSampled(ctx context.Context, cfg Config, w *Workload, maxInstr uint64, p SampleParams) (*SampledReport, error) {
	return harness.NewRunner(1).RunSampled(ctx, cfg, w, harness.Options{Budget: maxInstr}, p)
}

// RunTrace executes the timing model over an arbitrary trace stream
// (for pre-recorded traces or synthetic streams).
func RunTrace(ctx context.Context, cfg Config, stream trace.Stream) (*Report, error) {
	return harness.RunTrace(ctx, cfg, stream)
}

// Runner is the parallel experiment engine: it schedules simulation jobs
// onto a bounded worker pool and memoizes results by the configuration's
// canonical fingerprint, so sweeps that revisit a (config, workload, budget)
// job reuse the finished Report instead of re-simulating. Reports returned
// for memo hits are shared and must be treated as read-only.
//
//	r := aurora.NewRunner(0) // 0 = GOMAXPROCS workers
//	rep, err := r.Run(ctx, aurora.Baseline(), w, aurora.RunnerOptions{Budget: 600_000})
type Runner = harness.Runner

// RunnerOptions are the per-request options of a Runner: instruction
// budget, the §6 scheduling pass, failure policy and predictor override.
type RunnerOptions = harness.Options

// RunnerStats reports a Runner's memo-table behaviour.
type RunnerStats = harness.RunnerStats

// NewRunner returns a parallel experiment runner; workers <= 0 selects
// runtime.GOMAXPROCS(0).
func NewRunner(workers int) *Runner { return harness.NewRunner(workers) }

// Cost returns a configuration's integer-side implementation cost in
// Register Bit Equivalents (Table 2).
func Cost(cfg Config) (int, error) { return cfg.CostRBE() }

// FPUCost returns an FPU configuration's cost in RBE (Table 2).
func FPUCost(cfg FPUConfig) int {
	c := cfg.Normalize()
	return rbe.FPUCost{
		InstrQueue: c.InstrQueue, LoadQueue: c.LoadQueue, StoreQueue: c.StoreQueue,
		ReorderBuf: c.ReorderBuffer,
		AddLatency: c.AddLatency, MulLatency: c.MulLatency,
		DivLatency: c.DivLatency, CvtLatency: c.CvtLatency,
		AddPipelined: c.AddPipelined, MulPipelined: c.MulPipelined,
	}.Total()
}
