// Command aurorasim runs one workload on one Aurora III machine
// configuration and prints the timing report.
//
// Usage:
//
//	aurorasim -workload espresso -model baseline
//	aurorasim -workload su2cor -model large -latency 35 -issue 1
//	aurorasim -workload compress -icache 4096 -mshrs 4 -instr 2000000
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"

	"aurora"
	"aurora/internal/harness"
	"aurora/internal/obs"
	"aurora/internal/resultstore"
)

// main delegates to run so every exit path unwinds through the same
// cleanup: deferred cancellation, and the observability flush below.
func main() { os.Exit(run()) }

func run() int {
	var (
		workload = flag.String("workload", "espresso", "workload name ("+strings.Join(aurora.WorkloadNames(), ", ")+")")
		model    = flag.String("model", "baseline", "machine model: small, baseline, large, pointE")
		issue    = flag.Int("issue", 0, "issue width override (1 or 2)")
		latency  = flag.Int("latency", 0, "secondary memory latency override (e.g. 17 or 35)")
		icache   = flag.Int("icache", 0, "instruction cache bytes override")
		dcache   = flag.Int("dcache", 0, "data cache bytes override")
		mshrs    = flag.Int("mshrs", 0, "MSHR count override")
		wclines  = flag.Int("wc", 0, "write cache lines override")
		rob      = flag.Int("rob", 0, "reorder buffer entries override")
		pfbufs   = flag.Int("prefetch", 0, "stream buffer count override (0 disables)")
		instr    = flag.Uint64("instr", 0, "dynamic instruction budget (0 = natural completion)")

		sampled      = flag.Bool("sample", false, "sampled + fast-forward mode: estimate CPI ± a confidence bound from periodic detailed windows (see docs/SIMULATION-MODES.md)")
		sampleWarmup = flag.Uint64("sample-warmup", 0, "sampled mode: functional warm-up instructions before the first window (0 = default)")
		sampleEvery  = flag.Uint64("sample-interval", 0, "sampled mode: instructions from one window start to the next (0 = default)")
		sampleWindow = flag.Uint64("sample-window", 0, "sampled mode: detailed instructions per window (0 = default)")
		policy       = flag.String("fpu-policy", "", "FPU issue policy: inorder, single, dual")
		victim       = flag.Int("victim", 0, "victim cache lines (extension; 0 = paper's design)")
		precise      = flag.Bool("precise", false, "FPU precise-exception mode (§3.1)")
		withMMU      = flag.Bool("mmu", false, "enable the structured MMU model (extension)")
		nofold       = flag.Bool("nofold", false, "disable branch folding (ablation)")
		bpredSpec    = flag.String("bpred", "", "branch predictor (extension): folding, static, bimodal, gshare, tage, with options like gshare:entries=4096,hist=12 (see docs/BRANCH-PREDICTION.md)")

		storeDir      = flag.String("store", "", "persistent result store directory: a prior run of this exact configuration is answered from disk (skipping -metrics-out/-trace-out capture)")
		storeReadOnly = flag.Bool("store-readonly", false, "serve store hits but never write new entries")

		metricsOut      = flag.String("metrics-out", "", "write a per-interval metrics time series (CSV, or JSONL with a .jsonl suffix)")
		metricsInterval = flag.Uint64("metrics-interval", 10000, "sampling interval in cycles for -metrics-out")
		traceOut        = flag.String("trace-out", "", "write a Chrome trace-event JSON (load in Perfetto / chrome://tracing)")
		traceFrom       = flag.Uint64("trace-from", 0, "first cycle captured by -trace-out")
		traceCycles     = flag.Uint64("trace-cycles", 200000, "trace window length in cycles for -trace-out (0 = to end of run)")
		timeout         = flag.Duration("timeout", 0, "wall-clock limit for the run (0 = none); SIGINT also stops it cleanly")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "unexpected arguments: %v\n", flag.Args())
		flag.Usage()
		return 2
	}
	stray := "" // a -sample-* flag given without -sample to use it
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) {
		set[f.Name] = true
		if strings.HasPrefix(f.Name, "sample-") && !*sampled {
			stray = f.Name
		}
	})
	if stray != "" {
		return usageError(fmt.Errorf("-%s needs -sample", stray))
	}
	// Normalize would turn a negative issue width or latency into the
	// model's default, and a negative -prefetch reads as no override, so
	// each would run a machine other than the one asked for.
	for _, o := range []struct {
		name string
		v    int
	}{{"issue", *issue}, {"latency", *latency}, {"prefetch", *pfbufs}} {
		if set[o.name] && o.v < 0 {
			return usageError(fmt.Errorf("-%s %d is negative", o.name, o.v))
		}
	}
	if *sampled && (*metricsOut != "" || *traceOut != "") {
		return usageError(fmt.Errorf("-sample estimates CPI from periodic windows; it cannot capture -metrics-out/-trace-out time series (run without -sample for those)"))
	}

	// SIGINT (and an optional -timeout) cancel the simulation; partial
	// -metrics-out / -trace-out data is still flushed on the way out.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	cfg, err := aurora.ModelByName(*model)
	if err != nil {
		return usageError(err)
	}
	if *issue != 0 {
		cfg.IssueWidth = *issue
	}
	if *latency != 0 {
		cfg = cfg.WithLatency(*latency)
	}
	if *icache != 0 {
		cfg.ICacheBytes = *icache
	}
	if *dcache != 0 {
		cfg.DCacheBytes = *dcache
	}
	if *mshrs != 0 {
		cfg.MSHRs = *mshrs
	}
	if *wclines != 0 {
		cfg.WriteCacheLines = *wclines
	}
	if *rob != 0 {
		cfg.ReorderBuffer = *rob
	}
	if set["prefetch"] {
		cfg.PrefetchBuffers = *pfbufs
	}
	cfg.VictimLines = *victim
	cfg.FPU.Precise = *precise
	cfg.DisableBranchFolding = *nofold
	if *bpredSpec != "" {
		bp, err := aurora.ParseBPred(*bpredSpec)
		if err != nil {
			return usageError(err)
		}
		cfg.BPred = bp
	}
	if *withMMU {
		cfg.MMU = aurora.DefaultMMU()
	}
	switch *policy {
	case "":
	case "inorder":
		cfg.FPU.Policy = aurora.FPUInOrder
	case "single":
		cfg.FPU.Policy = aurora.FPUOOOSingle
	case "dual":
		cfg.FPU.Policy = aurora.FPUOOODual
	default:
		return usageError(fmt.Errorf("unknown FPU policy %q", *policy))
	}
	cfg = cfg.Normalize() // the machine the run simulates, and prices
	if err := cfg.Validate(); err != nil {
		return usageError(err) // an override the model cannot build
	}

	w, err := aurora.GetWorkload(*workload)
	if err != nil {
		return usageError(err)
	}
	cost, err := aurora.Cost(cfg)
	if err != nil {
		return fail(err)
	}

	// The run goes through a one-worker harness runner, so the result key
	// (config fingerprint, workload, effective budget) matches what
	// aurora-experiments and aurora-serve persist: with -store, a cell
	// simulated by any of the three is a disk hit for the rest.
	runner := harness.NewRunner(1)
	if *storeDir != "" {
		runner.Store, err = resultstore.OpenMode(*storeDir, *storeReadOnly)
		if err != nil {
			return fail(err)
		}
	}
	servedFromStore := func() {
		if runner.Stats().StoreHits > 0 {
			fmt.Fprintf(os.Stderr, "aurorasim: result served from store %s\n", runner.Store.Dir())
		}
	}

	if *sampled {
		p := aurora.SampleParams{WarmUp: *sampleWarmup, Interval: *sampleEvery, Window: *sampleWindow}
		srep, err := runner.RunSampled(ctx, cfg, w, harness.Options{Budget: *instr}, p)
		servedFromStore()
		if err != nil {
			return fail(err)
		}
		fmt.Printf("workload %s (%s): %s\n", w.Name, w.Suite, w.Description)
		fmt.Printf("cost: %d RBE (integer side) + %d RBE (FPU)\n", cost, aurora.FPUCost(cfg.FPU))
		fmt.Printf("sampled run: %d instructions (%d detailed, %d windows)\n",
			srep.Instructions, srep.DetailedInstructions, srep.Windows)
		fmt.Printf("  CPI %.4f ± %.4f (%.0f%% confidence)  estimated cycles %d\n",
			srep.CPI, srep.CPIError, 100*srep.Confidence, srep.EstimatedCycles)
		fmt.Printf("  params: warm-up %d, interval %d, window %d (key %s)\n",
			srep.Params.WarmUp, srep.Params.Interval, srep.Params.Window, srep.SampleKey)
		return 0
	}

	var sampler *obs.IntervalSampler
	var tracer *obs.TraceSink
	var sinks []obs.Sink
	if *metricsOut != "" {
		sampler = obs.NewIntervalSampler(*metricsInterval)
		sinks = append(sinks, sampler)
	}
	if *traceOut != "" {
		end := uint64(0)
		if *traceCycles > 0 {
			end = *traceFrom + *traceCycles
		}
		tracer = obs.NewTraceSink(*traceFrom, end)
		sinks = append(sinks, tracer)
	}

	if len(sinks) > 0 {
		runner.Observe = func(harness.JobInfo) obs.Sink { return obs.Multi(sinks...) }
	}
	rep, err := runner.Run(ctx, cfg, w, harness.Options{Budget: *instr})
	servedFromStore()
	exit := 0
	if err != nil {
		fmt.Fprintln(os.Stderr, "aurorasim:", err)
		exit = 1
	}
	// Single cleanup path: whatever the run's outcome — success, SimFault,
	// timeout or SIGINT — the observability sinks flush what they captured.
	if sampler != nil {
		sampler.Flush()
		if werr := writeMetrics(*metricsOut, sampler); werr != nil {
			fmt.Fprintln(os.Stderr, "aurorasim: metrics:", werr)
			exit = 1
		}
	}
	if tracer != nil {
		if werr := writeTrace(*traceOut, tracer, w.Name+" on "+cfg.Name); werr != nil {
			fmt.Fprintln(os.Stderr, "aurorasim: trace:", werr)
			exit = 1
		}
	}
	if rep == nil {
		return exit
	}

	fmt.Printf("workload %s (%s): %s\n", w.Name, w.Suite, w.Description)
	fmt.Printf("cost: %d RBE (integer side) + %d RBE (FPU)\n", cost, aurora.FPUCost(cfg.FPU))
	fmt.Print(rep)
	fmt.Printf("  dual-issue rate %.1f%%  BIU reads %d writes %d (avg read latency %.1f)\n",
		100*rep.DualIssueRate(), rep.BIU.Reads, rep.BIU.Writes, rep.BIU.AvgReadLatency())
	fmt.Printf("  FPU issued %d (dual cycles %d)\n",
		rep.FPU.Issued, rep.FPU.DualIssues)
	if *withMMU {
		fmt.Printf("  MMU: TLB miss %.3f%%  L2 hit %.1f%%\n",
			100*rep.MMU.TLBMissRate(), 100*rep.MMU.L2HitRate())
	}
	if *victim > 0 {
		fmt.Printf("  victim cache: %d probes, %d hits\n", rep.VictimProbes, rep.VictimHits)
	}
	return exit
}

func writeMetrics(path string, s *obs.IntervalSampler) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(path, ".jsonl") {
		err = s.WriteJSONL(f)
	} else {
		err = s.WriteCSV(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func writeTrace(path string, t *obs.TraceSink, processName string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = t.WriteJSON(f, processName)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "aurorasim:", err)
	return 1
}

// usageError reports flags that parse but name nothing runnable, and
// returns the usage exit code.
func usageError(err error) int {
	fmt.Fprintln(os.Stderr, "aurorasim:", err)
	return 2
}
