// Command aurora-experiments regenerates every table and figure of the
// paper's evaluation section and prints them in order.
//
// Runs execute on a parallel worker pool (-j) with memoized results, so
// configurations shared between figures simulate once and the output is
// byte-identical for any worker count.
//
// Usage:
//
//	aurora-experiments            # full budgets (minutes)
//	aurora-experiments -quick     # reduced budgets (seconds, noisier)
//	aurora-experiments -quick -sweep 300000   # preset plus explicit override
//	aurora-experiments -budget 800000 -sweep 300000 -j 8
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"aurora/internal/bpred"
	"aurora/internal/harness"
	"aurora/internal/resultstore"
	"aurora/internal/sample"
)

// resolveOptions overlays the flags the user explicitly passed (per set)
// onto the chosen preset. Explicit flags always win — -quick -sweep 300000
// keeps the quick budget but honours the sweep override — and explicit
// zeros are expressible: -budget 0 requests natural completion, -sweep 0
// requests "use the main budget".
func resolveOptions(quick bool, set map[string]bool, budget, sweep uint64) harness.Options {
	opts := harness.Full()
	if quick {
		opts = harness.Quick()
	}
	if set["budget"] {
		opts.Budget = budget
	}
	if set["sweep"] {
		opts.SweepBudget = sweep
	}
	return opts
}

// main delegates to run so every exit path — including a faulted or
// interrupted sweep — unwinds through the same observability flush.
func main() { os.Exit(run()) }

func run() int {
	var (
		quick      = flag.Bool("quick", false, "reduced budgets for a fast pass")
		budget     = flag.Uint64("budget", 0, "per-benchmark instruction budget (0 = natural completion)")
		sweep      = flag.Uint64("sweep", 600_000, "budget for wide parameter sweeps (Figures 8-9; 0 = use -budget)")
		workers    = flag.Int("j", runtime.GOMAXPROCS(0), "parallel simulation workers")
		csvDir     = flag.String("csv", "", "also write one CSV per artifact into this directory")
		extensions = flag.Bool("extensions", false, "also run the extension studies")

		bpredSpec  = flag.String("bpred", "", "branch predictor override applied to every default-front-end configuration (e.g. gshare:entries=4096,hist=12; see docs/BRANCH-PREDICTION.md)")
		bpredSweep = flag.Bool("bpred-sweep", false, "run only the predictor storage-bits vs CPI sweep on the baseline model")

		explore         = flag.Bool("explore", false, "run the adaptive design-space exploration instead of the paper figures (see docs/EXPLORER.md)")
		exploreGrid     = flag.String("explore-grid", "default", "candidate grid preset: default or tiny")
		exploreWorkload = flag.String("explore-workload", "", "workload the exploration races candidates on (default espresso)")
		exploreBudget   = flag.Uint64("explore-budget", 0, "final-rung instruction budget (0 = preset default)")
		exploreRungs    = flag.Int("explore-rungs", 0, "successive-halving rungs including the final exact rung (0 = preset default)")
		exploreHalve    = flag.Uint64("explore-halve", 0, "budget divisor between adjacent rungs (0 = preset default)")
		exploreSlack    = flag.Float64("explore-slack", 0, "frontier-adjacency CPI slack kept through screening rungs (0 = preset default)")
		exploreMaxCost  = flag.Int("explore-max-cost", 0, "drop candidates above this RBE cost before simulating (0 = no cap)")
		exploreSampled  = flag.Bool("explore-sampled", false, "run screening rungs in sampled mode (final rung stays exact; uses the -sample-* parameters)")

		sampled      = flag.Bool("sample", false, "sampled + fast-forward mode: estimate the models x workloads CPI grid with confidence bounds instead of regenerating the exact figures (see docs/SIMULATION-MODES.md)")
		sampleWarmup = flag.Uint64("sample-warmup", 0, "sampled mode: functional warm-up instructions before the first window (0 = default)")
		sampleEvery  = flag.Uint64("sample-interval", 0, "sampled mode: instructions from one window start to the next (0 = default)")
		sampleWindow = flag.Uint64("sample-window", 0, "sampled mode: detailed instructions per window (0 = default)")

		metricsOut      = flag.String("metrics-out", "", "write a per-interval metrics time series for every distinct simulation (long-format CSV)")
		metricsInterval = flag.Uint64("metrics-interval", 10000, "sampling interval in cycles for -metrics-out")
		traceOut        = flag.String("trace-out", "", "write a Chrome trace-event JSON covering every distinct simulation's trace window")
		traceCycles     = flag.Uint64("trace-cycles", 50000, "trace window length in cycles (from cycle 0) for -trace-out")
		pprofAddr       = flag.String("pprof", "", "serve /debug/pprof and /debug/vars on this address (e.g. localhost:6060)")

		storeDir      = flag.String("store", "", "persistent result store directory: completed cells are reused across processes")
		storeReadOnly = flag.Bool("store-readonly", false, "serve store hits but never write new entries")

		failFast   = flag.Bool("failfast", false, "abort on the first job fault instead of rendering partial tables with faulted cells marked")
		jobTimeout = flag.Duration("job-timeout", 0, "wall-clock limit per simulation job (0 = none); an expired job faults, the sweep continues")
		timeout    = flag.Duration("timeout", 0, "wall-clock limit for the whole run (0 = none); SIGINT also stops it cleanly")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "unexpected arguments: %v\n", flag.Args())
		flag.Usage()
		return 2
	}

	// Flags that parse but make no run are usage errors (exit 2), found
	// before the store, the debug server or any simulation is started.
	set := map[string]bool{}
	usage := "" // why the flags, as given, make no run
	flag.Visit(func(f *flag.Flag) {
		set[f.Name] = true
		switch {
		case strings.HasPrefix(f.Name, "explore-") && !*explore:
			usage = "-" + f.Name + " needs -explore"
		case strings.HasPrefix(f.Name, "sample-") && !*sampled && !(*explore && *exploreSampled):
			usage = "-" + f.Name + " needs a sampled mode (-sample, or -explore with -explore-sampled)"
		}
	})
	switch {
	case usage != "":
	case (*explore && (*sampled || *bpredSweep)) || (*sampled && *bpredSweep):
		usage = "-explore, -sample and -bpred-sweep are separate modes; run them separately (sampled screening inside an exploration is -explore-sampled)"
	case *sampled && (*extensions || *csvDir != ""):
		usage = "-sample estimates the CPI grid only; -extensions and -csv need exact runs"
	case (*metricsOut != "" || *traceOut != "") && (*explore || *sampled || *bpredSweep):
		// Each of those modes replaces the exact figure regeneration, the
		// only one whose per-cycle time series the collectors capture.
		usage = "-explore, -sample and -bpred-sweep do not capture -metrics-out/-trace-out time series"
	}
	if usage != "" {
		return usageError(usage)
	}
	sp := sample.Params{WarmUp: *sampleWarmup, Interval: *sampleEvery, Window: *sampleWindow}
	opts := resolveOptions(*quick, set, *budget, *sweep)
	opts.FailFast = *failFast
	var spec harness.ExploreSpec
	var err error
	if *explore {
		// An exploration the grid, workload or sampling parameters rule out.
		spec, err = harness.ExploreSpecFor(*exploreGrid, harness.ExploreSpec{
			Workload: *exploreWorkload, FullBudget: *exploreBudget, Rungs: *exploreRungs,
			Halve: *exploreHalve, Slack: *exploreSlack, MaxCostRBE: *exploreMaxCost,
			Sampled: *exploreSampled, Sample: sp,
		})
		if err != nil {
			return usageError(err.Error())
		}
	}
	if *bpredSpec != "" {
		if opts.BPred, err = bpred.Parse(*bpredSpec); err != nil {
			return usageError(err.Error())
		}
	}

	// SIGINT (and an optional -timeout) cancel queued and running jobs;
	// partial CSV, metrics and trace output is still flushed on the way out.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stopSignals()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	runner := harness.NewRunner(*workers)
	runner.JobTimeout = *jobTimeout
	if *storeDir != "" {
		runner.Store, err = resultstore.OpenMode(*storeDir, *storeReadOnly)
		if err != nil {
			fmt.Fprintln(os.Stderr, "aurora-experiments: store:", err)
			return 1
		}
	}
	if *pprofAddr != "" {
		addr, err := harness.ServeDebug(*pprofAddr, runner)
		if err != nil {
			fmt.Fprintln(os.Stderr, "aurora-experiments: pprof:", err)
			return 1
		}
		fmt.Printf("debug server on http://%s/debug/pprof/\n", addr)
	}
	var collector *harness.ObsCollector
	if *metricsOut != "" || *traceOut != "" {
		interval := uint64(0)
		if *metricsOut != "" {
			interval = *metricsInterval
		}
		cycles := uint64(0)
		if *traceOut != "" {
			cycles = *traceCycles
		}
		collector = harness.NewObsCollector(interval, 0, cycles)
		runner.Observe = collector.Sink
	}
	sink := &csvSink{dir: *csvDir}
	start := time.Now()
	exit := 0
	if *explore {
		// The exploration is its own mode: it replaces the paper-figure
		// regeneration, drives the runner directly, and prints the frontier.
		ex := &harness.Explorer{Runner: runner, Spec: spec}
		res, err := ex.Run(ctx)
		if err == nil {
			res.Table().Text(os.Stdout)
			err = sink.write("explore", res.Table().CSV)
			sink.report()
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "aurora-experiments:", err)
			exit = 1
		}
		printSummary(runner, "exploration", time.Since(start).Round(time.Millisecond), "simulations")
		return exit
	}
	if *sampled {
		// Sampled mode replaces the exact figure regeneration with the
		// estimated CPI grid.
		res, err := harness.SampledSweep(ctx, runner, opts, sp)
		if err != nil {
			fmt.Fprintln(os.Stderr, "aurora-experiments:", err)
			exit = 1
		} else {
			res.Table().Text(os.Stdout)
		}
		printSummary(runner, "sampled sweep", time.Since(start).Round(time.Millisecond), "estimates")
		return exit
	}

	// Every other mode renders registry artifacts: the paper's sections,
	// optionally the extension studies, or — with -bpred-sweep — only the
	// predictor sweep (baseline machine, every predictor design point).
	arts := harness.Artifacts(harness.PaperArtifact)
	if *extensions {
		arts = harness.Artifacts(harness.PaperArtifact, harness.ExtensionArtifact)
	}
	what, round := "regenerated all tables and figures", time.Second
	if *bpredSweep {
		bp, _ := harness.ArtifactNamed("bpred")
		arts = []harness.Artifact{bp}
		what, round = "predictor sweep", time.Millisecond
	}
	if err := harness.Render(ctx, os.Stdout, runner, opts, arts, sink.write); err != nil {
		fmt.Fprintln(os.Stderr, "aurora-experiments:", err)
		exit = 1
	} else {
		sink.report()
	}
	// Single cleanup path: the collector flushes whatever the finished jobs
	// produced even when the sweep failed fast or was interrupted, so a
	// partial run still leaves usable metrics and traces behind.
	save := func(path, what, label string, gen func(io.Writer) error) {
		if path == "" {
			return
		}
		if err := writeFile(path, gen); err != nil {
			fmt.Fprintf(os.Stderr, "aurora-experiments: %s: %v\n", label, err)
			exit = 1
		} else {
			fmt.Printf("%s written to %s\n", what, path)
		}
	}
	if collector != nil {
		save(*metricsOut, "metrics time series", "metrics", collector.WriteMetricsCSV)
		save(*traceOut, "Chrome trace", "trace", collector.WriteChromeTrace)
	}
	printSummary(runner, what, time.Since(start).Round(round), "simulations")
	return exit
}

// usageError reports flags that parse but make no run, and returns the
// usage exit code.
func usageError(why string) int {
	fmt.Fprintln(os.Stderr, "aurora-experiments:", why)
	return 2
}

// printSummary prints the closing line every mode ends with. With a store
// it splits the jobs into simulated and served from disk; without one,
// every memo miss was computed and is counted as noun.
func printSummary(runner *harness.Runner, what string, elapsed time.Duration, noun string) {
	st := runner.Stats()
	if runner.Store != nil {
		fmt.Printf("\n%s in %s (%d workers; %d simulated, %d store hits, %d memo hits)\n",
			what, elapsed, runner.Workers(), st.Simulated, st.StoreHits, st.Hits)
		return
	}
	fmt.Printf("\n%s in %s (%d workers; %d %s, %d memo hits)\n",
		what, elapsed, runner.Workers(), st.Misses, noun, st.Hits)
}

// csvSink writes CSV artifacts as <dir>/<name>.csv, creating dir on first
// use, and remembers the files it wrote. With no dir (-csv unset) it writes
// nothing.
type csvSink struct {
	dir   string
	paths []string
}

func (s *csvSink) write(name string, gen func(io.Writer) error) error {
	if s.dir == "" {
		return nil
	}
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return fmt.Errorf("csv: %w", err)
	}
	path := filepath.Join(s.dir, name+".csv")
	if err := writeFile(path, gen); err != nil {
		return fmt.Errorf("csv: %w", err)
	}
	s.paths = append(s.paths, path)
	return nil
}

// report prints where the artifacts went: the file itself when there is
// only one.
func (s *csvSink) report() {
	switch len(s.paths) {
	case 0:
	case 1:
		fmt.Printf("CSV artifact written to %s\n", s.paths[0])
	default:
		fmt.Printf("CSV artifacts written to %s\n", s.dir)
	}
}

// writeFile creates path and streams gen's output into it.
func writeFile(path string, gen func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = gen(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
