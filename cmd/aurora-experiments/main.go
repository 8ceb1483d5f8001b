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
	"time"

	"aurora/internal/bpred"
	"aurora/internal/core"
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

	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	opts := resolveOptions(*quick, set, *budget, *sweep)
	opts.FailFast = *failFast
	if *bpredSpec != "" {
		bp, err := bpred.Parse(*bpredSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "aurora-experiments:", err)
			return 1
		}
		opts.BPred = bp
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
		var err error
		if *storeReadOnly {
			runner.Store, err = resultstore.OpenReadOnly(*storeDir)
		} else {
			runner.Store, err = resultstore.Open(*storeDir)
		}
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
	start := time.Now()
	exit := 0
	if *explore {
		// The exploration is its own mode: it replaces the paper-figure
		// regeneration, drives the runner directly, and prints the frontier.
		if *bpredSweep {
			fmt.Fprintln(os.Stderr, "aurora-experiments: -explore and -bpred-sweep are separate modes; run them separately")
			return 1
		}
		if *sampled {
			fmt.Fprintln(os.Stderr, "aurora-experiments: -sample replaces the figure grid; sampled screening inside the exploration is -explore-sampled")
			return 1
		}
		if collector != nil {
			fmt.Fprintln(os.Stderr, "aurora-experiments: -explore does not capture -metrics-out/-trace-out time series")
			return 1
		}
		spec, err := exploreSpec(*exploreGrid)
		if err != nil {
			fmt.Fprintln(os.Stderr, "aurora-experiments:", err)
			return 1
		}
		if *exploreWorkload != "" {
			spec.Workload = *exploreWorkload
		}
		if *exploreBudget != 0 {
			spec.FullBudget = *exploreBudget
		}
		if *exploreRungs != 0 {
			spec.Rungs = *exploreRungs
		}
		if *exploreHalve != 0 {
			spec.Halve = *exploreHalve
		}
		if *exploreSlack != 0 {
			spec.Slack = *exploreSlack
		}
		if *exploreMaxCost != 0 {
			spec.MaxCostRBE = *exploreMaxCost
		}
		if *exploreSampled {
			spec.Sampled = true
			spec.Sample = sample.Params{WarmUp: *sampleWarmup, Interval: *sampleEvery, Window: *sampleWindow}
		}
		ex := &harness.Explorer{Runner: runner, Spec: spec}
		res, err := ex.Run(ctx)
		if err != nil {
			fmt.Fprintln(os.Stderr, "aurora-experiments:", err)
			exit = 1
		} else {
			harness.PrintExplore(os.Stdout, res)
			if *csvDir != "" {
				if err := os.MkdirAll(*csvDir, 0o755); err != nil {
					fmt.Fprintln(os.Stderr, "aurora-experiments:", err)
					exit = 1
				} else if err := writeFile(filepath.Join(*csvDir, "explore.csv"), func(w io.Writer) error {
					return harness.ExploreCSV(w, res)
				}); err != nil {
					fmt.Fprintln(os.Stderr, "aurora-experiments: csv:", err)
					exit = 1
				} else {
					fmt.Printf("CSV artifact written to %s\n", filepath.Join(*csvDir, "explore.csv"))
				}
			}
		}
		printSummary(runner, "exploration", time.Since(start).Round(time.Millisecond), "simulations")
		return exit
	}
	if *bpredSweep {
		// The predictor sweep is its own figure: baseline machine, every
		// predictor design point, both suites. It replaces the paper-figure
		// regeneration for the invocation.
		if *sampled {
			fmt.Fprintln(os.Stderr, "aurora-experiments: -bpred-sweep measures exact CPI; it cannot be combined with -sample")
			return 1
		}
		if collector != nil {
			fmt.Fprintln(os.Stderr, "aurora-experiments: -bpred-sweep does not capture -metrics-out/-trace-out time series")
			return 1
		}
		res, err := harness.PredictorSweep(ctx, runner, core.Baseline(), opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "aurora-experiments:", err)
			exit = 1
		} else {
			harness.PrintBPredSweep(os.Stdout, res)
			if *csvDir != "" {
				if err := os.MkdirAll(*csvDir, 0o755); err != nil {
					fmt.Fprintln(os.Stderr, "aurora-experiments:", err)
					exit = 1
				} else if err := writeFile(filepath.Join(*csvDir, "bpred_sweep.csv"), func(w io.Writer) error {
					return harness.BPredSweepCSV(w, res)
				}); err != nil {
					fmt.Fprintln(os.Stderr, "aurora-experiments: csv:", err)
					exit = 1
				} else {
					fmt.Printf("CSV artifact written to %s\n", filepath.Join(*csvDir, "bpred_sweep.csv"))
				}
			}
		}
		st := runner.Stats()
		fmt.Printf("\npredictor sweep in %s (%d workers; %d simulations, %d memo hits)\n",
			time.Since(start).Round(time.Millisecond), runner.Workers(), st.Misses, st.Hits)
		return exit
	}
	if *sampled {
		// Sampled mode replaces the exact figure regeneration with the
		// estimated CPI grid; the -metrics-out/-trace-out collectors see no
		// windows worth of per-cycle data, so combining them is rejected.
		if collector != nil {
			fmt.Fprintln(os.Stderr, "aurora-experiments: -sample cannot capture -metrics-out/-trace-out time series (run without -sample for those)")
			return 1
		}
		if *extensions || *csvDir != "" {
			fmt.Fprintln(os.Stderr, "aurora-experiments: -sample estimates the CPI grid only; -extensions and -csv need exact runs")
			return 1
		}
		p := sample.Params{WarmUp: *sampleWarmup, Interval: *sampleEvery, Window: *sampleWindow}
		res, err := harness.SampledSweep(ctx, runner, opts, p)
		if err != nil {
			fmt.Fprintln(os.Stderr, "aurora-experiments:", err)
			exit = 1
		} else {
			harness.PrintSampledSweep(os.Stdout, res)
		}
		printSummary(runner, "sampled sweep", time.Since(start).Round(time.Millisecond), "estimates")
		return exit
	}
	if err := harness.Render(ctx, os.Stdout, runner, opts); err != nil {
		fmt.Fprintln(os.Stderr, "aurora-experiments:", err)
		exit = 1
	}
	if exit == 0 && *extensions {
		if err := harness.RenderExtensions(ctx, os.Stdout, runner, opts); err != nil {
			fmt.Fprintln(os.Stderr, "aurora-experiments:", err)
			exit = 1
		}
	}
	if exit == 0 && *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "aurora-experiments:", err)
			exit = 1
		} else {
			open := func(name string) (io.WriteCloser, error) {
				return os.Create(filepath.Join(*csvDir, name+".csv"))
			}
			if err := harness.ExportCSV(ctx, open, runner, opts); err != nil {
				fmt.Fprintln(os.Stderr, "aurora-experiments: csv:", err)
				exit = 1
			} else {
				fmt.Printf("CSV artifacts written to %s\n", *csvDir)
			}
		}
	}
	// Single cleanup path: the collector flushes whatever the finished jobs
	// produced even when the sweep failed fast or was interrupted, so a
	// partial run still leaves usable metrics and traces behind.
	if collector != nil {
		if *metricsOut != "" {
			if err := writeFile(*metricsOut, collector.WriteMetricsCSV); err != nil {
				fmt.Fprintln(os.Stderr, "aurora-experiments: metrics:", err)
				exit = 1
			} else {
				fmt.Printf("metrics time series written to %s\n", *metricsOut)
			}
		}
		if *traceOut != "" {
			if err := writeFile(*traceOut, collector.WriteChromeTrace); err != nil {
				fmt.Fprintln(os.Stderr, "aurora-experiments: trace:", err)
				exit = 1
			} else {
				fmt.Printf("Chrome trace written to %s\n", *traceOut)
			}
		}
	}
	printSummary(runner, "regenerated all tables and figures", time.Since(start).Round(time.Second), "simulations")
	return exit
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

// exploreSpec resolves the -explore-grid preset.
func exploreSpec(grid string) (harness.ExploreSpec, error) {
	switch grid {
	case "default":
		return harness.ExploreSpec{}, nil
	case "tiny":
		return harness.TinyExploreSpec(), nil
	}
	return harness.ExploreSpec{}, fmt.Errorf("unknown -explore-grid %q (want default or tiny)", grid)
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
