// Command perfbench is the repository's benchmark: four workloads that
// time the simulator end to end through its public modules — exact
// sweeps of the integer and FP kernels, a sampled sweep, and the
// aurora-serve daemon under a closed-loop request mix — and check every
// simulated result against digests pinned in reference.json.
//
// It is built and run by run.sh from a checkout's root:
//
//	bash perfbench/run.sh --workload exact-int --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the last stdout line is a JSON object carrying the
// end-to-end metrics; with --trace 1 it carries the per-layer metrics of a
// separate traced run (spans and a CPU profile). README.md explains the
// workloads, the metrics and how to read a traced run.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload   = fs.String("workload", "", "workload to run: exact-int, exact-fp, sampled, serve, or all")
		seed       = fs.Int64("seed", 1, "seed: permutes sweep cell order and drives the serve request mix")
		seconds    = fs.Float64("seconds", runSeconds, "seconds to measure")
		trace      = fs.Int("trace", 0, "1: traced run reporting the per-layer metrics instead of the end-to-end ones")
		root       = fs.String("root", ".", "checkout root")
		out        = fs.String("out", ".bench_build/perfbench", "directory for traces, profiles and scratch stores")
		serveBin   = fs.String("serve-bin", "", "aurora-serve binary built from the checkout")
		manifest   = fs.Bool("manifest", false, "print BENCHMARK.json and exit")
		regen      = fs.Bool("regen", false, "recompute every pinned result and rewrite perfbench/reference.json")
		verify     = fs.Bool("verify-reference", false, "recompute every pinned result, including the exact CPIs at the sampled budget, and check reference.json reproduces")
		steadiness = fs.Int("steadiness", 0, "run every workload (or just -workload) this many times with distinct seeds and print the spreads; with every workload, record them in perfbench/steadiness.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	logf := func(format string, a ...any) { fmt.Fprintf(stderr, "perfbench: "+format+"\n", a...) }
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	switch {
	case *manifest:
		b, err := manifestJSON()
		if err != nil {
			logf("%v", err)
			return 1
		}
		stdout.Write(b) //nolint:errcheck // stdout
		return 0
	case *regen, *verify:
		ref, err := computeReference(ctx, logf)
		if err != nil {
			logf("reference: %v", err)
			return 1
		}
		path := filepath.Join(*root, "perfbench", "reference.json")
		if *regen {
			if err := writeReference(path, ref); err != nil {
				logf("%v", err)
				return 1
			}
			logf("wrote %s", path)
			return 0
		}
		want, err := pinned()
		if err != nil {
			logf("%v", err)
			return 1
		}
		if diffs := diffReference(want, ref); len(diffs) > 0 {
			for _, d := range diffs {
				logf("MISMATCH %s", d)
			}
			return 1
		}
		fmt.Fprintf(stdout, "reference.json reproduces: %d exact, %d sampled, %d exact at the sampled budget, %d cold-pool cells\n",
			len(ref.Exact), len(ref.Sampled), len(ref.ExactAtSampledBudget), len(ref.ColdCycles)*coldBudgets)
		return 0
	case *steadiness > 0:
		if err := measureSteadiness(ctx, *root, *workload, *steadiness, *seconds, stdout, logf); err != nil {
			logf("%v", err)
			return 1
		}
		return 0
	}

	ref, err := pinned()
	if err != nil {
		logf("%v", err)
		return 1
	}
	if *serveBin == "" {
		logf("-serve-bin is required (run.sh builds it)")
		return 2
	}
	o := runOpts{
		seed: *seed, seconds: *seconds, traced: *trace == 1,
		root: *root, out: *out, serveBin: *serveBin, scale: fullScale, ref: ref,
	}
	names := []string{*workload}
	if *workload == "all" {
		names = nil
		for _, s := range specs {
			names = append(names, s.Name)
		}
	}
	var results []*result
	for _, name := range names {
		s, err := specByName(name)
		if err != nil {
			logf("%v", err)
			return 2
		}
		res, err := runOne(ctx, s, o, stdout)
		if err != nil {
			logf("%s: %v", name, err)
			return 1
		}
		results = append(results, res)
	}
	final := results[0]
	if len(results) > 1 {
		final = combine(names, results)
	}
	b, err := json.Marshal(final)
	if err != nil {
		logf("%v", err)
		return 1
	}
	// A run that measured reports its correctness in the result line and
	// exits 0; only a run that could not produce a result exits non-zero.
	fmt.Fprintln(stdout, string(b))
	return 0
}

// runOne runs one workload, prints its report and detail record, and
// returns the result line.
func runOne(ctx context.Context, s spec, o runOpts, stdout io.Writer) (*result, error) {
	t := time.Now()
	oc, err := runSpec(ctx, s, o)
	if err != nil {
		return nil, err
	}
	res, err := newResult(o.traced, oc.values, oc.attempted, len(oc.errs), len(oc.errs) == 0)
	if err != nil {
		return nil, err
	}
	for i, e := range oc.errs {
		if i == 10 {
			fmt.Fprintf(stdout, "FAIL ... and %d more\n", len(oc.errs)-10)
			break
		}
		fmt.Fprintf(stdout, "FAIL %s: %v\n", s.Name, e)
	}
	fmt.Fprintf(stdout, "== %s (seed %d, trace %v, %.1fs) attempted %d failed %d correct %v\n",
		s.Name, o.seed, o.traced, time.Since(t).Seconds(), res.Attempted, res.Failed, res.Correct)
	for _, d := range defs(o.traced) {
		fmt.Fprintf(stdout, "  %-30s %16.6g %s\n", d.Name, res.Metrics[d.Name].Value, d.Unit)
	}
	detail := map[string]any{
		"workload": s.Name,
		"host":     host(o.root, o.seed),
		"detail":   oc.detail,
	}
	if st, ok := recordedSteadiness()[s.Name]; ok {
		detail["steadiness"] = st
	}
	b, err := json.Marshal(detail)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(stdout, string(b))
	return res, nil
}

// combine folds the results of --workload all into one line whose metric
// names carry the workload as a prefix.
func combine(names []string, results []*result) *result {
	out := &result{Correct: true, Metrics: map[string]metricValue{}}
	for i, r := range results {
		out.Correct = out.Correct && r.Correct
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		for k, v := range r.Metrics {
			out.Metrics[names[i]+"/"+k] = v
		}
	}
	return out
}

// lastJSON parses the result line of a benchmark run's output.
func lastJSON(out []byte) (*result, error) {
	out = bytes.TrimSpace(out)
	last := out[bytes.LastIndexByte(out, '\n')+1:]
	var r result
	if err := json.Unmarshal(last, &r); err != nil {
		return nil, fmt.Errorf("no result line: %w", err)
	}
	return &r, nil
}
