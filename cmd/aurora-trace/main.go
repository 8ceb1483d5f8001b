// Command aurora-trace records a workload's dynamic instruction trace to the
// binary trace format, prints statistics of a recorded trace, or replays a
// recorded trace through the timing simulator.
//
// Usage:
//
//	aurora-trace -record espresso -o espresso.trc -instr 1000000
//	aurora-trace -stats espresso.trc
//	aurora-trace -replay espresso.trc -model large
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"aurora"
	"aurora/internal/isa"
	"aurora/internal/trace"
	"aurora/internal/workloads"
)

// main delegates to run so every exit path unwinds through the deferred
// file closes — a failed record still flushes what it captured.
func main() { os.Exit(run()) }

func run() int {
	var (
		record = flag.String("record", "", "workload to record")
		out    = flag.String("o", "trace.trc", "output file for -record")
		instr  = flag.Uint64("instr", 0, "instruction budget (0 = workload default)")
		stats  = flag.String("stats", "", "trace file to summarise")
		replay = flag.String("replay", "", "trace file to replay on the timing model")
		model  = flag.String("model", "baseline", "machine model for -replay")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "unexpected arguments: %v\n", flag.Args())
		flag.Usage()
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var err error
	switch {
	case *record != "":
		w, werr := workloads.Get(*record)
		if werr != nil {
			return usageError(werr)
		}
		err = doRecord(ctx, w, *out, *instr)
	case *stats != "":
		err = doStats(*stats)
	case *replay != "":
		cfg, merr := aurora.ModelByName(*model)
		if merr != nil {
			return usageError(merr)
		}
		err = doReplay(ctx, *replay, cfg)
	default:
		fmt.Fprintln(os.Stderr, "usage: aurora-trace -record NAME | -stats FILE | -replay FILE")
		return 2
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "aurora-trace:", err)
		return 1
	}
	return 0
}

func doRecord(ctx context.Context, w *workloads.Workload, out string, budget uint64) error {
	if budget == 0 {
		budget = w.DefaultBudget * 4
	}
	m, err := w.NewMachine()
	if err != nil {
		return err
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	defer f.Close()
	// Read the VM in batches, checking ctx between them so a SIGINT stops
	// the recording promptly; the first failed write stops execution too.
	// The records written so far are flushed below either way.
	tw := trace.NewWriter(f)
	s := m.Stream(budget)
	var buf [256]trace.Record
	for err == nil {
		n := s.NextBatch(buf[:])
		if n == 0 {
			err = s.Err()
			break
		}
		for _, r := range buf[:n] {
			if err = tw.Write(r); err != nil {
				break
			}
		}
		if err == nil {
			err = ctx.Err()
		}
	}
	if ferr := tw.Flush(); err == nil {
		err = ferr
	}
	if err != nil {
		return fmt.Errorf("after %d instructions: %w", tw.Count(), err)
	}
	fmt.Printf("recorded %d instructions of %s to %s\n", tw.Count(), w.Name, out)
	return nil
}

func doStats(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	tr, err := trace.NewReader(f)
	if err != nil {
		return err
	}
	var mix trace.Mix
	var buf [256]trace.Record
	for n := tr.NextBatch(buf[:]); n > 0; n = tr.NextBatch(buf[:]) {
		for _, r := range buf[:n] {
			mix.Add(r)
		}
	}
	if err := tr.Err(); err != nil {
		return err
	}
	fmt.Printf("%s: %d instructions\n", path, mix.Total)
	fmt.Printf("  loads %5.1f%%  stores %5.1f%%  branches %5.1f%% (%.0f%% taken)  fp %5.1f%%\n",
		pct(mix.Loads, mix.Total), pct(mix.Stores, mix.Total),
		pct(mix.Branch, mix.Total), pct(mix.Taken, mix.Branch), 100*mix.FPFraction())
	for c := isa.Class(0); int(c) < len(mix.ByClass); c++ {
		if mix.ByClass[c] > 0 {
			fmt.Printf("  %-8s %9d (%5.1f%%)\n", c, mix.ByClass[c], pct(mix.ByClass[c], mix.Total))
		}
	}
	return nil
}

func doReplay(ctx context.Context, path string, cfg aurora.Config) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	tr, err := trace.NewReader(f)
	if err != nil {
		return err
	}
	rep, err := aurora.RunTrace(ctx, cfg, tr)
	if err != nil {
		return err
	}
	fmt.Print(rep)
	return nil
}

func pct(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}

// usageError reports a flag that names nothing to run, and returns the
// usage exit code.
func usageError(err error) int {
	fmt.Fprintln(os.Stderr, "aurora-trace:", err)
	return 2
}
