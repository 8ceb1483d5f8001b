package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// The steadiness record: the run-to-run spread of every end-to-end metric
// on every workload, from repeated runs with distinct seeds on one host.
// It is where each metric's bound came from, and every run's detail
// record carries its workload's entry.

//go:embed steadiness.json
var steadinessJSON []byte

// spread summarises one metric's values over the repeated runs.
type spread struct {
	Unit   string    `json:"unit"`
	Q1     float64   `json:"q1"`
	Median float64   `json:"median"`
	Q3     float64   `json:"q3"`
	IQR    float64   `json:"iqr_share"` // (q3 - q1) / median
	Bound  float64   `json:"bound"`
	Values []float64 `json:"values"`
}

type steadinessRecord struct {
	Host       hostBlock                    `json:"host"`
	RunSeconds float64                      `json:"run_seconds"`
	Runs       int                          `json:"runs"`
	Workloads  map[string]map[string]spread `json:"workloads"`
}

// recordedSteadiness returns the checked-in record's per-workload spreads.
func recordedSteadiness() map[string]map[string]spread {
	var rec steadinessRecord
	if json.Unmarshal(steadinessJSON, &rec) != nil {
		return nil
	}
	return rec.Workloads
}

// measureSteadiness runs every workload n times, seeds 1..n, each as its
// own process of this binary (so set-up and peak memory are per run, as
// a single invocation sees them), and writes perfbench/steadiness.json.
func measureSteadiness(ctx context.Context, root, only string, n int, seconds float64, stdout io.Writer, logf func(string, ...any)) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	rec := steadinessRecord{Host: host(root, 0), RunSeconds: seconds, Runs: n, Workloads: map[string]map[string]spread{}}
	for _, s := range specs {
		if only != "" && s.Name != only {
			continue
		}
		values := map[string][]float64{}
		for seed := 1; seed <= n; seed++ {
			args := append(passThrough(), "-workload", s.Name, "-seed", strconv.Itoa(seed),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0")
			cmd := exec.CommandContext(ctx, self, args...)
			var out bytes.Buffer
			cmd.Stdout = &out
			cmd.Stderr = os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s seed %d: %w\n%s", s.Name, seed, err, out.String())
			}
			r, err := lastJSON(out.Bytes())
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", s.Name, seed, err)
			}
			if !r.Correct {
				return fmt.Errorf("%s seed %d: incorrect run\n%s", s.Name, seed, out.String())
			}
			line := fmt.Sprintf("%s seed %d:", s.Name, seed)
			for _, d := range endToEnd {
				values[d.Name] = append(values[d.Name], r.Metrics[d.Name].Value)
				line += fmt.Sprintf(" %s=%.4g", d.Name, r.Metrics[d.Name].Value)
			}
			logf("%s", line)
		}
		rec.Workloads[s.Name] = map[string]spread{}
		for _, d := range endToEnd {
			q1, q2, q3 := quartiles(values[d.Name])
			sp := spread{Unit: d.Unit, Q1: q1, Median: q2, Q3: q3, IQR: (q3 - q1) / q2, Bound: d.Bound, Values: values[d.Name]}
			rec.Workloads[s.Name][d.Name] = sp
			fmt.Fprintf(stdout, "%-10s %-12s median %12.6g  iqr %6.2f%%  bound %4.0f%%\n", s.Name, d.Name, q2, 100*sp.IQR, 100*d.Bound)
		}
	}
	if only != "" {
		return nil // a partial record is not written
	}
	b, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(root, "perfbench", "steadiness.json"), append(b, '\n'), 0o644)
}

// passThrough repeats the flags run.sh gave this process (checkout,
// output directory and daemon binary) for a child run.
func passThrough() []string {
	var out []string
	for _, name := range []string{"root", "out", "serve-bin"} {
		for i, a := range os.Args {
			if (a == "-"+name || a == "--"+name) && i+1 < len(os.Args) {
				out = append(out, "-"+name, os.Args[i+1])
			}
		}
	}
	return out
}
