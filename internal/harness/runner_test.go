package harness

import (
	"bytes"
	"context"
	"io"
	"reflect"
	"strings"
	"testing"

	"aurora/internal/core"
	"aurora/internal/workloads"
)

// faultyWorkload is a kernel that executes an unaligned lw, the canonical
// VM fault. Before the harness recorded stream errors, this ran "successfully"
// with a truncated trace.
func faultyWorkload() *workloads.Workload {
	return &workloads.Workload{
		Name:          "faulty",
		Suite:         workloads.SuiteInt,
		DefaultBudget: 1_000,
		Description:   "test kernel: faults on an unaligned word load",
		Source: `
		.text
main:
		li $t0, 3
		lw $t1, 0($t0)		# unaligned: must fault, not end the trace
		li $v0, 10
		syscall
`,
	}
}

func TestFaultingWorkloadSurfacesError(t *testing.T) {
	r := NewRunner(1)
	_, err := r.Run(context.Background(), core.Baseline(), faultyWorkload(), Options{Budget: 100})
	if err == nil {
		t.Fatal("faulting kernel ran without error; VM fault was swallowed")
	}
	if !strings.Contains(err.Error(), "unaligned lw") {
		t.Errorf("error %q does not mention the unaligned lw fault", err)
	}
	// The scheduled-trace path wraps the stream; it must surface the fault too.
	if _, err := r.Run(context.Background(), core.Baseline(), faultyWorkload(), Options{Budget: 100, Scheduled: true}); err == nil {
		t.Fatal("faulting kernel ran without error on the scheduled-trace path")
	}
}

func TestMemoHitSharesReport(t *testing.T) {
	r := NewRunner(2)
	w, err := workloads.Get("espresso")
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Budget: 20_000}
	rep1, err := r.Run(context.Background(), core.Baseline(), w, opts)
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := r.Run(context.Background(), core.Baseline(), w, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep1 != rep2 {
		t.Error("identical jobs returned distinct reports; memo table missed")
	}
	if st := r.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss", st)
	}

	// The fingerprint is canonical: a renamed but otherwise identical config
	// must hit the same entry.
	renamed := core.Baseline()
	renamed.Name = "baseline-again"
	rep3, err := r.Run(context.Background(), renamed, w, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep3 != rep1 {
		t.Error("renamed identical config missed the memo table")
	}

	// Budget 0 resolves to the workload default before keying, so explicit
	// and defaulted budgets collapse to one entry.
	repDefault, err := r.Run(context.Background(), core.Baseline(), w, Options{})
	if err != nil {
		t.Fatal(err)
	}
	repExplicit, err := r.Run(context.Background(), core.Baseline(), w, Options{Budget: w.DefaultBudget * 4})
	if err != nil {
		t.Fatal(err)
	}
	if repDefault != repExplicit {
		t.Error("defaulted and explicit budgets produced distinct memo entries")
	}
	if st := r.Stats(); st.Misses != 2 {
		t.Errorf("misses = %d, want 2 distinct simulations in total", st.Misses)
	}
}

func TestGridEmptySuite(t *testing.T) {
	if _, err := grid(context.Background(), NewRunner(1), Quick(), nil, nil, core.Baseline()); err == nil {
		t.Fatal("grid over an empty suite returned no error (was a NaN average)")
	}
}

func TestFingerprintNormalizes(t *testing.T) {
	a := core.Baseline()
	b := core.Baseline()
	b.Name = "other"
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("fingerprint depends on the config name")
	}
	c := core.Baseline()
	c.MSHRs = a.MSHRs + 1
	if a.Fingerprint() == c.Fingerprint() {
		t.Error("fingerprint ignored a material field change")
	}
}

// TestRenderParallelMatchesSerial is the determinism guarantee: every
// registry artifact rendered on 8 workers — text and CSV files — must be
// byte-identical to 1 worker, and the CSV files written must be exactly the
// ones the registry declares, in registry order. The serial render, text
// then every CSV file, is pinned by testdata/render.golden.
func TestRenderParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("full render comparison in -short mode")
	}
	opts := Options{Budget: 40_000, SweepBudget: 20_000}
	var want []string
	for _, a := range Artifacts() {
		want = append(want, a.CSV...)
	}
	render := func(workers int) (string, []string, map[string]string) {
		var text bytes.Buffer
		var names []string
		files := map[string]string{}
		emit := func(name string, gen func(io.Writer) error) error {
			var b bytes.Buffer
			if err := gen(&b); err != nil {
				return err
			}
			names = append(names, name)
			files[name] = b.String()
			return nil
		}
		if err := Render(context.Background(), &text, NewRunner(workers), opts, Artifacts(), emit); err != nil {
			t.Fatal(err)
		}
		return text.String(), names, files
	}
	serial, names, serialCSV := render(1)
	parallel, _, parallelCSV := render(8)
	if serial != parallel {
		t.Fatalf("parallel render differs from serial render\nserial %d bytes, parallel %d bytes",
			len(serial), len(parallel))
	}
	if !reflect.DeepEqual(serialCSV, parallelCSV) {
		t.Error("parallel CSV files differ from serial CSV files")
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("CSV files written = %v, want the registry's %v", names, want)
	}
	golden := serial
	for _, name := range names {
		golden += csvSection(name, serialCSV[name])
	}
	checkGolden(t, "render.golden", golden)
}
