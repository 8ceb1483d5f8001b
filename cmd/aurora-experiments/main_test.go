package main

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"aurora/internal/harness"
)

// set builds the flag.Visit result for a list of explicitly-passed flags.
func set(names ...string) map[string]bool {
	m := map[string]bool{}
	for _, n := range names {
		m[n] = true
	}
	return m
}

// runArgs runs the command with args on a fresh flag set, as main would.
func runArgs(t *testing.T, args ...string) int {
	t.Helper()
	oldArgs, oldFlags := os.Args, flag.CommandLine
	t.Cleanup(func() { os.Args, flag.CommandLine = oldArgs, oldFlags })
	os.Args = append([]string{"aurora-experiments"}, args...)
	flag.CommandLine = flag.NewFlagSet(os.Args[0], flag.ContinueOnError)
	flag.CommandLine.SetOutput(io.Discard)
	return run()
}

func TestResolveOptionsPresets(t *testing.T) {
	if got := resolveOptions(false, set(), 0, 600_000); got != harness.Full() {
		t.Errorf("default = %+v, want Full()", got)
	}
	if got := resolveOptions(true, set("quick"), 0, 600_000); got != harness.Quick() {
		t.Errorf("-quick = %+v, want Quick()", got)
	}
}

func TestResolveOptionsExplicitSweepBeatsQuick(t *testing.T) {
	// Regression: an explicit -sweep used to be silently ignored under
	// -quick because the old code gated it on !quick.
	got := resolveOptions(true, set("quick", "sweep"), 0, 300_000)
	if got.SweepBudget != 300_000 {
		t.Errorf("SweepBudget = %d, want explicit 300000", got.SweepBudget)
	}
	if got.Budget != harness.Quick().Budget {
		t.Errorf("Budget = %d, want quick preset %d", got.Budget, harness.Quick().Budget)
	}
}

func TestResolveOptionsExplicitZeros(t *testing.T) {
	// Regression: -budget 0 (natural completion) and -sweep 0 (use the
	// main budget) were indistinguishable from "not passed".
	got := resolveOptions(true, set("quick", "budget", "sweep"), 0, 0)
	if got.Budget != 0 {
		t.Errorf("Budget = %d, want explicit 0", got.Budget)
	}
	if got.SweepBudget != 0 {
		t.Errorf("SweepBudget = %d, want explicit 0", got.SweepBudget)
	}
}

func TestResolveOptionsUnsetFlagsKeepPreset(t *testing.T) {
	// A flag left at its default value must not clobber the preset: the
	// -sweep default (600000) differs from Quick's 150000.
	got := resolveOptions(true, set("quick"), 0, 600_000)
	if got.SweepBudget != harness.Quick().SweepBudget {
		t.Errorf("SweepBudget = %d, want quick preset %d", got.SweepBudget, harness.Quick().SweepBudget)
	}
}

// TestStrayArgumentRejected: flag parsing stops at the first positional
// argument, so a stray one would silently drop every flag after it (here
// -j, and a mistyped "quick" would start the full run).
func TestStrayArgumentRejected(t *testing.T) {
	if code := runArgs(t, "-timeout", "1ns", "quick", "-j", "1"); code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
}

// TestExploreFlagsNeedExplore: an -explore-* flag without -explore used to
// be silently ignored — the run rendered the paper figures and exited 0.
// It is now a usage error before anything runs.
func TestExploreFlagsNeedExplore(t *testing.T) {
	for _, args := range [][]string{
		{"-explore-sampled", "-quick", "-timeout", "1ns"},
		{"-explore-grid", "tiny", "-quick", "-timeout", "1ns"},
		{"-quick", "-explore-budget", "2000", "-explore-rungs", "2", "-timeout", "1ns"},
	} {
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			if code := runArgs(t, args...); code != 2 {
				t.Fatalf("exit code %d, want 2", code)
			}
		})
	}
}

// usageErrorBeforeStore runs each args with a result store and asserts the
// usage exit code, and that the store was never opened.
func usageErrorBeforeStore(t *testing.T, cases [][]string) {
	for _, args := range cases {
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			store := filepath.Join(t.TempDir(), "store")
			if code := runArgs(t, append([]string{"-store", store}, args...)...); code != 2 {
				t.Fatalf("exit code %d, want 2", code)
			}
			if _, err := os.Stat(store); !os.IsNotExist(err) {
				t.Errorf("result store opened before the flags were checked (stat: %v)", err)
			}
		})
	}
}

// TestExploreSpecRejectedIsUsageError: an exploration that
// harness.ExploreSpecFor rejects (an unknown grid, or sampled screens too
// short for two measurement windows) used to exit 1 after opening the
// result store. It is now a usage error, exit 2, before the store is
// opened.
func TestExploreSpecRejectedIsUsageError(t *testing.T) {
	usageErrorBeforeStore(t, [][]string{
		{"-explore", "-explore-grid", "nosuch"},
		{"-explore", "-explore-grid", "tiny", "-explore-sampled"},
	})
}

// TestModeConflictIsUsageError: modes combined that cannot run together,
// a sampled run asked for exact-only output, and an unparsable -bpred used
// to exit 1, most of them after opening the result store and the debug
// server. They are now usage errors, exit 2, before either is opened.
func TestModeConflictIsUsageError(t *testing.T) {
	usageErrorBeforeStore(t, [][]string{
		{"-explore", "-sample"},
		{"-sample", "-bpred-sweep"},
		{"-sample", "-extensions"},
		{"-sample", "-csv", "out"},
		{"-sample", "-metrics-out", "m.csv"},
		{"-bpred-sweep", "-trace-out", "t.json"},
		{"-bpred", "nosuch"},
	})
}

// TestSampleFlagsNeedSampledMode: -sample-* flags outside a sampled mode
// (-sample, or -explore with -explore-sampled) used to be silently ignored
// — the exploration ran exact screens and exited 0. They are now a usage
// error before anything runs.
func TestSampleFlagsNeedSampledMode(t *testing.T) {
	for _, args := range [][]string{
		{"-explore", "-explore-grid", "tiny", "-explore-budget", "2000", "-sample-window", "5000", "-j", "1"},
		{"-explore-sampled", "-quick", "-sample-interval", "8000", "-timeout", "1ns"},
		{"-quick", "-sample-warmup", "1000", "-timeout", "1ns"},
	} {
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			if code := runArgs(t, args...); code != 2 {
				t.Fatalf("exit code %d, want 2", code)
			}
		})
	}
}
