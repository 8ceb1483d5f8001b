package main

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runArgs runs the command with args on a fresh flag set, as main would.
func runArgs(t *testing.T, args ...string) int {
	t.Helper()
	oldArgs, oldFlags := os.Args, flag.CommandLine
	t.Cleanup(func() { os.Args, flag.CommandLine = oldArgs, oldFlags })
	os.Args = append([]string{"aurorasim"}, args...)
	flag.CommandLine = flag.NewFlagSet(os.Args[0], flag.ContinueOnError)
	flag.CommandLine.SetOutput(io.Discard)
	return run()
}

// wantUsageError runs the command with args and a result store, and
// requires exit 2 with the store never opened.
func wantUsageError(t *testing.T, args ...string) {
	t.Helper()
	store := filepath.Join(t.TempDir(), "store")
	if code := runArgs(t, append([]string{"-store", store, "-instr", "20000"}, args...)...); code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
	if _, err := os.Stat(store); !os.IsNotExist(err) {
		t.Errorf("result store opened before the flags were checked (stat: %v)", err)
	}
}

// TestStrayArgumentRejected: flag parsing stops at the first positional
// argument, so a stray one would silently drop every flag after it.
func TestStrayArgumentRejected(t *testing.T) {
	if code := runArgs(t, "-instr", "20000", "stray", "-model", "large"); code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
}

// TestUnknownNameRejected: a model, workload, FPU policy or predictor the
// simulator does not know, and a sampled run asked for a time series, used
// to exit 1 like a failed simulation (the last after opening the result
// store). They are usage errors, exit 2, before the store is opened.
func TestUnknownNameRejected(t *testing.T) {
	for _, args := range [][]string{
		{"-model", "nosuch"},
		{"-workload", "nosuch"},
		{"-fpu-policy", "nosuch"},
		{"-bpred", "nosuch"},
		{"-sample", "-metrics-out", "m.csv"},
	} {
		t.Run(strings.Join(args, " "), func(t *testing.T) { wantUsageError(t, args...) })
	}
}

// TestRejectedOverrideIsUsageError: an override the model cannot build
// used to exit 1 like a failed simulation, after opening the result
// store, and a negative issue width, latency or prefetch count was
// silently replaced by the model's value. Each is a usage error, exit 2,
// before the store is opened.
func TestRejectedOverrideIsUsageError(t *testing.T) {
	for _, args := range [][]string{
		{"-issue", "3"}, {"-mshrs", "-1"},
		{"-issue", "-1"}, {"-latency", "-5"}, {"-prefetch", "-5"}, {"-victim", "-5"},
	} {
		t.Run(strings.Join(args, " "), func(t *testing.T) { wantUsageError(t, args...) })
	}
}

// TestSampleFlagsNeedSampledMode: a -sample-* flag without -sample used to
// run the exact simulation and exit 0 with the flag ignored; it is now a
// usage error, so nobody reads an exact CPI as the estimate they asked for.
func TestSampleFlagsNeedSampledMode(t *testing.T) {
	if code := runArgs(t, "-instr", "20000", "-sample-window", "5000"); code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
}
