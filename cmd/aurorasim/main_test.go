package main

import (
	"flag"
	"io"
	"os"
	"testing"
)

// TestStrayArgumentRejected: flag parsing stops at the first positional
// argument, so a stray one would silently drop every flag after it.
func TestStrayArgumentRejected(t *testing.T) {
	oldArgs, oldFlags := os.Args, flag.CommandLine
	t.Cleanup(func() { os.Args, flag.CommandLine = oldArgs, oldFlags })
	os.Args = []string{"aurorasim", "-instr", "20000", "stray", "-model", "large"}
	flag.CommandLine = flag.NewFlagSet(os.Args[0], flag.ContinueOnError)
	flag.CommandLine.SetOutput(io.Discard)
	if code := run(); code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
}

// TestSampleFlagsNeedSampledMode: a -sample-* flag without -sample used to
// run the exact simulation and exit 0 with the flag ignored; it is now a
// usage error, so nobody reads an exact CPI as the estimate they asked for.
func TestSampleFlagsNeedSampledMode(t *testing.T) {
	oldArgs, oldFlags := os.Args, flag.CommandLine
	t.Cleanup(func() { os.Args, flag.CommandLine = oldArgs, oldFlags })
	os.Args = []string{"aurorasim", "-instr", "20000", "-sample-window", "5000"}
	flag.CommandLine = flag.NewFlagSet(os.Args[0], flag.ContinueOnError)
	flag.CommandLine.SetOutput(io.Discard)
	if code := run(); code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
}
