package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestStrayArgumentRejected: flag parsing stops at the first positional
// argument, so a stray one would silently drop every flag after it.
func TestStrayArgumentRejected(t *testing.T) {
	oldArgs, oldFlags := os.Args, flag.CommandLine
	t.Cleanup(func() { os.Args, flag.CommandLine = oldArgs, oldFlags })
	os.Args = []string{"aurora-trace", "-stats", filepath.Join(t.TempDir(), "missing.trc"), "stray"}
	flag.CommandLine = flag.NewFlagSet(os.Args[0], flag.ContinueOnError)
	flag.CommandLine.SetOutput(io.Discard)
	if code := run(); code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
}

// TestRecordStopsAtFailedWrite: the first failed write ends the recording,
// and the error counts the records that reached the writer, not the
// instructions the VM would have gone on to execute.
func TestRecordStopsAtFailedWrite(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	err := doRecord(context.Background(), "gcc", "/dev/full", 0)
	if err == nil {
		t.Fatal("recording to /dev/full succeeded")
	}
	var n uint64
	if _, serr := fmt.Sscanf(err.Error(), "after %d instructions", &n); serr != nil {
		t.Fatalf("error %q does not report a count: %v", err, serr)
	}
	if n >= 10_000 {
		t.Errorf("error reports %d instructions recorded; the writer failed within its first 64 KiB", n)
	}
}
