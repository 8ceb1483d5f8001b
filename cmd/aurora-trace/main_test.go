package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"aurora/internal/workloads"
)

// runArgs runs the command with args on a fresh flag set, as main would.
func runArgs(t *testing.T, args ...string) int {
	t.Helper()
	oldArgs, oldFlags := os.Args, flag.CommandLine
	t.Cleanup(func() { os.Args, flag.CommandLine = oldArgs, oldFlags })
	os.Args = append([]string{"aurora-trace"}, args...)
	flag.CommandLine = flag.NewFlagSet(os.Args[0], flag.ContinueOnError)
	flag.CommandLine.SetOutput(io.Discard)
	return run()
}

// TestStrayArgumentRejected: flag parsing stops at the first positional
// argument, so a stray one would silently drop every flag after it.
func TestStrayArgumentRejected(t *testing.T) {
	if code := runArgs(t, "-stats", filepath.Join(t.TempDir(), "missing.trc"), "stray"); code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
}

// TestUnknownNameRejected: an unknown workload to record or model to
// replay on used to exit 1 like a failed run; it is a usage error, exit
// 2, and no trace file is created.
func TestUnknownNameRejected(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "out.trc")
	if code := runArgs(t, "-record", "nosuch", "-o", out); code != 2 {
		t.Errorf("-record nosuch: exit code %d, want 2", code)
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Errorf("-record nosuch created %s (stat: %v)", out, err)
	}
	if code := runArgs(t, "-replay", filepath.Join(dir, "missing.trc"), "-model", "nosuch"); code != 2 {
		t.Errorf("-model nosuch: exit code %d, want 2", code)
	}
}

// TestRecordStopsAtFailedWrite: the first failed write ends the recording,
// and the error counts the records that reached the writer, not the
// instructions the VM would have gone on to execute.
func TestRecordStopsAtFailedWrite(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	w, err := workloads.Get("gcc")
	if err != nil {
		t.Fatal(err)
	}
	err = doRecord(context.Background(), w, "/dev/full", 0)
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
