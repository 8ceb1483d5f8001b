package harness

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"aurora/internal/core"
	"aurora/internal/faultinject"
	"aurora/internal/resultstore"
	"aurora/internal/simfault"
	"aurora/internal/workloads"
)

// openStore opens a writable result store for tests.
func openStore(t *testing.T, dir string) *resultstore.Store {
	t.Helper()
	s, err := resultstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// entryFiles lists the store's entry files (quarantined ones excluded).
func entryFiles(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "v1", "*", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestRunnerResolvesMemoryDiskSimulate pins the three-layer resolution
// order and the acceptance property: a sweep re-run by a "fresh process"
// (modelled by a fresh Runner and a fresh Store handle on the same
// directory) performs zero re-simulation and produces byte-identical
// output.
func TestRunnerResolvesMemoryDiskSimulate(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	opts := Options{Budget: 30_000, SweepBudget: 30_000}

	cold := NewRunner(4)
	cold.Store = openStore(t, dir)
	tab1, err := Table3(ctx, cold, opts)
	if err != nil {
		t.Fatal(err)
	}
	var out1 bytes.Buffer
	if err := tab1.tables()[0].CSV(&out1); err != nil {
		t.Fatal(err)
	}
	st1 := cold.Stats()
	if st1.Simulated == 0 || st1.StoreHits != 0 || st1.StoreMisses != st1.Simulated {
		t.Fatalf("cold run stats %+v: want every memo miss to miss the store and simulate", st1)
	}

	// Within the same runner a repeat is a pure memo hit: the disk is not
	// consulted again.
	if _, err := Table3(ctx, cold, opts); err != nil {
		t.Fatal(err)
	}
	if st := cold.Stats(); st.StoreMisses != st1.StoreMisses || st.StoreHits != 0 || st.Simulated != st1.Simulated {
		t.Errorf("memo hit consulted the store: %+v then %+v", st1, st)
	}

	warm := NewRunner(4)
	warm.Store = openStore(t, dir)
	tab2, err := Table3(ctx, warm, opts)
	if err != nil {
		t.Fatal(err)
	}
	var out2 bytes.Buffer
	if err := tab2.tables()[0].CSV(&out2); err != nil {
		t.Fatal(err)
	}
	st2 := warm.Stats()
	if st2.Simulated != 0 {
		t.Errorf("warm run re-simulated %d jobs; store hits %d", st2.Simulated, st2.StoreHits)
	}
	if st2.StoreHits != st1.Simulated {
		t.Errorf("warm run store hits %d, want every one of the cold run's %d simulations", st2.StoreHits, st1.Simulated)
	}
	if !bytes.Equal(out1.Bytes(), out2.Bytes()) {
		t.Error("store-served run's CSV differs from the cold run's")
	}
}

// TestPanicFaultPersisted: an invariant-panic fault is a property of the
// job, so a fresh runner on the same store receives the fault from disk —
// without the faulty site even being armed, proving no re-simulation.
func TestPanicFaultPersisted(t *testing.T) {
	dir := t.TempDir()
	w := workloads.Integer()[0]
	opts := Options{Budget: 50_000}

	faultinject.Reset()
	faultinject.Arm(faultinject.LSUDispatch)
	r1 := NewRunner(1)
	r1.Store = openStore(t, dir)
	_, err := r1.Run(context.Background(), core.Baseline(), w, opts)
	faultinject.Reset()
	var f1 *simfault.Fault
	if !errors.As(err, &f1) {
		t.Fatalf("armed site returned %T, want fault: %v", err, err)
	}

	r2 := NewRunner(1)
	r2.Store = openStore(t, dir)
	_, err = r2.Run(context.Background(), core.Baseline(), w, opts)
	var f2 *simfault.Fault
	if !errors.As(err, &f2) {
		t.Fatalf("fresh runner on warm store returned %T, want the stored fault: %v", err, err)
	}
	if f2.Subsystem != f1.Subsystem || f2.Cycle != f1.Cycle || f2.Cell() != f1.Cell() {
		t.Errorf("stored fault %+v differs from original %+v", f2, f1)
	}
	if st := r2.Stats(); st.Simulated != 0 || st.StoreHits != 1 {
		t.Errorf("stats %+v: the fault must come from disk, not re-simulation", st)
	}
}

// TestDeadlineFaultNotPersisted: a deadline fault depends on host wall-clock
// load, so it is memoized in-process but never written to the store — a
// fresh runner with no timeout simulates the job successfully instead of
// inheriting a slow machine's verdict.
func TestDeadlineFaultNotPersisted(t *testing.T) {
	dir := t.TempDir()
	w := workloads.Integer()[0]
	opts := Options{Budget: 50_000}

	r1 := NewRunner(1)
	r1.Store = openStore(t, dir)
	r1.JobTimeout = time.Nanosecond
	_, err := r1.Run(context.Background(), core.Baseline(), w, opts)
	var f *simfault.Fault
	if !errors.As(err, &f) || f.Subsystem != simfault.SubsystemDeadline {
		t.Fatalf("expired job returned %v, want a deadline fault", err)
	}
	if files := entryFiles(t, dir); len(files) != 0 {
		t.Fatalf("deadline fault reached the store: %v", files)
	}

	// In-process the fault is still memoized (property of this run)…
	_, err2 := r1.Run(context.Background(), core.Baseline(), w, opts)
	var f2 *simfault.Fault
	if !errors.As(err2, &f2) || f2 != f {
		t.Errorf("in-process hit returned %v, want the memoized deadline fault", err2)
	}

	// …but a fresh process is free to try again, and succeeds.
	r2 := NewRunner(1)
	r2.Store = openStore(t, dir)
	rep, err := r2.Run(context.Background(), core.Baseline(), w, opts)
	if err != nil || rep == nil {
		t.Fatalf("fresh runner inherited the deadline fault: %v", err)
	}
	if st := r2.Stats(); st.StoreHits != 0 || st.Simulated != 1 {
		t.Errorf("stats %+v, want a store miss and one simulation", st)
	}
}

// TestCorruptEntryRecomputedWithoutCrash: damage every stored entry; the
// next run quarantines them, recomputes, and rewrites — consistent with
// the fault-isolation rule that bad state degrades one cell, not the run.
func TestCorruptEntryRecomputedWithoutCrash(t *testing.T) {
	dir := t.TempDir()
	w := tinyWorkload("store-corrupt")
	opts := Options{Budget: 500}

	r1 := NewRunner(1)
	r1.Store = openStore(t, dir)
	rep1, err := r1.Run(context.Background(), core.Baseline(), w, opts)
	if err != nil {
		t.Fatal(err)
	}
	files := entryFiles(t, dir)
	if len(files) != 1 {
		t.Fatalf("want 1 entry file, have %v", files)
	}
	if err := os.Truncate(files[0], 10); err != nil {
		t.Fatal(err)
	}

	store2 := openStore(t, dir)
	r2 := NewRunner(1)
	r2.Store = store2
	rep2, err := r2.Run(context.Background(), core.Baseline(), w, opts)
	if err != nil {
		t.Fatalf("corrupt entry crashed the run: %v", err)
	}
	if *rep1 != *rep2 {
		t.Error("recomputed report differs from the original")
	}
	if st := store2.Stats(); st.Corrupt != 1 || st.Puts != 1 {
		t.Errorf("store stats %+v, want 1 quarantined + 1 rewrite", st)
	}
	if st := r2.Stats(); st.Simulated != 1 {
		t.Errorf("runner stats %+v, want the job recomputed", st)
	}
	// The rewritten entry serves the next fresh runner.
	r3 := NewRunner(1)
	r3.Store = openStore(t, dir)
	if _, err := r3.Run(context.Background(), core.Baseline(), w, opts); err != nil {
		t.Fatal(err)
	}
	if st := r3.Stats(); st.StoreHits != 1 || st.Simulated != 0 {
		t.Errorf("stats %+v, want the rewritten entry served", st)
	}
}

// TestReadOnlyStoreRunner: a runner over a read-only store serves hits but
// writes nothing back, so the store directory is not mutated even on a
// miss.
func TestReadOnlyStoreRunner(t *testing.T) {
	dir := t.TempDir()
	w := tinyWorkload("store-ro")

	seed := NewRunner(1)
	seed.Store = openStore(t, dir)
	if _, err := seed.Run(context.Background(), core.Baseline(), w, Options{Budget: 500}); err != nil {
		t.Fatal(err)
	}
	before := entryFiles(t, dir)

	ro, err := resultstore.OpenMode(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(1)
	r.Store = ro
	// Hit: served from the read-only store.
	if _, err := r.Run(context.Background(), core.Baseline(), w, Options{Budget: 500}); err != nil {
		t.Fatal(err)
	}
	// Miss (different budget): simulates, but writes nothing back.
	if _, err := r.Run(context.Background(), core.Baseline(), w, Options{Budget: 600}); err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.StoreHits != 1 || st.StoreMisses != 1 || st.Simulated != 1 {
		t.Errorf("stats %+v, want 1 store hit / 1 miss / 1 simulation", st)
	}
	after := entryFiles(t, dir)
	if len(after) != len(before) {
		t.Errorf("read-only runner grew the store: %d -> %d entries", len(before), len(after))
	}
}
