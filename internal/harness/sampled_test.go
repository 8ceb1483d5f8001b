package harness

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"aurora/internal/core"
	"aurora/internal/sample"
	"aurora/internal/workloads"
)

func sampledTestParams() sample.Params {
	return sample.Params{WarmUp: 20_000, Interval: 10_000, Window: 2_000}
}

func sampledTestWorkload(t *testing.T) *workloads.Workload {
	t.Helper()
	w, err := workloads.Get("espresso")
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestRunSampledMemoized(t *testing.T) {
	r := NewRunner(2)
	w := sampledTestWorkload(t)
	opts := Options{Budget: 120_000}
	ctx := context.Background()

	a, err := r.RunSampled(ctx, core.Baseline(), w, opts, sampledTestParams())
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.RunSampled(ctx, core.Baseline(), w, opts, sampledTestParams())
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("second identical sampled run was not the memoized report")
	}
	st := r.Stats()
	if st.Misses != 1 || st.Hits != 1 || st.Simulated != 1 {
		t.Errorf("stats after hit = %+v, want 1 miss / 1 hit / 1 simulated", st)
	}

	// Different sampling parameters are a different job.
	p2 := sampledTestParams()
	p2.WarmUp = 30_000
	if _, err := r.RunSampled(ctx, core.Baseline(), w, opts, p2); err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.Misses != 2 {
		t.Errorf("different params did not miss: %+v", st)
	}
}

// TestRunSampledDistinctFromExact: an exact run and a sampled run of the
// same (config, workload, budget) never share a memo entry.
func TestRunSampledDistinctFromExact(t *testing.T) {
	r := NewRunner(2)
	w := sampledTestWorkload(t)
	opts := Options{Budget: 120_000}
	ctx := context.Background()

	if _, err := r.Run(ctx, core.Baseline(), w, opts); err != nil {
		t.Fatal(err)
	}
	if _, err := r.RunSampled(ctx, core.Baseline(), w, opts, sampledTestParams()); err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.Misses != 2 || st.Hits != 0 {
		t.Errorf("exact and sampled runs aliased: %+v", st)
	}
}

func TestRunSampledRejectsScheduled(t *testing.T) {
	r := NewRunner(1)
	w := sampledTestWorkload(t)
	_, err := r.RunSampled(context.Background(), core.Baseline(), w,
		Options{Budget: 120_000, Scheduled: true}, sampledTestParams())
	if err == nil {
		t.Fatal("sampled run accepted the scheduled trace pass")
	}
	if !strings.Contains(err.Error(), "scheduled") {
		t.Errorf("error %q does not explain the scheduled rejection", err)
	}
}

// TestRunSampledStoreRoundTrip: a store-backed runner persists sampled
// estimates, a fresh runner over the same directory serves them from disk
// with an identical report, and the stored sampled entry never answers an
// exact run.
func TestRunSampledStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w := sampledTestWorkload(t)
	opts := Options{Budget: 120_000}
	ctx := context.Background()

	r1 := NewRunner(2)
	r1.Store = openStore(t, dir)
	cold, err := r1.RunSampled(ctx, core.Baseline(), w, opts, sampledTestParams())
	if err != nil {
		t.Fatal(err)
	}
	if st := r1.Stats(); st.Simulated != 1 || st.StoreMisses != 1 {
		t.Fatalf("cold sampled run: %+v", st)
	}

	r2 := NewRunner(2)
	r2.Store = openStore(t, dir)
	warm, err := r2.RunSampled(ctx, core.Baseline(), w, opts, sampledTestParams())
	if err != nil {
		t.Fatal(err)
	}
	if st := r2.Stats(); st.Simulated != 0 || st.StoreHits != 1 {
		t.Fatalf("warm sampled run simulated: %+v", st)
	}
	cj, _ := json.Marshal(cold)
	wj, _ := json.Marshal(warm)
	if string(cj) != string(wj) {
		t.Errorf("store round-trip changed the report:\ncold: %s\nwarm: %s", cj, wj)
	}

	// The exact run of the same cell is a store miss and a fresh simulation.
	if _, err := r2.Run(ctx, core.Baseline(), w, opts); err != nil {
		t.Fatal(err)
	}
	if st := r2.Stats(); st.Simulated != 1 {
		t.Errorf("exact run was answered by a sampled store entry: %+v", st)
	}
}

// TestRunSampledSharesCheckpoints: two configurations of one workload
// through one runner build a single checkpoint (the runner-owned cache) and
// their reports match private-checkpoint runs byte for byte.
func TestRunSampledSharesCheckpoints(t *testing.T) {
	r := NewRunner(2)
	w := sampledTestWorkload(t)
	opts := Options{Budget: 120_000}
	p := sampledTestParams()
	ctx := context.Background()

	for _, cfg := range []core.Config{core.Baseline(), core.Small()} {
		shared, err := r.RunSampled(ctx, cfg, w, opts, p)
		if err != nil {
			t.Fatal(err)
		}
		cp, err := sample.NewCheckpoint(ctx, w, opts.Budget, p.Normalize())
		if err != nil {
			t.Fatal(err)
		}
		private, err := cp.Run(ctx, cfg, opts.Budget, p)
		if err != nil {
			t.Fatal(err)
		}
		sj, _ := json.Marshal(shared)
		pj, _ := json.Marshal(private)
		if string(sj) != string(pj) {
			t.Errorf("%s: runner (shared checkpoint) differs from private run:\nshared:  %s\nprivate: %s",
				cfg.Name, sj, pj)
		}
	}
}

// TestSampledSweepGrid: the aurora-experiments/-serve artifact covers the
// full model x workload grid with healthy estimates, rendered as
// testdata/sampled.golden pins.
func TestSampledSweepGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("full 60-cell sampled sweep")
	}
	r := NewRunner(4)
	res, err := SampledSweep(context.Background(), r, Options{Budget: 120_000}, sampledTestParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Models) != 4 || len(res.Benches) != len(workloads.Names()) {
		t.Fatalf("grid is %d models x %d benches", len(res.Models), len(res.Benches))
	}
	for i, m := range res.Models {
		for j, c := range res.Cells[i] {
			if c.Fault != nil || c.Sampled == nil {
				t.Errorf("cell %s/%s unhealthy: %+v", m, res.Benches[j], c)
				continue
			}
			if c.CPI <= 0 || c.CPIError <= 0 {
				t.Errorf("cell %s/%s estimate incomplete: %+v", m, res.Benches[j], c.Sampled)
			}
		}
	}
	checkGolden(t, "sampled.golden", text(res.Table()))
}
