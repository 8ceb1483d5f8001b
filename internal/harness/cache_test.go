package harness

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"aurora/internal/core"
	"aurora/internal/resultstore"
	"aurora/internal/sample"
	"aurora/internal/workloads"
)

// checkpointCache is a checkpoint cache of the given byte budget.
func checkpointCache(budget int64) *cache[sample.CaptureKey, *sample.Checkpoint] {
	return newCache[sample.CaptureKey](budget, (*sample.Checkpoint).Size)
}

// capture is the build of k's checkpoint: RunSampled's, minus the guard.
func capture(t *testing.T, k sample.CaptureKey) func(context.Context) (*sample.Checkpoint, error) {
	w, err := workloads.Get(k.Workload)
	if err != nil {
		t.Fatal(err)
	}
	return func(ctx context.Context) (*sample.Checkpoint, error) {
		return sample.NewCheckpoint(ctx, w, k.Budget, sample.Params{WarmUp: k.WarmUp, Interval: k.Interval, Window: k.Window})
	}
}

// has reports whether c holds an entry for k, completed or in flight.
func (c *cache[K, V]) has(k K) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.m[k]
	return ok
}

// TestCacheSharesBuilds: one build per key, distinct keys build
// separately, and the cached checkpoint is the same object.
func TestCacheSharesBuilds(t *testing.T) {
	ctx := context.Background()
	p := sampledTestParams()
	c := checkpointCache(checkpointBytes)
	get := func(k sample.CaptureKey) *sample.Checkpoint {
		t.Helper()
		cp, err := c.get(ctx, k, capture(t, k))
		if err != nil {
			t.Fatal(err)
		}
		return cp
	}
	a := get(p.CaptureKey("li", 60_000))
	if get(p.CaptureKey("li", 60_000)) != a {
		t.Error("same key built two checkpoints")
	}
	if get(p.CaptureKey("li", 90_000)) == a {
		t.Error("different budgets shared a checkpoint")
	}
	if st := c.stats(); st.Misses != 2 || st.Hits != 1 {
		t.Errorf("%+v, want 2 builds and 1 hit", st)
	}
}

// TestCacheEvictsOldest: with a budget that holds two of three
// checkpoints, the least recently requested one is dropped, a request for
// it rebuilds (and is counted), and the rebuilt checkpoint replays to a
// byte-identical report.
func TestCacheEvictsOldest(t *testing.T) {
	ctx := context.Background()
	p := sampledTestParams()
	a, b, c := p.CaptureKey("li", 60_000), p.CaptureKey("li", 90_000), p.CaptureKey("espresso", 60_000)

	var sizes []int64
	for _, k := range []sample.CaptureKey{a, b, c} {
		cp, err := capture(t, k)(ctx)
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, cp.Size())
	}
	cache := checkpointCache(sizes[0] + sizes[1] + sizes[2] - min(sizes[0], sizes[1], sizes[2]))
	get := func(k sample.CaptureKey) *sample.Checkpoint {
		t.Helper()
		cp, err := cache.get(ctx, k, capture(t, k))
		if err != nil {
			t.Fatal(err)
		}
		return cp
	}

	first := get(a)
	get(b)
	if get(a) != first {
		t.Fatal("a cached checkpoint was rebuilt within the budget")
	}
	get(c) // over budget: b is now the least recently requested
	if st := cache.stats(); st.Misses != 3 || st.Evictions != 1 {
		t.Errorf("after three keys: %+v, want 3 builds and 1 eviction", st)
	}
	if !cache.has(a) || cache.has(b) || !cache.has(c) {
		t.Errorf("cached after evicting: a %v, b %v, c %v; want a and c", cache.has(a), cache.has(b), cache.has(c))
	}

	get(b) // rebuilds b and drops a, now the oldest
	if st := cache.stats(); st.Misses != 4 || st.Evictions != 2 {
		t.Errorf("after the rebuild: %+v, want 4 builds and 2 evictions", st)
	}
	rebuilt := get(a)
	if rebuilt == first {
		t.Fatal("the evicted checkpoint was served again instead of rebuilt")
	}
	if st := cache.stats(); st.Misses != 5 || st.Evictions != 3 {
		t.Errorf("after rebuilding a: %+v, want 5 builds and 3 evictions", st)
	}
	// The job still holding the evicted checkpoint replays it unchanged.
	want, err := first.Run(ctx, core.Baseline(), a.Budget, p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := rebuilt.Run(ctx, core.Baseline(), a.Budget, p)
	if err != nil {
		t.Fatal(err)
	}
	wj, _ := json.Marshal(want)
	gj, _ := json.Marshal(got)
	if string(gj) != string(wj) {
		t.Errorf("rebuilt checkpoint's report differs:\nrebuilt:  %s\noriginal: %s", gj, wj)
	}
}

// TestCacheKeepsInFlight: eviction passes over a build in flight, however
// old its request, and its waiters get its value once it completes.
func TestCacheKeepsInFlight(t *testing.T) {
	ctx := context.Background()
	c := newCache[string](1, func(v string) int64 { return int64(len(v)) })
	release := make(chan struct{})
	started := make(chan struct{})
	done := make(chan string)
	go func() {
		v, _ := c.get(ctx, "building", func(context.Context) (string, error) {
			close(started)
			<-release
			return "slow", nil
		})
		done <- v
	}()
	<-started
	if v, _ := c.get(ctx, "quick", func(context.Context) (string, error) { return "quick", nil }); v != "quick" {
		t.Fatalf("got %q", v)
	}
	if !c.has("building") || c.has("quick") {
		t.Error("eviction dropped the build in flight, or kept the completed entry over budget")
	}
	if st := c.stats(); st.Evictions != 1 {
		t.Errorf("%+v; want the one completed entry evicted", st)
	}
	close(release)
	if v := <-done; v != "slow" {
		t.Errorf("in-flight build answered %q", v)
	}
}

// TestCacheConcurrentEviction: requesters racing over more keys than the
// budget holds each get the checkpoint of the key they asked for, while
// builds, hits and evictions interleave. Run it under -race.
func TestCacheConcurrentEviction(t *testing.T) {
	ctx := context.Background()
	p := sampledTestParams()
	one, err := capture(t, p.CaptureKey("li", 40_000))(ctx)
	if err != nil {
		t.Fatal(err)
	}
	c := checkpointCache(2 * one.Size())
	var keys []sample.CaptureKey
	builds := map[sample.CaptureKey]func(context.Context) (*sample.Checkpoint, error){}
	for _, b := range []uint64{40_000, 45_000, 50_000, 55_000} {
		k := p.CaptureKey("li", b)
		keys = append(keys, k)
		builds[k] = capture(t, k)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				k := keys[(g+i)%len(keys)]
				cp, err := c.get(ctx, k, builds[k])
				if err != nil {
					t.Error(err)
					return
				}
				if cp.CaptureKey != k {
					t.Errorf("requested budget %d, got a checkpoint of budget %d", k.Budget, cp.Budget)
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.stats()
	if st.Evictions == 0 || st.Misses < uint64(len(keys)) {
		t.Errorf("%+v: want every key built and some evicted", st)
	}
	if st.Hits+st.Misses != 4*12 {
		t.Errorf("%+v: hits and misses do not add up to the %d requests", st, 4*12)
	}
}

// TestCacheKeepsErrors: an error that is not a cancellation is a property
// of the key: it is built once and shared, and a later request does not
// build again.
func TestCacheKeepsErrors(t *testing.T) {
	ctx := context.Background()
	c := newCache[string](1<<20, func(string) int64 { return 1 })
	fault := errors.New("execution fault")
	builds := 0
	build := func(context.Context) (string, error) { builds++; return "", fault }
	for i := 0; i < 2; i++ {
		if _, err := c.get(ctx, "k", build); err != fault {
			t.Fatalf("request %d: error %v, want the build's", i, err)
		}
	}
	if builds != 1 {
		t.Errorf("%d builds, want the error built once", builds)
	}
	if st := c.stats(); st.Hits != 1 || st.Misses != 1 {
		t.Errorf("%+v, want 1 hit and 1 miss", st)
	}
}

// TestCacheRetriesCancelledBuild: a build that dies with its caller's
// context is withdrawn; a requester waiting on it retries under its own
// context and is counted once, as the miss that answers it.
func TestCacheRetriesCancelledBuild(t *testing.T) {
	c := newCache[string](1<<20, func(string) int64 { return 1 })
	ctx1, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	first := make(chan error)
	go func() {
		_, err := c.get(ctx1, "k", func(ctx context.Context) (string, error) {
			close(started)
			<-ctx.Done()
			return "", ctx.Err()
		})
		first <- err
	}()
	<-started
	second := make(chan string)
	ctx2 := context.Background()
	go func() {
		v, err := c.get(ctx2, "k", func(ctx context.Context) (string, error) {
			if ctx != ctx2 {
				t.Error("the retry did not build under its own caller's context")
			}
			return "built", nil
		})
		if err != nil {
			t.Error(err)
		}
		second <- v
	}()
	// Give the second requester time to find the doomed build and wait on
	// it; arriving after the withdrawal instead must answer the same.
	time.Sleep(10 * time.Millisecond)
	cancel()
	if err := <-first; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled build returned %v", err)
	}
	if v := <-second; v != "built" {
		t.Fatalf("retry answered %q", v)
	}
	if st := c.stats(); st.Misses != 2 || st.Hits != 0 {
		t.Errorf("%+v, want the withdrawn build and the retry as the only 2 misses", st)
	}
	if v, err := c.get(context.Background(), "k", nil); v != "built" || err != nil {
		t.Errorf("after the retry: %q, %v; want the retried value kept", v, err)
	}
}

// TestCacheWithdrawsPanickedBuild: a build that panics through get, to its
// caller's fault boundary, leaves no entry in flight: the key is withdrawn
// and the next request builds it.
func TestCacheWithdrawsPanickedBuild(t *testing.T) {
	c := newCache[string](1<<20, func(string) int64 { return 1 })
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the build's panic did not reach its caller")
			}
		}()
		c.get(context.Background(), "k", func(context.Context) (string, error) { panic("capture bug") })
	}()
	if c.has("k") {
		t.Fatal("a panicked build was left in the cache")
	}
	if v, err := c.get(context.Background(), "k", func(context.Context) (string, error) { return "built", nil }); v != "built" || err != nil {
		t.Errorf("after the panic: %q, %v; want a fresh build", v, err)
	}
}

// TestRunSampledSharesCaptureError: a capture that fails on its own
// merits, here a VM fault, is captured once for every configuration of a
// sweep, not once per configuration.
func TestRunSampledSharesCaptureError(t *testing.T) {
	r := NewRunner(1)
	for _, cfg := range []core.Config{core.Baseline(), core.Small()} {
		if _, err := r.RunSampled(context.Background(), cfg, faultyWorkload(), Options{}, sampledTestParams()); err == nil {
			t.Fatalf("%s: a faulting capture returned an estimate", cfg.Name)
		}
	}
	if st := r.checkpoints.stats(); st.Misses != 1 || st.Hits != 1 {
		t.Errorf("checkpoint cache %+v, want the failed capture built once and shared", st)
	}
}

// TestMemoEvictionFallsThroughToStore: a job evicted from a tiny memo is
// answered again without re-simulation when a store is attached, and
// re-simulates to an identical report without one.
func TestMemoEvictionFallsThroughToStore(t *testing.T) {
	ctx := context.Background()
	w, err := workloads.Get("espresso")
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Budget: 20_000}
	for _, withStore := range []bool{true, false} {
		r := NewRunner(1)
		if withStore {
			r.Store = openStore(t, t.TempDir())
		}
		r.memo.budget = resultBytes(resultstore.Result{}) // one exact report
		first, err := r.Run(ctx, core.Baseline(), w, opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Run(ctx, core.Small(), w, opts); err != nil {
			t.Fatal(err)
		}
		again, err := r.Run(ctx, core.Baseline(), w, opts)
		if err != nil {
			t.Fatal(err)
		}
		want := RunnerStats{Misses: 3, Simulated: 3, MemoEvictions: 2}
		if withStore {
			want = RunnerStats{Misses: 3, Simulated: 2, StoreHits: 1, StoreMisses: 2, MemoEvictions: 2}
		}
		if st := r.Stats(); st != want {
			t.Errorf("store %v: %+v, want %+v", withStore, st, want)
		}
		if !reflect.DeepEqual(again, first) {
			t.Errorf("store %v: the evicted job answered a different report", withStore)
		}
	}
}
