package harness

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"aurora/internal/core"
	"aurora/internal/faultinject"
	"aurora/internal/sample"
	"aurora/internal/simfault"
	"aurora/internal/workloads"
)

// siteWorkload picks a workload whose instruction mix visits the site: FPU
// sites need floating-point dispatches, which the integer suite never issues.
func siteWorkload(t *testing.T, s faultinject.Site) *workloads.Workload {
	t.Helper()
	suite := workloads.Integer()
	if s.Subsystem() == "fpu" {
		suite = workloads.FP()
	}
	return suite[0]
}

// TestFaultInjectionEverySite arms each guarded panic site in turn and checks
// the runner degrades the job into a typed *simfault.Fault from the matching
// subsystem — the process survives, and the fault carries the job identity.
func TestFaultInjectionEverySite(t *testing.T) {
	defer faultinject.Reset()
	for _, site := range faultinject.Sites() {
		t.Run(site.String(), func(t *testing.T) {
			faultinject.Reset()
			faultinject.Arm(site)
			defer faultinject.Reset()

			r := NewRunner(1)
			w := siteWorkload(t, site)
			rep, err := r.Run(context.Background(), core.Baseline(), w, Options{Budget: 100_000})
			if err == nil {
				t.Fatalf("armed site %s did not fault (report: %v)", site, rep)
			}
			var f *simfault.Fault
			if !errors.As(err, &f) {
				t.Fatalf("armed site %s returned %T, want *simfault.Fault: %v", site, err, err)
			}
			if f.Subsystem != site.Subsystem() {
				t.Errorf("fault subsystem %q, want %q", f.Subsystem, site.Subsystem())
			}
			if f.Workload != w.Name {
				t.Errorf("fault workload %q, want %q", f.Workload, w.Name)
			}
			if f.Fingerprint == "" || f.Config == "" {
				t.Errorf("fault missing job identity: config %q fingerprint %q", f.Config, f.Fingerprint)
			}
			if len(f.Stack) == 0 {
				t.Error("fault has no captured stack")
			}
		})
	}
}

// memoMode is one way of submitting a job to a Runner. Exact and sampled
// runs share one memo protocol — single flight, withdraw on cancel,
// memoized faults, one count per request — so the protocol tests run
// every case under both. run returns the shared result pointer (nil on
// failure) so callers can check that hits share the miss's answer.
type memoMode struct {
	name string
	run  func(ctx context.Context, r *Runner, w *workloads.Workload, opts Options) (any, error)
}

var memoModes = []memoMode{
	{"exact", func(ctx context.Context, r *Runner, w *workloads.Workload, opts Options) (any, error) {
		rep, err := r.Run(ctx, core.Baseline(), w, opts)
		if rep == nil {
			return nil, err
		}
		return rep, err
	}},
	{"sampled", func(ctx context.Context, r *Runner, w *workloads.Workload, opts Options) (any, error) {
		rep, err := r.RunSampled(ctx, core.Baseline(), w, opts, sampledTestParams())
		if rep == nil {
			return nil, err
		}
		return rep, err
	}},
}

// TestFaultMemoNotPoisoned is the regression test for the poisoned-entry bug:
// the earlier sync.Once memo counted a panicking computation as done, so a
// hit on that key read nil, nil — a "successful" run with no report. The
// done-channel design must return the identical *simfault.Fault on the miss
// and on every later hit, sequential or concurrent.
func TestFaultMemoNotPoisoned(t *testing.T) {
	for _, m := range memoModes {
		t.Run(m.name, func(t *testing.T) {
			faultinject.Reset()
			faultinject.Arm(faultinject.LSUDispatch)
			defer faultinject.Reset()

			r := NewRunner(2)
			w := workloads.Integer()[0]
			opts := Options{Budget: 120_000}

			res, err := m.run(context.Background(), r, w, opts)
			var f *simfault.Fault
			if res != nil || !errors.As(err, &f) {
				t.Fatalf("miss returned (%v, %T %v), want a *simfault.Fault", res, err, err)
			}
			const hits = 4
			var wg sync.WaitGroup
			errs := make([]error, hits)
			for i := range errs {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					var res any
					res, errs[i] = m.run(context.Background(), r, w, opts)
					if res != nil {
						t.Errorf("hit %d produced a result from a faulted job", i)
					}
				}(i)
			}
			wg.Wait()
			for i, err := range errs {
				var g *simfault.Fault
				if !errors.As(err, &g) {
					t.Fatalf("hit %d returned %T, want *simfault.Fault: %v (memo entry poisoned)", i, err, err)
				}
				if g != f {
					t.Errorf("hit %d returned a distinct fault; the memo entry was recomputed or poisoned", i)
				}
			}
			if st := r.Stats(); st.Misses != 1 || st.Hits != hits || st.Simulated != 1 {
				t.Errorf("stats %+v, want 1 miss / %d hits / 1 simulated", st, hits)
			}
		})
	}
}

// TestRunHonorsCancellation: an already-cancelled context returns before
// simulating, a mid-run cancellation interrupts the job, and a cancelled
// attempt is withdrawn from the memo table so a later sweep retries it
// under its own live context.
func TestRunHonorsCancellation(t *testing.T) {
	for _, m := range memoModes {
		t.Run(m.name, func(t *testing.T) {
			r := NewRunner(1)
			w := workloads.Integer()[0]
			opts := Options{Budget: 200_000}

			pre, cancel := context.WithCancel(context.Background())
			cancel()
			if _, err := m.run(pre, r, w, opts); !errors.Is(err, context.Canceled) {
				t.Fatalf("pre-cancelled run returned %v, want context.Canceled", err)
			}
			if st := r.Stats(); st.Simulated != 0 {
				t.Fatalf("pre-cancelled run simulated: %+v", st)
			}

			mid, cancel := context.WithCancel(context.Background())
			done := make(chan error, 1)
			go func() {
				_, err := m.run(mid, r, w, opts)
				done <- err
			}()
			cancel()
			select {
			case err := <-done:
				if err != nil && !errors.Is(err, context.Canceled) {
					t.Fatalf("mid-run cancellation returned %v", err)
				}
			case <-time.After(30 * time.Second):
				t.Fatal("cancelled run did not return")
			}

			// The key must not be poisoned by the withdrawn attempt: a
			// fresh context computes it successfully.
			res, err := m.run(context.Background(), r, w, opts)
			if err != nil || res == nil {
				t.Fatalf("retry after cancellation failed: %v", err)
			}
		})
	}
}

// TestJobDeadlineBecomesFault: a job that exceeds Runner.JobTimeout while the
// surrounding sweep is alive fails with a typed "deadline" fault — a property
// of the job, memoized like any other — not a bare context error.
func TestJobDeadlineBecomesFault(t *testing.T) {
	for _, m := range memoModes {
		t.Run(m.name, func(t *testing.T) {
			r := NewRunner(1)
			r.JobTimeout = time.Nanosecond
			w := workloads.Integer()[0]
			opts := Options{Budget: 200_000}

			_, err := m.run(context.Background(), r, w, opts)
			var f *simfault.Fault
			if !errors.As(err, &f) {
				t.Fatalf("expired job returned %T, want *simfault.Fault: %v", err, err)
			}
			if f.Subsystem != simfault.SubsystemDeadline || f.Workload != w.Name {
				t.Errorf("fault %+v, want a deadline fault on %s", f, w.Name)
			}

			// Memoized: the hit shares the fault instead of re-simulating.
			_, err2 := m.run(context.Background(), r, w, opts)
			var f2 *simfault.Fault
			if !errors.As(err2, &f2) || f2 != f {
				t.Errorf("hit returned %v, want the memoized deadline fault", err2)
			}
			if st := r.Stats(); st.Misses != 1 || st.Hits != 1 || st.Simulated != 1 {
				t.Errorf("stats %+v, want 1 miss / 1 hit / 1 simulated", st)
			}
		})
	}
}

// TestHitsCountedOncePerRequest is the regression test for the
// withdraw/retry double count: a requester that waits on an entry, sees it
// withdrawn by the computing caller's cancellation, and retries used to be
// counted as a hit and then as a hit-or-miss again, so Stats() could
// report hits+misses > requests. Each request now counts once, by the
// branch that finally answers it.
func TestHitsCountedOncePerRequest(t *testing.T) {
	for _, m := range memoModes {
		t.Run(m.name, func(t *testing.T) {
			r := NewRunner(1)
			w := workloads.Integer()[0]
			opts := Options{Budget: 200_000}

			// The worker pool is the rendezvous: with its only slot taken,
			// A publishes its memo entry and then parks at admission, so
			// the key is held and every other requester waits on A's entry.
			r.sem <- struct{}{}
			aCtx, aCancel := context.WithCancel(context.Background())
			aDone := make(chan error, 1)
			go func() {
				_, err := m.run(aCtx, r, w, opts)
				aDone <- err
			}()
			for r.Stats().Misses == 0 {
				time.Sleep(time.Millisecond)
			}

			bDone := make(chan error, 1)
			go func() {
				_, err := m.run(context.Background(), r, w, opts)
				bDone <- err
			}()
			// Give B time to park on A's entry before the entry is withdrawn
			// (if it loses the race it publishes its own entry, which the
			// assertions below still accept — they just no longer exercise
			// the retry path).
			time.Sleep(100 * time.Millisecond)

			aCancel()
			if err := <-aDone; !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled computing caller returned %v", err)
			}
			<-r.sem // B now computes in the freed slot
			if err := <-bDone; err != nil {
				t.Fatalf("retrying waiter failed: %v", err)
			}

			// A was cancelled before simulating (its entry counts as the
			// one miss it published); B was answered by its own retry
			// computation (one miss). The buggy accounting reported a hit.
			st := r.Stats()
			if st.Hits != 0 {
				t.Errorf("hits = %d, want 0: the withdrawn wait must not count as a hit", st.Hits)
			}
			if st.Hits+st.Misses != 2 || st.Simulated != 1 {
				t.Errorf("stats %+v for 2 requests, want hits+misses = 2 and 1 simulation", st)
			}

			// Later requests are plain hits on B's completed entry, and
			// every request is counted exactly once.
			const more = 3
			for i := 0; i < more; i++ {
				if _, err := m.run(context.Background(), r, w, opts); err != nil {
					t.Fatal(err)
				}
			}
			if st := r.Stats(); st.Hits != more || st.Hits+st.Misses != 2+more || st.Simulated != 1 {
				t.Errorf("stats %+v after %d more requests, want %d hits and hits+misses = %d", st, more, more, 2+more)
			}
		})
	}
}

// TestKeepGoingSweepCompletes: with a hot-path site armed, a keep-going
// rate-table sweep still completes — every faulted cell is annotated and the
// rendering marks it, instead of the whole study aborting.
func TestKeepGoingSweepCompletes(t *testing.T) {
	faultinject.Reset()
	faultinject.Arm(faultinject.LSUDispatch)
	defer faultinject.Reset()

	r := NewRunner(2)
	tab, err := Table3(context.Background(), r, Quick())
	if err != nil {
		t.Fatalf("keep-going sweep aborted: %v", err)
	}
	if tab.Faults == nil {
		t.Fatal("sweep with an armed site reported no faults")
	}
	var faulted int
	for i, row := range tab.Rows {
		for j, v := range row {
			if f := tab.Faults[i][j]; f != nil {
				faulted++
				if !math.IsNaN(v) {
					t.Errorf("faulted cell %s/%s has value %v, want NaN", tab.Models[i], tab.Benches[j], v)
				}
			}
		}
	}
	if faulted == 0 {
		t.Fatal("no cell faulted under an armed hot-path site")
	}
	if out := text(tab.tables()...); !strings.Contains(out, "FAULT(ipu@") {
		t.Errorf("rendered table does not mark the faulted cells:\n%s", out)
	}
}

// TestKeepGoingMarksEveryRow: under keep-going, every rendered row whose
// statistics drop a faulted cell says so. With an armed site that faults
// every cell, no line of any registry artifact may show a NaN without a
// FAULT cell or an [N faulted] mark beside it, and the renders, in registry
// order, match testdata/faulted.golden; with one that faults six of the
// nine FP kernels, the precise-exception average still covers the three
// healthy ones.
func TestKeepGoingMarksEveryRow(t *testing.T) {
	defer faultinject.Reset()
	opts := Options{Budget: 20_000, SweepBudget: 5_000}
	render := func(t *testing.T, r *Runner, name string) string {
		t.Helper()
		a, ok := ArtifactNamed(name)
		if !ok {
			t.Fatalf("no artifact %q", name)
		}
		var buf bytes.Buffer
		if err := Render(context.Background(), &buf, r, opts, []Artifact{a}, nil); err != nil {
			t.Fatalf("keep-going %s aborted: %v", name, err)
		}
		return buf.String()
	}

	t.Run("every-cell-faulted", func(t *testing.T) {
		faultinject.Reset()
		faultinject.Arm(faultinject.LSUDispatch)
		r := NewRunner(2)
		var all strings.Builder
		for _, a := range Artifacts() {
			out := render(t, r, a.Name)
			all.WriteString(out)
			for _, line := range strings.Split(out, "\n") {
				if strings.Contains(line, "NaN") && !strings.Contains(line, "FAULT") && !strings.Contains(line, "faulted]") {
					t.Errorf("%s: unmarked NaN row: %q", a.Name, line)
				}
			}
		}
		checkGolden(t, "faulted.golden", all.String())

		// A dead suite has no rate: NaN, never a perfect-looking 0.
		mmuPts, err := MMUSensitivity(context.Background(), r, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range mmuPts {
			if !math.IsNaN(p.TLBMissPct) || !math.IsNaN(p.L2HitPct) {
				t.Errorf("mmu %q: rates %.2f/%.1f on a dead suite, want NaN", p.Label, p.TLBMissPct, p.L2HitPct)
			}
		}
		victim, err := VictimCacheStudy(context.Background(), r, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range victim {
			if !math.IsNaN(p.VictimHitPct) {
				t.Errorf("victim %s/%d: hit rate %.1f on a dead suite, want NaN", p.Model, p.VictimLines, p.VictimHitPct)
			}
		}
	})

	t.Run("partial-fp-suite", func(t *testing.T) {
		faultinject.Reset()
		faultinject.Arm(faultinject.FPUStoreQueue)
		r := NewRunner(2)
		out := render(t, r, "precise")
		var avg string
		for _, line := range strings.Split(out, "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "average") {
				avg = line
			}
		}
		if !strings.HasSuffix(avg, "%  [6 faulted]") || strings.Contains(avg, "NaN") {
			t.Errorf("precise average = %q, want a number over the healthy kernels marked [6 faulted]:\n%s", avg, out)
		}
		rows := 0
		for _, line := range strings.Split(render(t, r, "victim"), "\n")[2:] {
			if line == "" {
				continue
			}
			rows++
			if !strings.HasSuffix(line, "  [6 faulted]") {
				t.Errorf("victim row not marked: %q", line)
			}
		}
		if rows != 6 {
			t.Errorf("victim study rendered %d rows, want 6", rows)
		}
	})
}

// TestFailFastAbortsSweep: under FailFast an armed site aborts every
// simulating registry artifact with the fault as the error instead of a
// partial table — the sweep figures (8, 9 and the dual-issue queue study)
// included, whose options once dropped FailFast.
func TestFailFastAbortsSweep(t *testing.T) {
	faultinject.Reset()
	faultinject.Arm(faultinject.LSUDispatch)
	defer faultinject.Reset()

	opts := Options{Budget: 20_000, SweepBudget: 5_000, FailFast: true}
	for _, a := range Artifacts() {
		if a.Name == "fig1" {
			continue // fits published data; simulates nothing
		}
		t.Run(a.Name, func(t *testing.T) {
			err := Render(context.Background(), io.Discard, NewRunner(2), opts, []Artifact{a}, nil)
			var f *simfault.Fault
			if !errors.As(err, &f) {
				t.Fatalf("fail-fast %s returned %T, want *simfault.Fault: %v", a.Name, err, err)
			}
		})
	}
}

// TestCellModesAndPolicies pins Runner.Cell, the one place a cell picks
// its mode and the keep-going rule applies: exact and sampled cells come
// back in one shape; under keep-going a fault is a marked cell and under
// fail-fast it is the error, in either mode; and a non-fault error is an
// error under both policies.
func TestCellModesAndPolicies(t *testing.T) {
	defer faultinject.Reset()
	w := workloads.Integer()[0]
	sp := sampledTestParams()
	for _, tc := range []struct {
		name      string
		sp        *sample.Params
		opts      Options
		arm       bool
		wantFault bool // a marked cell, nil error
		wantErr   bool
	}{
		{name: "exact", opts: Options{Budget: 20_000}},
		{name: "sampled", sp: &sp, opts: Options{Budget: 120_000}},
		{name: "exact-fault-keep-going", opts: Options{Budget: 20_000}, arm: true, wantFault: true},
		{name: "sampled-fault-keep-going", sp: &sp, opts: Options{Budget: 120_000}, arm: true, wantFault: true},
		{name: "exact-fault-fail-fast", opts: Options{Budget: 20_000, FailFast: true}, arm: true, wantErr: true},
		{name: "sampled-fault-fail-fast", sp: &sp, opts: Options{Budget: 120_000, FailFast: true}, arm: true, wantErr: true},
		{name: "sampled-error-keep-going", sp: &sp, opts: Options{Budget: 120_000, Scheduled: true}, wantErr: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			faultinject.Reset()
			if tc.arm {
				faultinject.Arm(faultinject.LSUDispatch)
			}
			c, err := NewRunner(1).Cell(context.Background(), core.Baseline(), w, tc.opts, tc.sp)
			switch {
			case tc.wantErr:
				var f *simfault.Fault
				if err == nil || (tc.arm && !errors.As(err, &f)) {
					t.Fatalf("got (%+v, %v), want the job's error", c, err)
				}
				if c != (BenchCPI{}) {
					t.Errorf("failed cell carries data: %+v", c)
				}
			case err != nil:
				t.Fatal(err)
			case tc.wantFault:
				if c.Fault == nil || !strings.HasPrefix(c.Fault.Cell(), "FAULT(ipu@") {
					t.Fatalf("cell %+v, want an ipu fault", c)
				}
				if !math.IsNaN(c.CPI) || c.Report != nil || c.Sampled != nil || c.CPIError != 0 {
					t.Errorf("faulted cell carries data: %+v", c)
				}
			case tc.sp == nil:
				if c.Report == nil || c.Sampled != nil || c.CPI != c.Report.CPI() || c.CPIError != 0 {
					t.Errorf("exact cell %+v", c)
				}
			default:
				if c.Sampled == nil || c.Report != nil || c.CPI != c.Sampled.CPI ||
					c.CPIError != c.Sampled.CPIError || c.CPIError <= 0 {
					t.Errorf("sampled cell %+v", c)
				}
			}
			if c.Bench != "" && c.Bench != w.Name {
				t.Errorf("cell bench %q, want %q", c.Bench, w.Name)
			}
		})
	}
}

// TestKeepGoingSampledSweep: with a hot-path site armed, a keep-going
// sampled sweep completes with every one of its cells marked
// FAULT(ipu@...), and the rendering lists each fault.
func TestKeepGoingSampledSweep(t *testing.T) {
	faultinject.Reset()
	faultinject.Arm(faultinject.LSUDispatch)
	defer faultinject.Reset()

	res, err := SampledSweep(context.Background(), NewRunner(2), Options{Budget: 120_000}, sampledTestParams())
	if err != nil {
		t.Fatalf("keep-going sampled sweep aborted: %v", err)
	}
	cells := 0
	for i, m := range res.Models {
		for _, c := range res.Cells[i] {
			cells++
			if c.Fault == nil || !strings.HasPrefix(c.Fault.Cell(), "FAULT(ipu@") || !math.IsNaN(c.CPI) {
				t.Errorf("cell %s/%s = %+v, want an ipu fault", m, c.Bench, c)
			}
		}
	}
	if want := len(res.Models) * len(res.Benches); cells != want {
		t.Fatalf("sweep returned %d cells, want %d", cells, want)
	}
	out := text(res.Table())
	if n := strings.Count(out, "  fault: "); n != cells {
		t.Errorf("rendering lists %d faults, want %d:\n%s", n, cells, out)
	}
}

// TestFaultCellNamesItsConfig: configurations that differ only in name
// share one memoized job. Under keep-going each cell's fault names its own
// configuration, not whichever of them the scheduler ran first, so a
// faulted render is the same for any worker count.
func TestFaultCellNamesItsConfig(t *testing.T) {
	faultinject.Reset()
	faultinject.Arm(faultinject.LSUDispatch)
	defer faultinject.Reset()

	alias := core.Baseline()
	alias.Name = "alias"
	suites, err := grid(context.Background(), NewRunner(2), Options{Budget: 20_000}, nil,
		workloads.Integer()[:1], core.Baseline(), alias)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{"baseline", "alias"} {
		if f := suites[i][0].Fault; f == nil || f.Config != want {
			t.Errorf("cell %d fault %v, want one naming %q", i, f, want)
		}
	}
}

// TestInvalidConfigIsNotAFault: a configuration Validate rejects (here a
// negative victim cache, which once panicked in makeslice while the
// machine was built) is an error of the request, never a simulation
// fault that keep-going would turn into a FAULT cell.
func TestInvalidConfigIsNotAFault(t *testing.T) {
	cfg := core.Baseline()
	cfg.VictimLines = -1
	c, err := NewRunner(1).Cell(context.Background(), cfg, workloads.Integer()[0], Options{Budget: 20_000}, nil)
	var f *simfault.Fault
	if err == nil || errors.As(err, &f) || c.Fault != nil {
		t.Fatalf("cell %+v, error %v: want a plain configuration error", c, err)
	}
}

// TestFailFastSampledSweep: under FailFast the same armed site aborts the
// sampled sweep with the fault as its error.
func TestFailFastSampledSweep(t *testing.T) {
	faultinject.Reset()
	faultinject.Arm(faultinject.LSUDispatch)
	defer faultinject.Reset()

	res, err := SampledSweep(context.Background(), NewRunner(2), Options{Budget: 120_000, FailFast: true}, sampledTestParams())
	var f *simfault.Fault
	if res != nil || !errors.As(err, &f) {
		t.Fatalf("fail-fast sampled sweep returned (%v, %T %v), want a *simfault.Fault", res, err, err)
	}
}

// TestConcurrentRunRace exercises the memo table under -race: many callers
// race the same faulting job, healthy jobs, and a cancellation. Nothing may
// deadlock, and the pool must be fully released afterwards.
func TestConcurrentRunRace(t *testing.T) {
	faultinject.Reset()
	faultinject.Arm(faultinject.LSUDispatch)
	defer faultinject.Reset()

	r := NewRunner(2)
	intg := workloads.Integer()
	opts := Options{Budget: 30_000}
	cctx, cancel := context.WithCancel(context.Background())

	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := context.Background()
			if g%4 == 3 {
				ctx = cctx // this quarter races the cancellation below
			}
			w := intg[g%3]
			_, err := r.Run(ctx, core.Baseline(), w, opts)
			if err == nil {
				t.Error("armed site produced a fault-free run")
				return
			}
			var f *simfault.Fault
			if !errors.As(err, &f) && !canceled(err) {
				t.Errorf("unexpected error type %T: %v", err, err)
			}
		}()
	}
	cancel()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("concurrent Run callers deadlocked")
	}

	// The semaphore must be fully released: a healthy job still runs.
	faultinject.Reset()
	rep, err := r.Run(context.Background(), core.Baseline(), tinyWorkload("post-race"), Options{Budget: 500})
	if err != nil || rep == nil {
		t.Fatalf("runner unusable after the race: %v", err)
	}
}
