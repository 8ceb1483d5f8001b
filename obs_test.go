package aurora

import (
	"context"
	"testing"

	"aurora/internal/harness"
	"aurora/internal/obs"
)

// End-to-end checks of the observability layer against the public API: the
// interval time series must reconcile exactly with the end-of-run Report,
// and attaching a sink must not perturb the simulation.

// reconcile pairs a metric column with the Report counter it must sum to.
func reconcile(t *testing.T, s *obs.IntervalSampler, name string, want uint64) {
	t.Helper()
	got, ok := s.Total(name)
	if !ok {
		t.Errorf("metric %q never emitted", name)
		return
	}
	if got != float64(want) {
		t.Errorf("sum of %q = %v, want report value %d", name, got, want)
	}
}

func TestMetricsReconcileWithReport(t *testing.T) {
	w, err := GetWorkload("espresso")
	if err != nil {
		t.Fatal(err)
	}
	// A non-divisor interval forces a final partial interval; the flush
	// re-emit must still land in the last row.
	s := obs.NewIntervalSampler(9_973)
	rep, err := Run(context.Background(), Baseline(), w, RunOptions{Budget: 120_000, Sink: s})
	if err != nil {
		t.Fatal(err)
	}
	rows := s.Rows()
	if len(rows) == 0 {
		t.Fatal("sampler produced no rows")
	}
	if last := rows[len(rows)-1].Cycle; last != rep.Cycles {
		t.Errorf("last row cycle = %d, want end-of-run cycle %d", last, rep.Cycles)
	}

	reconcile(t, s, "instructions", rep.Instructions)
	reconcile(t, s, "dual_issues", rep.DualIssues)
	reconcile(t, s, "stall_icache", rep.Stalls[StallICache])
	reconcile(t, s, "stall_load", rep.Stalls[StallLoad])
	reconcile(t, s, "stall_rob_full", rep.Stalls[StallROBFull])
	reconcile(t, s, "stall_lsu_busy", rep.Stalls[StallLSUBusy])
	reconcile(t, s, "stall_fpu", rep.Stalls[StallFPU])
	reconcile(t, s, "stall_other", rep.Stalls[StallOther])
	reconcile(t, s, "icache_accesses", rep.ICacheAccesses)
	reconcile(t, s, "icache_misses", rep.ICacheMisses)
	reconcile(t, s, "dcache_accesses", rep.DCacheAccesses)
	reconcile(t, s, "dcache_misses", rep.DCacheMisses)
	reconcile(t, s, "iprefetch_probes", rep.IPrefetchProbes)
	reconcile(t, s, "iprefetch_hits", rep.IPrefetchHits)
	reconcile(t, s, "dprefetch_probes", rep.DPrefetchProbes)
	reconcile(t, s, "dprefetch_hits", rep.DPrefetchHits)
	reconcile(t, s, "wc_accesses", rep.WCAccesses)
	reconcile(t, s, "wc_hits", rep.WCHits)
	reconcile(t, s, "wc_stores", rep.WCStores)
	reconcile(t, s, "wc_transactions", rep.WCTransactions)
	reconcile(t, s, "wc_page_matches", rep.WCPageMatches)
	reconcile(t, s, "wc_page_miss_checks", rep.WCPageMissChecks)
	reconcile(t, s, "victim_probes", rep.VictimProbes)
	reconcile(t, s, "victim_hits", rep.VictimHits)
	reconcile(t, s, "biu_reads", rep.BIU.Reads)
	reconcile(t, s, "biu_writes", rep.BIU.Writes)
	reconcile(t, s, "fpu_dispatched", rep.FPU.Dispatched)
	reconcile(t, s, "fpu_issued", rep.FPU.Issued)
	reconcile(t, s, "fpu_retired", rep.FPU.Retired)
}

// An FP workload exercises the FPU columns that espresso leaves at zero.
func TestMetricsReconcileFPWorkload(t *testing.T) {
	w, err := GetWorkload("su2cor")
	if err != nil {
		t.Fatal(err)
	}
	s := obs.NewIntervalSampler(10_000)
	rep, err := Run(context.Background(), Baseline(), w, RunOptions{Budget: 100_000, Sink: s})
	if err != nil {
		t.Fatal(err)
	}
	if rep.FPU.Issued == 0 {
		t.Fatal("expected FP activity from su2cor")
	}
	reconcile(t, s, "fpu_dispatched", rep.FPU.Dispatched)
	reconcile(t, s, "fpu_issued", rep.FPU.Issued)
	reconcile(t, s, "fpu_retired", rep.FPU.Retired)
	reconcile(t, s, "stall_fpu", rep.Stalls[StallFPU])
}

// TestObservedRunMatchesPlainRun: the rendered report of an observed run
// must be byte-identical to an unobserved one — observability reads the
// model, never steers it.
func TestObservedRunMatchesPlainRun(t *testing.T) {
	w, err := GetWorkload("compress")
	if err != nil {
		t.Fatal(err)
	}
	base, err := Run(context.Background(), Baseline(), w, RunOptions{Budget: 80_000})
	if err != nil {
		t.Fatal(err)
	}
	sink := obs.Multi(obs.NewIntervalSampler(7_000), obs.NewTraceSink(0, 25_000))
	got, err := Run(context.Background(), Baseline(), w, RunOptions{Budget: 80_000, Sink: sink})
	if err != nil {
		t.Fatal(err)
	}
	if base.String() != got.String() {
		t.Errorf("observed report diverged:\nbase: %sgot:  %s", base, got)
	}
	if base.Cycles != got.Cycles || base.Instructions != got.Instructions {
		t.Errorf("cycle/instruction counts diverged: %d/%d vs %d/%d",
			base.Cycles, base.Instructions, got.Cycles, got.Instructions)
	}
}

// BenchmarkSimPlain / BenchmarkSimSampled bound the observability tax:
// compare ns/op to see the overhead of a 10k-cycle interval sampler (the
// nil-sink case must track BenchmarkSimPlain — that is the zero-cost claim
// at whole-simulation scale).
func BenchmarkSimPlain(b *testing.B) {
	w, err := GetWorkload("espresso")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(context.Background(), Baseline(), w, RunOptions{Budget: 100_000}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimSampled(b *testing.B) {
	w, err := GetWorkload("espresso")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(context.Background(), Baseline(), w, RunOptions{Budget: 100_000, Sink: obs.NewIntervalSampler(10_000)}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestRunObservedNilSinkEqualsRun(t *testing.T) {
	w, err := GetWorkload("li")
	if err != nil {
		t.Fatal(err)
	}
	a, err := Run(context.Background(), Small(), w, RunOptions{Budget: 50_000})
	if err != nil {
		t.Fatal(err)
	}
	// The same job through a Runner whose Observe factory declines to
	// observe (returns a nil sink) must be the identical simulation.
	r := NewRunner(1)
	r.Observe = func(harness.JobInfo) obs.Sink { return nil }
	b, err := r.Run(context.Background(), Small(), w, RunnerOptions{Budget: 50_000})
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("Runner.Run with a nil sink != Run:\n%s\n%s", a, b)
	}
}
