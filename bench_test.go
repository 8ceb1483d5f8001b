package aurora

import (
	"context"
	"fmt"
	"os"
	"testing"

	"aurora/internal/harness"
	"aurora/internal/rbe"
)

// One benchmark per table and figure of the paper's evaluation. Each bench
// regenerates its artifact and prints the rows/series the paper reports;
// the b.N loop re-runs the regeneration (slow experiments settle at N=1).
// `go test -bench . -benchtime 1x` regenerates everything exactly once;
// `-short` switches to reduced budgets.

// benchRunner returns a fresh parallel runner per call so each b.N
// iteration regenerates its artifact from scratch (memoization within one
// figure is part of the engine being measured; reuse across iterations
// would measure nothing).
func benchRunner() *harness.Runner { return harness.NewRunner(0) }

func benchOpts() harness.Options {
	if testing.Short() {
		return harness.Quick()
	}
	return harness.Options{Budget: 400_000, SweepBudget: 250_000}
}

func BenchmarkFig1ClockTrend(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := harness.Fig1()
		if i == 0 {
			harness.PrintFig1(os.Stdout, r)
		}
		b.ReportMetric(100*r.GrowthRate, "%growth/yr")
	}
}

func BenchmarkTable2CostModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sc, _ := Cost(Small())
		bc, _ := Cost(Baseline())
		lc, _ := Cost(Large())
		if i == 0 {
			fmt.Printf("Table 2 model costs (dual issue): small %d, baseline %d, large %d RBE\n", sc, bc, lc)
			fmt.Printf("  large/baseline cost increase: %.1f%% (paper §5.1: 20.4%%)\n",
				100*(float64(lc)/float64(bc)-1))
			fmt.Printf("  recommended FPU cost: %d RBE (%d transistors)\n",
				FPUCost(DefaultFPU()), rbe.Transistors(FPUCost(DefaultFPU())))
		}
		b.ReportMetric(float64(lc)/float64(bc)-1, "cost-ratio")
	}
}

func BenchmarkFig4IssueWidth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := harness.Fig4(context.Background(), benchRunner(), benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			harness.PrintFig4(os.Stdout, pts)
		}
		// Headline metric: dual-issue CPI gain on the baseline at 17 cycles.
		var s1, s2 float64
		for _, p := range pts {
			if p.Model == "baseline" && p.Latency == 17 {
				if p.Issue == 1 {
					s1 = p.AvgCPI
				} else {
					s2 = p.AvgCPI
				}
			}
		}
		b.ReportMetric(100*(s1-s2)/s1, "%dual-gain@17")
	}
}

func BenchmarkTable3IPrefetch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t3, err := harness.Table3(context.Background(), benchRunner(), benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			harness.PrintRateTable(os.Stdout, t3)
		}
		b.ReportMetric(avgRate(t3), "%avg-hit")
	}
}

func BenchmarkTable4DPrefetch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t4, err := harness.Table4(context.Background(), benchRunner(), benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			harness.PrintRateTable(os.Stdout, t4)
		}
		b.ReportMetric(avgRate(t4), "%avg-hit")
	}
}

func BenchmarkTable5WriteCache(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t5, err := harness.Table5(context.Background(), benchRunner(), benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		wt, err := harness.WriteTraffic(context.Background(), benchRunner(), benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			harness.PrintRateTable(os.Stdout, t5)
			harness.PrintWriteTraffic(os.Stdout, wt)
		}
		b.ReportMetric(avgRate(t5), "%avg-hit")
	}
}

func avgRate(t *harness.RateTable) float64 {
	var sum float64
	var n int
	for _, row := range t.Rows {
		for _, v := range row {
			sum += v
			n++
		}
	}
	return sum / float64(n)
}

func BenchmarkFig5PrefetchRemoval(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := harness.Fig5(context.Background(), benchRunner(), benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			harness.PrintFig5(os.Stdout, pts)
		}
		for _, p := range pts {
			if p.Model == "baseline" && p.Latency == 17 {
				b.ReportMetric(100*p.Improvement, "%base-gain@17")
			}
		}
	}
}

func BenchmarkFig6StallBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := harness.Fig6(context.Background(), benchRunner(), benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			harness.PrintFig6(os.Stdout, rows)
		}
		b.ReportMetric(rows[0].Stalls[StallLSUBusy], "small-LSU-CPI")
	}
}

func BenchmarkFig7MSHRCount(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := harness.Fig7(context.Background(), benchRunner(), benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			harness.PrintFig7(os.Stdout, pts)
		}
		var m1, m4 float64
		for _, p := range pts {
			if p.Model == "small" && p.MSHRs == 1 {
				m1 = p.AvgCPI
			}
			if p.Model == "small" && p.MSHRs == 4 {
				m4 = p.AvgCPI
			}
		}
		b.ReportMetric(100*(m1-m4)/m1, "%small-1to4-gain")
	}
}

func BenchmarkFig8CostPerf(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := harness.Fig8(context.Background(), benchRunner(), benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			harness.PrintFig8(os.Stdout, pts)
		}
		b.ReportMetric(float64(len(pts)), "configs")
	}
}

func BenchmarkTable6FPIssuePolicy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := harness.Table6(context.Background(), benchRunner(), benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			harness.PrintTable6(os.Stdout, rows)
		}
		avg := rows[len(rows)-1]
		b.ReportMetric(100*(avg.InOrder-avg.Single)/avg.InOrder, "%single-gain")
		b.ReportMetric(100*(avg.InOrder-avg.Dual)/avg.InOrder, "%dual-gain")
	}
}

func BenchmarkFig9Queues(b *testing.B) {
	for i := 0; i < b.N; i++ {
		iq, lq, rob, err := harness.Fig9Queues(context.Background(), benchRunner(), benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			harness.PrintSweep(os.Stdout, "Figure 9(a): FPU instruction queue size", "entries", iq)
			harness.PrintSweep(os.Stdout, "Figure 9(b): FPU load queue size", "entries", lq)
			harness.PrintSweep(os.Stdout, "Figure 9(c): FPU reorder buffer size", "entries", rob)
		}
		b.ReportMetric(100*(iq[0].AvgCPI-iq[len(iq)-1].AvgCPI)/iq[0].AvgCPI, "%iq1to5-gain")
	}
}

func BenchmarkFig9Latencies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.Fig9Latencies(context.Background(), benchRunner(), benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			harness.PrintFig9Latencies(os.Stdout, res)
		}
		b.ReportMetric(100*(res.Add[len(res.Add)-1].AvgCPI-res.Add[0].AvgCPI)/res.Add[0].AvgCPI,
			"%add1to5-swing")
	}
}

func BenchmarkRecommendedFPU(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := Baseline()
		cfg.FPU = DefaultFPU()
		var sum float64
		for _, w := range FPSuite() {
			rep, err := Run(context.Background(), cfg, w, RunOptions{Budget: benchOpts().Budget})
			if err != nil {
				b.Fatal(err)
			}
			sum += rep.CPI()
		}
		avg := sum / float64(len(FPSuite()))
		if i == 0 {
			fmt.Printf("§5.11 recommended FPU: average FP-suite CPI %.3f at %d RBE\n",
				avg, FPUCost(DefaultFPU()))
		}
		b.ReportMetric(avg, "avgCPI")
	}
}

// BenchmarkSimulatorThroughput measures raw simulation speed (simulated
// instructions per wall-clock second) — an engineering metric, not a paper
// artifact.
func BenchmarkSimulatorThroughput(b *testing.B) {
	w, err := GetWorkload("espresso")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var instr uint64
	for i := 0; i < b.N; i++ {
		rep, err := Run(context.Background(), Baseline(), w, RunOptions{Budget: 300_000})
		if err != nil {
			b.Fatal(err)
		}
		instr += rep.Instructions
	}
	b.ReportMetric(float64(instr)/b.Elapsed().Seconds(), "instr/s")
}

// --- Extension benches: the studies the paper mentions but does not show,
// and ablations of this reproduction's design decisions (DESIGN.md §5).

func BenchmarkExtFig9IQDual(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := harness.Fig9IQDual(context.Background(), benchRunner(), benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			harness.PrintSweep(os.Stdout,
				"Extension: FPU instruction queue under dual issue (§5.9 'not shown')",
				"entries", pts)
		}
	}
}

func BenchmarkExtLatencyScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := harness.LatencyScaling(context.Background(), benchRunner(), benchOpts(), nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			harness.PrintLatencyScaling(os.Stdout, pts)
		}
		first, last := pts[0], pts[len(pts)-1]
		b.ReportMetric(last.CPI["baseline"]/first.CPI["baseline"], "base-slowdown")
	}
}

func BenchmarkExtBranchFolding(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := harness.BranchFolding(context.Background(), benchRunner(), benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			harness.PrintBranchFolding(os.Stdout, rows)
		}
		b.ReportMetric(100*rows[1].Penalty, "%base-penalty")
	}
}

func BenchmarkExtWriteCacheSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := harness.WriteCacheSweep(context.Background(), benchRunner(), benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			harness.PrintWriteCacheSweep(os.Stdout, pts)
		}
	}
}

func BenchmarkExtMSHRDeepSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := harness.MSHRDeepSweep(context.Background(), benchRunner(), benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			harness.PrintFig7(os.Stdout, pts)
		}
	}
}

func BenchmarkExtAreaAwareClock(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := harness.AreaAwareClock(context.Background(), benchRunner(), benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			harness.PrintAreaAwareClock(os.Stdout, pts)
		}
	}
}

func BenchmarkExtMMUSensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := harness.MMUSensitivity(context.Background(), benchRunner(), benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			harness.PrintMMUSensitivity(os.Stdout, pts)
		}
		b.ReportMetric(pts[len(pts)-1].AvgCPI-pts[0].AvgCPI, "starved-delta-CPI")
	}
}

func BenchmarkExtVictimCache(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := harness.VictimCacheStudy(context.Background(), benchRunner(), benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			harness.PrintVictimCacheStudy(os.Stdout, pts)
		}
	}
}

func BenchmarkExtCompilerScheduling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := harness.CompilerScheduling(context.Background(), benchRunner(), benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			harness.PrintCompilerScheduling(os.Stdout, pts)
		}
		large := pts[len(pts)-1]
		b.ReportMetric(100*(large.BaseLoadCPI-large.SchedLoadCPI)/large.BaseLoadCPI,
			"%large-load-stall-removed")
	}
}

func BenchmarkExtPreciseExceptions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := harness.PreciseExceptions(context.Background(), benchRunner(), benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			harness.PrintPreciseExceptions(os.Stdout, pts)
		}
		var sum float64
		for _, p := range pts {
			sum += p.Slowdown
		}
		b.ReportMetric(100*sum/float64(len(pts)), "%avg-slowdown")
	}
}
