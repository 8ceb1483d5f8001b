package aurora

import (
	"context"
	"fmt"
	"io"
	"os"
	"testing"

	"aurora/internal/harness"
	"aurora/internal/rbe"
)

// One sub-benchmark per registry artifact (internal/harness/artifacts.go):
// BenchmarkPaper/<name> for each table and figure of the paper's
// evaluation, BenchmarkExt/<name> for each extension study. Each iteration
// regenerates its artifact and the first prints the same text
// aurora-experiments prints for that section. `go test -bench . -benchtime
// 1x` regenerates everything exactly once; `-short` switches to reduced
// budgets.

func benchOpts() harness.Options {
	if testing.Short() {
		return harness.Quick()
	}
	return harness.Options{Budget: 400_000, SweepBudget: 250_000}
}

func BenchmarkPaper(b *testing.B) { benchArtifacts(b, harness.PaperArtifact) }

func BenchmarkExt(b *testing.B) { benchArtifacts(b, harness.ExtensionArtifact) }

// benchArtifacts renders every registry entry of the given kind. Each
// iteration gets a fresh runner, so it regenerates its artifact from
// scratch (memoization within one artifact is part of the engine being
// measured; reuse across iterations would measure nothing).
func benchArtifacts(b *testing.B, kind harness.ArtifactKind) {
	for _, a := range harness.Artifacts(kind) {
		a := a
		b.Run(a.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var w io.Writer = io.Discard
				if i == 0 {
					w = os.Stdout
				}
				if err := harness.Render(context.Background(), w, harness.NewRunner(0), benchOpts(), []harness.Artifact{a}, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
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
