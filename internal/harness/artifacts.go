package harness

import (
	"context"
	"fmt"
	"io"
	"slices"
	"strings"

	"aurora/internal/core"
)

// The artifact registry: every table, figure and study the repository
// regenerates, declared once and in output order. Each entry names its
// compute function, its text printer and its CSV files; Render is the one
// loop over the entries, and every surface — aurora-experiments' text and
// CSV output, aurora-serve's /v1/figures/{name} — selects from this list.

// ArtifactKind says where an artifact is printed.
type ArtifactKind int

const (
	// PaperArtifact is a table or figure of the paper's evaluation. Paper
	// sections print in registry order, separated by 72-dash dividers.
	PaperArtifact ArtifactKind = iota
	// ExtensionArtifact is a study beyond the published figures. The
	// extensions follow the paper sections with no divider.
	ExtensionArtifact
	// StandaloneArtifact is rendered only when selected by name (the
	// predictor sweep, aurora-experiments -bpred-sweep).
	StandaloneArtifact
)

// Artifact is one registry entry.
type Artifact struct {
	// Name is the artifact's handle: the /v1/figures/{name} path element.
	Name string
	Kind ArtifactKind
	// CSV lists the CSV files the artifact writes, without the .csv
	// suffix, in the order Render emits them.
	CSV   []string
	build func(ctx context.Context, r *Runner, opts Options) (built, error)
}

// built is a computed artifact: its text printer and one generator per
// CSV file, in Artifact.CSV order.
type built struct {
	print func(io.Writer)
	csv   []func(io.Writer) error
}

// csvFile is one named CSV output of an artifact whose result is a T.
type csvFile[T any] struct {
	name  string
	write func(io.Writer, T) error
}

func file[T any](name string, write func(io.Writer, T) error) csvFile[T] {
	return csvFile[T]{name, write}
}

// artifact declares a registry entry from its typed parts.
func artifact[T any](kind ArtifactKind, name string, compute func(context.Context, *Runner, Options) (T, error), print func(io.Writer, T), files ...csvFile[T]) Artifact {
	a := Artifact{Name: name, Kind: kind}
	for _, f := range files {
		a.CSV = append(a.CSV, f.name)
	}
	a.build = func(ctx context.Context, r *Runner, opts Options) (built, error) {
		v, err := compute(ctx, r, opts)
		if err != nil {
			return built{}, err
		}
		b := built{print: func(w io.Writer) { print(w, v) }}
		for _, f := range files {
			b.csv = append(b.csv, func(w io.Writer) error { return f.write(w, v) })
		}
		return b, nil
	}
	return a
}

// fig9Queues holds Figure 9's queue panels (a)-(c), one result for the
// three sweeps Fig9Queues returns.
type fig9Queues [3][]SweepPoint

// registry lists every artifact in output order.
var registry = []Artifact{
	artifact(PaperArtifact, "fig1", func(context.Context, *Runner, Options) (Fig1Result, error) { return Fig1(), nil }, PrintFig1),
	artifact(PaperArtifact, "fig4", Fig4, PrintFig4, file("fig4_issue_width", Fig4CSV)),
	artifact(PaperArtifact, "table3", Table3, PrintRateTable, file("table3_iprefetch", RateTableCSV)),
	artifact(PaperArtifact, "table4", Table4, PrintRateTable, file("table4_dprefetch", RateTableCSV)),
	artifact(PaperArtifact, "table5", Table5, PrintRateTable, file("table5_writecache", RateTableCSV)),
	artifact(PaperArtifact, "traffic", WriteTraffic, PrintWriteTraffic),
	artifact(PaperArtifact, "fig5", Fig5, PrintFig5, file("fig5_prefetch_removal", Fig5CSV)),
	artifact(PaperArtifact, "fig6", Fig6, PrintFig6, file("fig6_stalls", Fig6CSV)),
	artifact(PaperArtifact, "fig7", Fig7, PrintFig7, file("fig7_mshr", Fig7CSV)),
	artifact(PaperArtifact, "fig8", Fig8, PrintFig8, file("fig8_costperf", Fig8CSV)),
	artifact(PaperArtifact, "table6", Table6, PrintTable6, file("table6_fpu_policy", Table6CSV)),
	artifact(PaperArtifact, "fig9queues",
		func(ctx context.Context, r *Runner, opts Options) (fig9Queues, error) {
			iq, lq, rob, err := Fig9Queues(ctx, r, opts)
			return fig9Queues{iq, lq, rob}, err
		},
		func(w io.Writer, q fig9Queues) {
			PrintSweep(w, "Figure 9(a): FPU instruction queue size", "entries", q[0])
			PrintSweep(w, "Figure 9(b): FPU load queue size", "entries", q[1])
			PrintSweep(w, "Figure 9(c): FPU reorder buffer size", "entries", q[2])
		},
		file("fig9a_instr_queue", func(w io.Writer, q fig9Queues) error { return SweepCSV(w, "entries", q[0]) }),
		file("fig9b_load_queue", func(w io.Writer, q fig9Queues) error { return SweepCSV(w, "entries", q[1]) }),
		file("fig9c_reorder_buffer", func(w io.Writer, q fig9Queues) error { return SweepCSV(w, "entries", q[2]) })),
	artifact(PaperArtifact, "fig9latencies", Fig9Latencies, PrintFig9Latencies,
		file("fig9d_add_latency", func(w io.Writer, r *Fig9LatencyResult) error { return SweepCSV(w, "cycles", r.Add) }),
		file("fig9e_mul_latency", func(w io.Writer, r *Fig9LatencyResult) error { return SweepCSV(w, "cycles", r.Mul) }),
		file("fig9f_div_latency", func(w io.Writer, r *Fig9LatencyResult) error { return SweepCSV(w, "cycles", r.Div) }),
		file("fig9g_cvt_latency", func(w io.Writer, r *Fig9LatencyResult) error { return SweepCSV(w, "cycles", r.Cvt) })),

	artifact(ExtensionArtifact, "fig9iqdual", Fig9IQDual, func(w io.Writer, pts []SweepPoint) {
		PrintSweep(w, "Extension: FPU instruction queue under dual issue (§5.9 'not shown')", "entries", pts)
	}),
	artifact(ExtensionArtifact, "latency", func(ctx context.Context, r *Runner, opts Options) ([]LatencyPoint, error) {
		return LatencyScaling(ctx, r, opts, nil)
	}, PrintLatencyScaling),
	artifact(ExtensionArtifact, "folding", BranchFolding, PrintBranchFolding),
	artifact(ExtensionArtifact, "writecache", WriteCacheSweep, PrintWriteCacheSweep),
	artifact(ExtensionArtifact, "mshrdeep", MSHRDeepSweep, PrintFig7),
	artifact(ExtensionArtifact, "clock", AreaAwareClock, PrintAreaAwareClock),
	artifact(ExtensionArtifact, "mmu", MMUSensitivity, PrintMMUSensitivity),
	artifact(ExtensionArtifact, "victim", VictimCacheStudy, PrintVictimCacheStudy),
	artifact(ExtensionArtifact, "scheduling", CompilerScheduling, PrintCompilerScheduling),
	artifact(ExtensionArtifact, "precise", PreciseExceptions, PrintPreciseExceptions),

	artifact(StandaloneArtifact, "bpred", func(ctx context.Context, r *Runner, opts Options) (*BPredSweepResult, error) {
		return PredictorSweep(ctx, r, core.Baseline(), opts)
	}, PrintBPredSweep, file("bpred_sweep", BPredSweepCSV)),
}

// Artifacts returns the registry entries of the given kinds — every entry
// when no kind is given — in registry order.
func Artifacts(kinds ...ArtifactKind) []Artifact {
	var out []Artifact
	for _, a := range registry {
		if len(kinds) == 0 || slices.Contains(kinds, a.Kind) {
			out = append(out, a)
		}
	}
	return out
}

// ArtifactNamed looks an artifact up by name.
func ArtifactNamed(name string) (Artifact, bool) {
	for _, a := range registry {
		if a.Name == name {
			return a, true
		}
	}
	return Artifact{}, false
}

// Render computes arts concurrently through the runner — sharing its memo
// table, so configurations that recur across artifacts simulate once — and
// then prints each one's text to w in the given order, a 72-dash divider
// before every paper section but the first. When emitCSV is non-nil it is
// handed each artifact's CSV files by name, after all text is printed.
// Nothing is printed unless every artifact computed, and the output is
// byte-identical for any worker count.
func Render(ctx context.Context, w io.Writer, r *Runner, opts Options, arts []Artifact, emitCSV func(name string, gen func(io.Writer) error) error) error {
	done, err := each(ctx, opts, len(arts), func(ctx context.Context, i int) (built, error) {
		return arts[i].build(ctx, r, opts)
	})
	if err != nil {
		return err
	}
	div := strings.Repeat("-", 72)
	for i, b := range done {
		if i > 0 && arts[i].Kind == PaperArtifact {
			fmt.Fprintln(w, div)
		}
		b.print(w)
	}
	if emitCSV == nil {
		return nil
	}
	for i, b := range done {
		for j, gen := range b.csv {
			if err := emitCSV(arts[i].CSV[j], gen); err != nil {
				return err
			}
		}
	}
	return nil
}
