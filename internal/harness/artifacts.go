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
// compute function, its table declarations and its CSV files; Render is the one
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
	// suffix, in the order Render emits them: the i-th file is the i-th
	// table's.
	CSV   []string
	build func(ctx context.Context, r *Runner, opts Options) ([]Table, error)
}

// artifact declares a registry entry: compute makes its typed result and
// tables declares that result's tables.
func artifact[T any](kind ArtifactKind, name string, compute func(context.Context, *Runner, Options) (T, error), tables func(T) []Table, csv ...string) Artifact {
	return Artifact{Name: name, Kind: kind, CSV: csv,
		build: func(ctx context.Context, r *Runner, opts Options) ([]Table, error) {
			v, err := compute(ctx, r, opts)
			if err != nil {
				return nil, err
			}
			return tables(v), nil
		}}
}

// registry lists every artifact in output order.
var registry = []Artifact{
	artifact(PaperArtifact, "fig1", func(context.Context, *Runner, Options) (Fig1Result, error) { return Fig1(), nil }, fig1Tables),
	artifact(PaperArtifact, "fig4", Fig4, fig4Tables, "fig4_issue_width"),
	artifact(PaperArtifact, "table3", Table3, (*RateTable).tables, "table3_iprefetch"),
	artifact(PaperArtifact, "table4", Table4, (*RateTable).tables, "table4_dprefetch"),
	artifact(PaperArtifact, "table5", Table5, (*RateTable).tables, "table5_writecache"),
	artifact(PaperArtifact, "traffic", WriteTraffic, trafficTables),
	artifact(PaperArtifact, "fig5", Fig5, fig5Tables, "fig5_prefetch_removal"),
	artifact(PaperArtifact, "fig6", Fig6, fig6Tables, "fig6_stalls"),
	artifact(PaperArtifact, "fig7", Fig7, fig7Tables, "fig7_mshr"),
	artifact(PaperArtifact, "fig8", Fig8, fig8Tables, "fig8_costperf"),
	artifact(PaperArtifact, "table6", Table6, table6Tables, "table6_fpu_policy"),
	artifact(PaperArtifact, "fig9queues", Fig9Queues, (*Fig9QueueResult).tables,
		"fig9a_instr_queue", "fig9b_load_queue", "fig9c_reorder_buffer"),
	artifact(PaperArtifact, "fig9latencies", Fig9Latencies, (*Fig9LatencyResult).tables,
		"fig9d_add_latency", "fig9e_mul_latency", "fig9f_div_latency", "fig9g_cvt_latency"),

	artifact(ExtensionArtifact, "fig9iqdual", Fig9IQDual, func(pts []SweepPoint) []Table {
		return []Table{sweepTable("Extension: FPU instruction queue under dual issue (§5.9 'not shown')", "entries", pts)}
	}),
	artifact(ExtensionArtifact, "latency", func(ctx context.Context, r *Runner, opts Options) ([]LatencyPoint, error) {
		return LatencyScaling(ctx, r, opts, nil)
	}, latencyTables),
	artifact(ExtensionArtifact, "folding", BranchFolding, foldingTables),
	artifact(ExtensionArtifact, "writecache", WriteCacheSweep, writeCacheTables),
	artifact(ExtensionArtifact, "mshrdeep", MSHRDeepSweep, fig7Tables),
	artifact(ExtensionArtifact, "clock", AreaAwareClock, clockTables),
	artifact(ExtensionArtifact, "mmu", MMUSensitivity, mmuTables),
	artifact(ExtensionArtifact, "victim", VictimCacheStudy, victimTables),
	artifact(ExtensionArtifact, "scheduling", CompilerScheduling, schedulingTables),
	artifact(ExtensionArtifact, "precise", PreciseExceptions, preciseTables),

	artifact(StandaloneArtifact, "bpred", func(ctx context.Context, r *Runner, opts Options) (*BPredSweepResult, error) {
		return PredictorSweep(ctx, r, core.Baseline(), opts)
	}, (*BPredSweepResult).tables, "bpred_sweep"),
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
	done, err := each(ctx, opts, len(arts), func(ctx context.Context, i int) ([]Table, error) {
		return arts[i].build(ctx, r, opts)
	})
	if err != nil {
		return err
	}
	div := strings.Repeat("-", 72)
	for i, tables := range done {
		if i > 0 && arts[i].Kind == PaperArtifact {
			fmt.Fprintln(w, div)
		}
		for _, t := range tables {
			t.Text(w)
		}
	}
	if emitCSV == nil {
		return nil
	}
	for i, tables := range done {
		for j, name := range arts[i].CSV {
			if err := emitCSV(name, tables[j].CSV); err != nil {
				return err
			}
		}
	}
	return nil
}
