// Command aurora-bench runs the pinned benchmark workload set — every
// SPEC92 stand-in kernel on each Table 1 machine model at a fixed
// instruction budget — and emits a machine-readable performance record
// (BENCH_*.json): simulated instructions per second, wall time, and
// allocation behaviour per simulated instruction.
//
// The workload set, budgets and run order are fixed so two runs of the same
// binary measure the same work; pass a previous output via -baseline to
// embed it and compute the speedup, giving every PR a perf trajectory:
//
//	go run ./cmd/aurora-bench -baseline bench/baseline_seed.json -out BENCH_pr3.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"time"

	"aurora"
	"aurora/internal/sample"
)

// benchModels is the pinned model set, in run order.
var benchModels = []string{"small", "baseline", "large", "pointE"}

// JobResult is one (model, workload) timing run.
type JobResult struct {
	Model        string  `json:"model"`
	Workload     string  `json:"workload"`
	Instructions uint64  `json:"instructions"`
	Cycles       uint64  `json:"cycles"`
	CPI          float64 `json:"cpi"`
	WallNS       int64   `json:"wall_ns"`
	SIPS         float64 `json:"sips"` // simulated instructions per second
}

// Totals aggregates the whole sweep.
type Totals struct {
	Jobs           int     `json:"jobs"`
	Instructions   uint64  `json:"instructions"`
	WallSeconds    float64 `json:"wall_seconds"`
	SIPS           float64 `json:"sips"`
	AllocsPerInstr float64 `json:"allocs_per_instr"`
	BytesPerInstr  float64 `json:"bytes_per_instr"`
	NumGC          uint32  `json:"num_gc"`
}

// CycleLoop is the steady-state cycle-loop microbenchmark: the per-cycle
// simulation step over a warmed-up processor, where the allocation count
// must be exactly zero.
type CycleLoop struct {
	Workload    string  `json:"workload"`
	Cycles      uint64  `json:"cycles"`
	NsPerCycle  float64 `json:"ns_per_cycle"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
}

// SampledJobResult is one (model, workload) sampled estimate, paired with
// the exact run of the same cell from this record's full sweep: the absolute
// CPI error and whether the reported confidence bound covered it. WallNS is
// the per-configuration replay time only; the one-per-workload checkpoint
// capture the replays share is aggregated in SampledTotals.
type SampledJobResult struct {
	Model                string  `json:"model"`
	Workload             string  `json:"workload"`
	Instructions         uint64  `json:"instructions"`
	DetailedInstructions uint64  `json:"detailed_instructions"`
	Windows              int     `json:"windows"`
	CPI                  float64 `json:"cpi"`
	CPIError             float64 `json:"cpi_err"`
	FullCPI              float64 `json:"full_cpi"`
	AbsError             float64 `json:"abs_error"`
	Covered              bool    `json:"covered"`
	WallNS               int64   `json:"wall_ns"`
	SIPS                 float64 `json:"sips"`
}

// SampledTotals aggregates the sampled sweep. SIPS counts the instructions
// each estimate stands for (the full budget, not just detailed windows) over
// the whole sampled wall time including checkpoint capture, so
// SpeedupVsFull is an honest end-to-end ratio against the full sweep.
type SampledTotals struct {
	Jobs            int     `json:"jobs"`
	Instructions    uint64  `json:"instructions"`
	WallSeconds     float64 `json:"wall_seconds"`
	CheckpointNS    int64   `json:"checkpoint_ns"`
	SIPS            float64 `json:"sips"`
	Covered         int     `json:"covered"`
	SpeedupVsFull   float64 `json:"speedup_vs_full"`
	DetailedPercent float64 `json:"detailed_percent"`
}

// BaselineSummary is the embedded record of a previous aurora-bench run
// that this run is compared against.
type BaselineSummary struct {
	Source         string  `json:"source"`
	SIPS           float64 `json:"sips"`
	WallSeconds    float64 `json:"wall_seconds"`
	AllocsPerInstr float64 `json:"allocs_per_instr"`
	BytesPerInstr  float64 `json:"bytes_per_instr"`
}

// File is the on-disk BENCH_*.json schema.
type File struct {
	Schema     string `json:"schema"`
	Generated  string `json:"generated"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Budget     uint64 `json:"budget"`
	// BPred is the canonical predictor key when the sweep ran with -bpred
	// (absent for the default branch-folding front end, keeping the schema
	// of older records unchanged).
	BPred string `json:"bpred,omitempty"`

	Models    []string    `json:"models"`
	Workloads []JobResult `json:"workloads"`
	Total     Totals      `json:"total"`
	CycleLoop *CycleLoop  `json:"cycle_loop,omitempty"`

	Sampled      []SampledJobResult `json:"sampled,omitempty"`
	SampledTotal *SampledTotals     `json:"sampled_total,omitempty"`

	Baseline *BaselineSummary `json:"baseline,omitempty"`
	// SpeedupVsBaseline is this run's total SIPS over the baseline's.
	SpeedupVsBaseline float64 `json:"speedup_vs_baseline,omitempty"`
}

// main delegates to run so every exit path unwinds through the same output
// path: an interrupted or faulted sweep still writes the jobs it finished.
func main() { os.Exit(run()) }

func run() int {
	out := flag.String("out", "-", "output path for the JSON record (- = stdout)")
	baselinePath := flag.String("baseline", "", "previous aurora-bench JSON to compare against")
	budget := flag.Uint64("budget", 300_000, "instruction budget per (model, workload) run")
	quick := flag.Bool("quick", false, "reduced budget (60k) for smoke runs")
	cycleLoop := flag.Bool("cycleloop", true, "run the steady-state cycle-loop microbenchmark")
	sampled := flag.Bool("sample", true, "also run the sampled-mode sweep and record its SIPS and per-cell CPI error next to the full sweep")
	bpredSpec := flag.String("bpred", "", "branch predictor applied to every benched configuration (e.g. tage; see docs/BRANCH-PREDICTION.md)")
	flag.Parse()
	if *quick {
		*budget = 60_000
	}
	if *bpredSpec != "" {
		bp, err := aurora.ParseBPred(*bpredSpec)
		if err != nil {
			return fail(err)
		}
		benchBPred = bp
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	f := &File{
		Schema:     "aurora-bench/v1",
		Generated:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Budget:     *budget,
		Models:     benchModels,
	}
	if !benchBPred.IsDefault() {
		f.BPred = benchBPred.Normalize().Key()
	}

	if *baselinePath != "" {
		base, err := readBaseline(*baselinePath)
		if err != nil {
			return fail(err)
		}
		f.Baseline = base
	}

	exit := 0
	if err := runSweep(ctx, f); err != nil {
		// Keep going: the record below still carries every job that
		// finished, so an interrupted sweep leaves a usable partial file.
		fmt.Fprintln(os.Stderr, "aurora-bench:", err)
		exit = 1
	}
	if exit == 0 && *sampled {
		if err := runSampledSweep(ctx, f); err != nil {
			fmt.Fprintln(os.Stderr, "aurora-bench: sampled:", err)
			exit = 1
		}
	}
	if exit == 0 && *cycleLoop {
		f.CycleLoop = runCycleLoop()
	}
	if f.Baseline != nil && f.Baseline.SIPS > 0 {
		f.SpeedupVsBaseline = f.Total.SIPS / f.Baseline.SIPS
	}

	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return fail(err)
	}
	data = append(data, '\n')
	if *out == "-" {
		os.Stdout.Write(data)
	} else {
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			return fail(err)
		}
	}
	fmt.Fprintf(os.Stderr, "aurora-bench: %d jobs, %d instructions in %.2fs → %.0f instr/s (%.3f allocs/instr)\n",
		f.Total.Jobs, f.Total.Instructions, f.Total.WallSeconds, f.Total.SIPS, f.Total.AllocsPerInstr)
	if f.Baseline != nil {
		fmt.Fprintf(os.Stderr, "aurora-bench: %.2fx vs baseline %s (%.0f instr/s)\n",
			f.SpeedupVsBaseline, f.Baseline.Source, f.Baseline.SIPS)
	}
	if f.SampledTotal != nil {
		fmt.Fprintf(os.Stderr, "aurora-bench: sampled sweep %.0f instr/s (%.2fx vs full), bound covered %d/%d cells, %.1f%% detailed\n",
			f.SampledTotal.SIPS, f.SampledTotal.SpeedupVsFull, f.SampledTotal.Covered, f.SampledTotal.Jobs, f.SampledTotal.DetailedPercent)
	}
	if f.CycleLoop != nil {
		fmt.Fprintf(os.Stderr, "aurora-bench: cycle loop %.1f ns/cycle, %.4f allocs/op over %d cycles\n",
			f.CycleLoop.NsPerCycle, f.CycleLoop.AllocsPerOp, f.CycleLoop.Cycles)
	}
	return exit
}

// runSweep executes the pinned job matrix serially (deterministic work,
// stable timing) and fills f.Workloads and f.Total. On error or cancellation
// the jobs completed so far remain in f, totalled, for a partial record.
func runSweep(ctx context.Context, f *File) (err error) {
	defer func() { fillTotals(f) }()
	names := aurora.WorkloadNames()

	// Warm up: assemble every workload once so parse/assembly cost is not
	// attributed to the first timed run.
	for _, wn := range names {
		w, err := aurora.GetWorkload(wn)
		if err != nil {
			return err
		}
		if _, err := w.Program(); err != nil {
			return err
		}
	}

	runtime.GC()
	runtime.ReadMemStats(&sweepBefore)
	sweepStart = time.Now()

	for _, mn := range f.Models {
		cfg, err := benchModel(mn)
		if err != nil {
			return err
		}
		for _, wn := range names {
			w, err := aurora.GetWorkload(wn)
			if err != nil {
				return err
			}
			start := time.Now()
			rep, err := aurora.Run(ctx, cfg, w, aurora.RunOptions{Budget: f.Budget})
			if err != nil {
				return fmt.Errorf("%s on %s: %w", wn, mn, err)
			}
			el := time.Since(start)
			f.Workloads = append(f.Workloads, JobResult{
				Model:        mn,
				Workload:     wn,
				Instructions: rep.Instructions,
				Cycles:       rep.Cycles,
				CPI:          rep.CPI(),
				WallNS:       el.Nanoseconds(),
				SIPS:         float64(rep.Instructions) / el.Seconds(),
			})
		}
	}

	return nil
}

// runSampledSweep re-runs the pinned job matrix in sampled mode,
// workload-major so all models of one workload replay a single captured
// functional pass, and pairs every estimate with the exact CPI the full
// sweep just measured for the same cell. It must run after runSweep.
func runSampledSweep(ctx context.Context, f *File) error {
	fullCPI := map[string]float64{}
	for _, r := range f.Workloads {
		fullCPI[r.Model+"/"+r.Workload] = r.CPI
	}
	p := sample.Params{}
	if f.Budget < sample.DefaultWarmUp+2*sample.DefaultInterval {
		// -quick budgets are smaller than the default warm-up; scale the
		// schedule down proportionally so at least ~10 windows still fit.
		p = sample.Params{
			WarmUp:     f.Budget / 6,
			Interval:   f.Budget / 12,
			Window:     f.Budget / 120,
			WindowWarm: f.Budget / 360,
		}
	}
	p = p.Normalize()
	start := time.Now()
	var checkpointNS int64
	var instr, detailed uint64
	covered := 0
	for _, wn := range aurora.WorkloadNames() {
		w, err := aurora.GetWorkload(wn)
		if err != nil {
			return err
		}
		cpStart := time.Now()
		cp, err := sample.NewCheckpoint(ctx, w, f.Budget, p)
		if err != nil {
			return fmt.Errorf("%s: checkpoint: %w", wn, err)
		}
		checkpointNS += time.Since(cpStart).Nanoseconds()
		for _, mn := range f.Models {
			cfg, err := benchModel(mn)
			if err != nil {
				return err
			}
			jobStart := time.Now()
			rep, err := cp.Run(ctx, cfg, f.Budget, p)
			if err != nil {
				return fmt.Errorf("%s on %s (sampled): %w", wn, mn, err)
			}
			el := time.Since(jobStart)
			full, ok := fullCPI[mn+"/"+wn]
			if !ok {
				return fmt.Errorf("%s on %s: no full-sweep CPI to compare against", wn, mn)
			}
			absErr := rep.CPI - full
			if absErr < 0 {
				absErr = -absErr
			}
			j := SampledJobResult{
				Model:                mn,
				Workload:             wn,
				Instructions:         rep.Instructions,
				DetailedInstructions: rep.DetailedInstructions,
				Windows:              rep.Windows,
				CPI:                  rep.CPI,
				CPIError:             rep.CPIError,
				FullCPI:              full,
				AbsError:             absErr,
				Covered:              absErr <= rep.CPIError,
				WallNS:               el.Nanoseconds(),
				SIPS:                 float64(rep.Instructions) / el.Seconds(),
			}
			if j.Covered {
				covered++
			}
			instr += rep.Instructions
			detailed += rep.DetailedInstructions
			f.Sampled = append(f.Sampled, j)
		}
	}
	wall := time.Since(start)
	t := &SampledTotals{
		Jobs:         len(f.Sampled),
		Instructions: instr,
		WallSeconds:  wall.Seconds(),
		CheckpointNS: checkpointNS,
		SIPS:         float64(instr) / wall.Seconds(),
		Covered:      covered,
	}
	if f.Total.SIPS > 0 {
		t.SpeedupVsFull = t.SIPS / f.Total.SIPS
	}
	if instr > 0 {
		t.DetailedPercent = 100 * float64(detailed) / float64(instr)
	}
	f.SampledTotal = t
	return nil
}

// sweepBefore / sweepStart let fillTotals aggregate however far the sweep
// got, so the deferred totals cover partial runs too.
var (
	sweepBefore runtime.MemStats
	sweepStart  time.Time
)

// benchBPred is the -bpred predictor applied to every benched model (the
// zero value keeps the paper's branch-folding front end).
var benchBPred aurora.BPredConfig

// benchModel resolves a model name with the -bpred predictor applied.
func benchModel(name string) (aurora.Config, error) {
	cfg, err := aurora.ModelByName(name)
	if err != nil {
		return aurora.Config{}, err
	}
	return cfg.WithBPred(benchBPred), nil
}

// fillTotals aggregates the completed jobs into f.Total.
func fillTotals(f *File) {
	if len(f.Workloads) == 0 || sweepStart.IsZero() {
		return
	}
	wall := time.Since(sweepStart)
	var after runtime.MemStats
	runtime.ReadMemStats(&after)

	var instr uint64
	for _, r := range f.Workloads {
		instr += r.Instructions
	}
	f.Total = Totals{
		Jobs:           len(f.Workloads),
		Instructions:   instr,
		WallSeconds:    wall.Seconds(),
		SIPS:           float64(instr) / wall.Seconds(),
		AllocsPerInstr: float64(after.Mallocs-sweepBefore.Mallocs) / float64(instr),
		BytesPerInstr:  float64(after.TotalAlloc-sweepBefore.TotalAlloc) / float64(instr),
		NumGC:          after.NumGC - sweepBefore.NumGC,
	}
}

// readBaseline loads a previous aurora-bench output and summarises it.
func readBaseline(path string) (*BaselineSummary, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var prev File
	if err := json.Unmarshal(data, &prev); err != nil {
		return nil, fmt.Errorf("parsing baseline %s: %w", path, err)
	}
	return &BaselineSummary{
		Source:         path,
		SIPS:           prev.Total.SIPS,
		WallSeconds:    prev.Total.WallSeconds,
		AllocsPerInstr: prev.Total.AllocsPerInstr,
		BytesPerInstr:  prev.Total.BytesPerInstr,
	}, nil
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "aurora-bench:", err)
	return 1
}
