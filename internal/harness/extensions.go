package harness

import (
	"context"
	"fmt"
	"io"
	"math"

	"aurora/internal/core"
	"aurora/internal/fpu"
	"aurora/internal/mmu"
	"aurora/internal/rbe"
	"aurora/internal/workloads"
)

// Extensions beyond the paper's published figures: the studies the paper
// mentions but does not show, and the follow-on questions its conclusions
// raise.
//
//   - Fig9IQDual:       §5.9 says "dual issue places a greater demand on the
//     instruction queue; simulations (not shown) suggest five entries is
//     optimal" — this runs that simulation.
//   - LatencyScaling:   the introduction projects primary-miss penalties of
//     "as many as 100 clock cycles"; this extends Figure 4's two latency
//     points into a full curve.
//   - BranchFolding:    ablates the pre-decoded NEXT field (Figure 3),
//     measuring what branch folding is worth.
//   - WriteCacheSweep:  §5.6 claims "a write cache larger than in the
//     baseline model has little performance benefit" — the sweep that
//     substantiates it.
//   - MSHRDeepSweep:    extends Figure 7 beyond 4 MSHRs.
//   - AreaAwareClock:   §4.2 notes "increases in area will slow the clock
//     cycle", citing Olukotun's pipelined-cache analysis; this folds a
//     simple area→cycle-time model into the comparison, reporting relative
//     wall-clock performance instead of CPI.

// Fig9IQDual sweeps the FPU instruction queue under the dual-issue policy.
func Fig9IQDual(ctx context.Context, r *Runner, opts Options) ([]SweepPoint, error) {
	return fpSweep(ctx, r, opts, []int{1, 2, 3, 4, 5, 7},
		func(f *fpu.Config, v int) { f.Policy, f.InstrQueue = fpu.OutOfOrderDual, v },
		func(v int) int { return v * rbe.FPInstrQueueEntry })
}

// LatencyScaling sweeps the secondary memory latency on the three models.
type LatencyPoint struct {
	Latency int
	CPI     map[string]float64 // per model
}

// LatencyScaling runs the integer suite over a latency curve.
func LatencyScaling(ctx context.Context, r *Runner, opts Options, latencies []int) ([]LatencyPoint, error) {
	if len(latencies) == 0 {
		latencies = []int{9, 17, 35, 70, 100}
	}
	var out []LatencyPoint
	for _, lat := range latencies {
		p := LatencyPoint{Latency: lat, CPI: map[string]float64{}}
		for _, model := range core.Models() {
			_, _, _, avg, err := suiteCPI(ctx, r, model.WithLatency(lat), workloads.Integer(), opts)
			if err != nil {
				return nil, err
			}
			p.CPI[model.Name] = avg
		}
		out = append(out, p)
	}
	return out, nil
}

// BranchFoldingResult compares CPI with and without the NEXT field.
type BranchFoldingResult struct {
	Model    string
	WithFold float64
	Without  float64
	Penalty  float64 // fractional CPI increase without folding
}

// BranchFolding runs the ablation on the three models.
func BranchFolding(ctx context.Context, r *Runner, opts Options) ([]BranchFoldingResult, error) {
	var out []BranchFoldingResult
	for _, model := range core.Models() {
		_, _, _, with, err := suiteCPI(ctx, r, model, workloads.Integer(), opts)
		if err != nil {
			return nil, err
		}
		ab := model
		ab.DisableBranchFolding = true
		_, _, _, without, err := suiteCPI(ctx, r, ab, workloads.Integer(), opts)
		if err != nil {
			return nil, err
		}
		out = append(out, BranchFoldingResult{
			Model: model.Name, WithFold: with, Without: without,
			Penalty: (without - with) / with,
		})
	}
	return out, nil
}

// WriteCacheSweep sweeps the write-cache line count on the baseline.
type WriteCachePoint struct {
	Lines        int
	CostRBE      int
	AvgCPI       float64
	TrafficRatio float64
}

// WriteCacheSweep substantiates §5.6's write-cache claim.
func WriteCacheSweep(ctx context.Context, r *Runner, opts Options) ([]WriteCachePoint, error) {
	var out []WriteCachePoint
	for _, lines := range []int{1, 2, 4, 8, 16} {
		cfg := core.Baseline()
		cfg.WriteCacheLines = lines
		cost, err := cfg.CostRBE()
		if err != nil {
			return nil, err
		}
		per, _, _, avg, err := suiteCPI(ctx, r, cfg, workloads.Integer(), opts)
		if err != nil {
			return nil, err
		}
		var trans, stores uint64
		for _, b := range per {
			if b.Report == nil {
				continue // faulted cell
			}
			trans += b.Report.WCTransactions
			stores += b.Report.WCStores
		}
		ratio := math.NaN()
		if stores > 0 {
			ratio = float64(trans) / float64(stores)
		}
		out = append(out, WriteCachePoint{
			Lines: lines, CostRBE: cost, AvgCPI: avg,
			TrafficRatio: ratio,
		})
	}
	return out, nil
}

// MSHRDeepSweep extends Figure 7 to 8 MSHRs on every model.
func MSHRDeepSweep(ctx context.Context, r *Runner, opts Options) ([]Fig7Point, error) {
	return mshrSweep(ctx, r, opts, []int{1, 2, 4, 8})
}

// CycleTimeFactor is a simple area→cycle-time model in the spirit of the
// paper's [12] (Olukotun, Mudge, Brown: "Performance optimization of
// pipelined primary caches"): larger on-chip RAM blocks lengthen the
// critical path. Relative cycle time grows ~5% per doubling of the
// instruction cache beyond 1 KB and ~1.5% per doubling of the aggregate
// buffer area (write cache + prefetch + reorder buffer) beyond the small
// model's. Synthetic but monotone and gentle — enough to ask the paper's
// §4.2 question: does the big machine still win on wall-clock?
func CycleTimeFactor(cfg core.Config) float64 {
	f := 1.0
	f += 0.05 * math.Log2(float64(cfg.ICacheBytes)/1024)
	bufRBE := float64(cfg.WriteCacheLines*rbe.WriteCacheLine +
		cfg.PrefetchBuffers*cfg.PrefetchDepth*rbe.PrefetchLine +
		cfg.ReorderBuffer*rbe.ReorderBufferEntry)
	small := float64(2*rbe.WriteCacheLine + 2*4*rbe.PrefetchLine + 2*rbe.ReorderBufferEntry)
	if bufRBE > small {
		f += 0.015 * math.Log2(bufRBE/small)
	}
	return f
}

// ClockedPoint carries CPI, cycle time and their product (relative time per
// instruction — lower is better).
type ClockedPoint struct {
	Model      string
	AvgCPI     float64
	CycleTime  float64
	TimePerIns float64
}

// AreaAwareClock reruns the model comparison with cycle-time penalties.
func AreaAwareClock(ctx context.Context, r *Runner, opts Options) ([]ClockedPoint, error) {
	var out []ClockedPoint
	for _, model := range core.Models() {
		_, _, _, avg, err := suiteCPI(ctx, r, model, workloads.Integer(), opts)
		if err != nil {
			return nil, err
		}
		ct := CycleTimeFactor(model)
		out = append(out, ClockedPoint{
			Model: model.Name, AvgCPI: avg, CycleTime: ct, TimePerIns: avg * ct,
		})
	}
	return out, nil
}

// PrecisePoint compares the §3.1 FPU execution modes.
type PrecisePoint struct {
	Bench      string
	FastCPI    float64
	PreciseCPI float64
	Slowdown   float64
}

// PreciseExceptions runs the §3.1 trade-off the paper describes but does
// not quantify: precise mode transfers an instruction to the FPU only when
// it cannot be overtaken by a faulting one, serialising the coprocessor.
func PreciseExceptions(ctx context.Context, r *Runner, opts Options) ([]PrecisePoint, error) {
	suite := workloads.FP()
	return each(ctx, opts, len(suite), func(ctx context.Context, i int) (PrecisePoint, error) {
		w := suite[i]
		fast := core.Baseline()
		rep1, err := r.Run(ctx, fast, w, opts)
		f1, err := faultCell(opts, err)
		if err != nil {
			return PrecisePoint{}, err
		}
		prec := core.Baseline()
		f := prec.FPU.Normalize()
		f.Precise = true
		prec.FPU = f
		rep2, err := r.Run(ctx, prec, w, opts)
		f2, err := faultCell(opts, err)
		if err != nil {
			return PrecisePoint{}, err
		}
		if f1 != nil || f2 != nil {
			return PrecisePoint{
				Bench: w.Name, FastCPI: math.NaN(), PreciseCPI: math.NaN(),
				Slowdown: math.NaN(),
			}, nil
		}
		return PrecisePoint{
			Bench: w.Name, FastCPI: rep1.CPI(), PreciseCPI: rep2.CPI(),
			Slowdown: rep2.CPI()/rep1.CPI() - 1,
		}, nil
	})
}

// PrintPreciseExceptions renders the mode comparison.
func PrintPreciseExceptions(w io.Writer, pts []PrecisePoint) {
	fmt.Fprintln(w, "Extension: §3.1 precise-exception mode vs the high-performance mode")
	fmt.Fprintf(w, "  %-10s %9s %11s %10s\n", "benchmark", "fast", "precise", "slowdown")
	var sum float64
	for _, p := range pts {
		fmt.Fprintf(w, "  %-10s %9.3f %11.3f %9.1f%%\n", p.Bench, p.FastCPI, p.PreciseCPI, 100*p.Slowdown)
		sum += p.Slowdown
	}
	fmt.Fprintf(w, "  %-10s %21s %9.1f%%\n", "average", "", 100*sum/float64(len(pts)))
}

// SchedulingPoint compares unscheduled and scheduled code on one model.
type SchedulingPoint struct {
	Model        string
	BaseCPI      float64
	SchedCPI     float64
	BaseLoadCPI  float64
	SchedLoadCPI float64
}

// CompilerScheduling runs the §6 experiment the paper leaves open: "Better
// compiler scheduling could possibly remove some of this penalty" — the
// load stalls from the 3-cycle pipelined data cache, dominant in the large
// model.
func CompilerScheduling(ctx context.Context, r *Runner, opts Options) ([]SchedulingPoint, error) {
	var out []SchedulingPoint
	for _, model := range core.Models() {
		base, _, _, baseAvg, err := suiteCPI(ctx, r, model, workloads.Integer(), opts)
		if err != nil {
			return nil, err
		}
		sopts := opts
		sopts.Scheduled = true
		sched, _, _, schedAvg, err := suiteCPI(ctx, r, model, workloads.Integer(), sopts)
		if err != nil {
			return nil, err
		}
		// Load-stall averages pair each benchmark's base and scheduled runs,
		// so a fault in either arm drops the pair.
		var bl, sl float64
		n := 0
		for i := range base {
			if base[i].Report == nil || sched[i].Report == nil {
				continue
			}
			bl += base[i].Report.StallCPI(core.StallLoad)
			sl += sched[i].Report.StallCPI(core.StallLoad)
			n++
		}
		baseLoad, schedLoad := math.NaN(), math.NaN()
		if n > 0 {
			baseLoad, schedLoad = bl/float64(n), sl/float64(n)
		}
		out = append(out, SchedulingPoint{
			Model: model.Name, BaseCPI: baseAvg, SchedCPI: schedAvg,
			BaseLoadCPI: baseLoad, SchedLoadCPI: schedLoad,
		})
	}
	return out, nil
}

// PrintCompilerScheduling renders the scheduling study.
func PrintCompilerScheduling(w io.Writer, pts []SchedulingPoint) {
	fmt.Fprintln(w, "Extension: §6's open question — compiler scheduling (list-scheduled blocks)")
	fmt.Fprintf(w, "  %-9s %9s %9s %12s %12s\n", "model", "baseCPI", "schedCPI", "load-stall", "sched-load")
	for _, p := range pts {
		fmt.Fprintf(w, "  %-9s %9.3f %9.3f %12.3f %12.3f\n",
			p.Model, p.BaseCPI, p.SchedCPI, p.BaseLoadCPI, p.SchedLoadCPI)
	}
}

// VictimPoint is one configuration of the victim-cache study.
type VictimPoint struct {
	Model        string
	VictimLines  int
	AvgCPI       float64
	VictimHitPct float64
}

// VictimCacheStudy adds Jouppi's other structure — the victim cache the
// Aurora III paper's prefetch reference [7] proposed alongside stream
// buffers — behind each model's direct-mapped data cache. FP workloads with
// strided multi-array access (hydro2d-like) are where conflict misses live,
// so the study runs the FP suite.
func VictimCacheStudy(ctx context.Context, r *Runner, opts Options) ([]VictimPoint, error) {
	var out []VictimPoint
	for _, model := range core.Models() {
		for _, lines := range []int{0, 4} {
			cfg := model
			cfg.VictimLines = lines
			per, _, _, avg, err := suiteCPI(ctx, r, cfg, workloads.FP(), opts)
			if err != nil {
				return nil, err
			}
			var probes, hits uint64
			for _, b := range per {
				if b.Report == nil {
					continue // faulted cell
				}
				probes += b.Report.VictimProbes
				hits += b.Report.VictimHits
			}
			pct := 0.0
			if probes > 0 {
				pct = 100 * float64(hits) / float64(probes)
			}
			out = append(out, VictimPoint{
				Model: model.Name, VictimLines: lines,
				AvgCPI: avg, VictimHitPct: pct,
			})
		}
	}
	return out, nil
}

// PrintVictimCacheStudy renders the victim-cache study.
func PrintVictimCacheStudy(w io.Writer, pts []VictimPoint) {
	fmt.Fprintln(w, "Extension: a 4-line victim cache behind the D-cache (Jouppi [7], FP suite)")
	fmt.Fprintf(w, "  %-9s %7s %8s %9s\n", "model", "lines", "avgCPI", "vcHit%")
	for _, p := range pts {
		fmt.Fprintf(w, "  %-9s %7d %8.3f %9.1f\n", p.Model, p.VictimLines, p.AvgCPI, p.VictimHitPct)
	}
}

// MMUPoint compares the flat-latency abstraction with the structured MMU.
type MMUPoint struct {
	Label      string
	AvgCPI     float64
	TLBMissPct float64
	L2HitPct   float64
}

// MMUSensitivity asks what the paper's flat "average 17 cycles" hides:
// it reruns the baseline with a structured MMU (64-entry TLB + 512 KB
// secondary cache at 10/60 cycles) and with a starved one (8-entry TLB,
// 64 KB L2).
func MMUSensitivity(ctx context.Context, r *Runner, opts Options) ([]MMUPoint, error) {
	run := func(label string, mc mmu.Config) (MMUPoint, error) {
		cfg := core.Baseline()
		cfg.MMU = mc
		per, _, _, avg, err := suiteCPI(ctx, r, cfg, workloads.Integer(), opts)
		if err != nil {
			return MMUPoint{}, err
		}
		var st mmu.Stats
		for _, b := range per {
			if b.Report == nil {
				continue // faulted cell
			}
			st.TLBAccesses += b.Report.MMU.TLBAccesses
			st.TLBMisses += b.Report.MMU.TLBMisses
			st.L2Accesses += b.Report.MMU.L2Accesses
			st.L2Misses += b.Report.MMU.L2Misses
		}
		return MMUPoint{
			Label: label, AvgCPI: avg,
			TLBMissPct: 100 * st.TLBMissRate(),
			L2HitPct:   100 * st.L2HitRate(),
		}, nil
	}
	var out []MMUPoint
	p, err := run("flat 17-cycle average (paper)", mmu.Config{})
	if err != nil {
		return nil, err
	}
	out = append(out, p)
	p, err = run("structured MMU (64-TLB, 512K L2, 10/60)", mmu.DefaultConfig())
	if err != nil {
		return nil, err
	}
	out = append(out, p)
	p, err = run("starved MMU (8-TLB, 64K L2, 10/60)", mmu.Config{
		TLBEntries: 8, PageBytes: 4096, WalkLatency: 20,
		L2Bytes: 64 << 10, L2LineBytes: 32, L2HitLatency: 10, DRAMLatency: 60,
	})
	if err != nil {
		return nil, err
	}
	out = append(out, p)
	return out, nil
}

// PrintMMUSensitivity renders the MMU study.
func PrintMMUSensitivity(w io.Writer, pts []MMUPoint) {
	fmt.Fprintln(w, "Extension: behind the flat average — a structured MMU (TLB + L2)")
	fmt.Fprintf(w, "  %-42s %8s %9s %8s\n", "memory system", "avgCPI", "TLBmiss%", "L2hit%")
	for _, p := range pts {
		fmt.Fprintf(w, "  %-42s %8.3f %9.2f %8.1f\n", p.Label, p.AvgCPI, p.TLBMissPct, p.L2HitPct)
	}
}

// --- rendering -------------------------------------------------------------

// PrintLatencyScaling renders the latency curve.
func PrintLatencyScaling(w io.Writer, pts []LatencyPoint) {
	fmt.Fprintln(w, "Extension: CPI vs secondary memory latency (integer suite)")
	fmt.Fprintf(w, "  %-8s %9s %9s %9s\n", "latency", "small", "baseline", "large")
	for _, p := range pts {
		fmt.Fprintf(w, "  %-8d %9.3f %9.3f %9.3f\n",
			p.Latency, p.CPI["small"], p.CPI["baseline"], p.CPI["large"])
	}
}

// PrintBranchFolding renders the folding ablation.
func PrintBranchFolding(w io.Writer, rows []BranchFoldingResult) {
	fmt.Fprintln(w, "Extension: branch folding ablation (Figure 3 NEXT field)")
	fmt.Fprintf(w, "  %-9s %9s %9s %9s\n", "model", "folded", "unfolded", "penalty")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-9s %9.3f %9.3f %8.1f%%\n", r.Model, r.WithFold, r.Without, 100*r.Penalty)
	}
}

// PrintWriteCacheSweep renders the write-cache sweep.
func PrintWriteCacheSweep(w io.Writer, pts []WriteCachePoint) {
	fmt.Fprintln(w, "Extension: write-cache size sweep (baseline model; §5.6's claim)")
	fmt.Fprintf(w, "  %-6s %9s %8s %9s\n", "lines", "cost/RBE", "avgCPI", "traffic")
	for _, p := range pts {
		fmt.Fprintf(w, "  %-6d %9d %8.3f %8.1f%%\n", p.Lines, p.CostRBE, p.AvgCPI, 100*p.TrafficRatio)
	}
}

// PrintAreaAwareClock renders the clocked comparison.
func PrintAreaAwareClock(w io.Writer, pts []ClockedPoint) {
	fmt.Fprintln(w, "Extension: area-aware clocking (§4.2 / [12]) — relative time per instruction")
	fmt.Fprintf(w, "  %-9s %8s %10s %12s\n", "model", "avgCPI", "cycleTime", "time/instr")
	for _, p := range pts {
		fmt.Fprintf(w, "  %-9s %8.3f %10.3f %12.3f\n", p.Model, p.AvgCPI, p.CycleTime, p.TimePerIns)
	}
}
