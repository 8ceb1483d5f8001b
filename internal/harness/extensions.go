package harness

import (
	"cmp"
	"context"
	"fmt"
	"io"
	"math"

	"aurora/internal/core"
	"aurora/internal/fpu"
	"aurora/internal/mmu"
	"aurora/internal/rbe"
	"aurora/internal/simfault"
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

// LatencyPoint is the three models' average CPI at one secondary memory
// latency. Faults counts benchmarks the averages exclude.
type LatencyPoint struct {
	Latency int
	CPI     map[string]float64 // per model
	Faults  int
}

// LatencyScaling runs the integer suite over a latency curve.
func LatencyScaling(ctx context.Context, r *Runner, opts Options, latencies []int) ([]LatencyPoint, error) {
	if len(latencies) == 0 {
		latencies = []int{9, 17, 35, 70, 100}
	}
	models := core.Models()
	var cfgs []core.Config
	for _, lat := range latencies {
		for _, model := range models {
			cfgs = append(cfgs, model.WithLatency(lat))
		}
	}
	suites, err := grid(ctx, r, opts, nil, workloads.Integer(), cfgs...)
	if err != nil {
		return nil, err
	}
	out := make([]LatencyPoint, len(latencies))
	for i, lat := range latencies {
		out[i] = LatencyPoint{Latency: lat, CPI: map[string]float64{}}
		for j, model := range models {
			s := suites[i*len(models)+j]
			out[i].CPI[model.Name] = s.avg()
			out[i].Faults += s.faults()
		}
	}
	return out, nil
}

// BranchFoldingResult compares CPI with and without the NEXT field. Faults
// counts benchmarks the averages exclude, across both arms.
type BranchFoldingResult struct {
	Model    string
	WithFold float64
	Without  float64
	Penalty  float64 // fractional CPI increase without folding
	Faults   int
}

// BranchFolding runs the ablation on the three models.
func BranchFolding(ctx context.Context, r *Runner, opts Options) ([]BranchFoldingResult, error) {
	models := core.Models()
	var cfgs []core.Config // folded and unfolded, per model
	for _, model := range models {
		ab := model
		ab.DisableBranchFolding = true
		cfgs = append(cfgs, model, ab)
	}
	suites, err := grid(ctx, r, opts, nil, workloads.Integer(), cfgs...)
	if err != nil {
		return nil, err
	}
	out := make([]BranchFoldingResult, len(models))
	for i, model := range models {
		with, without := suites[2*i], suites[2*i+1]
		out[i] = BranchFoldingResult{
			Model: model.Name, WithFold: with.avg(), Without: without.avg(),
			Penalty: (without.avg() - with.avg()) / with.avg(),
			Faults:  with.faults() + without.faults(),
		}
	}
	return out, nil
}

// WriteCachePoint is one write-cache size on the baseline. Faults counts
// benchmarks the average and the traffic ratio exclude.
type WriteCachePoint struct {
	Lines        int
	CostRBE      int
	AvgCPI       float64
	TrafficRatio float64
	Faults       int
}

// WriteCacheSweep substantiates §5.6's write-cache claim.
func WriteCacheSweep(ctx context.Context, r *Runner, opts Options) ([]WriteCachePoint, error) {
	var out []WriteCachePoint
	var cfgs []core.Config
	for _, lines := range []int{1, 2, 4, 8, 16} {
		cfg := core.Baseline()
		cfg.WriteCacheLines = lines
		cost, err := cfg.CostRBE()
		if err != nil {
			return nil, err
		}
		out = append(out, WriteCachePoint{Lines: lines, CostRBE: cost})
		cfgs = append(cfgs, cfg)
	}
	suites, err := grid(ctx, r, opts, nil, workloads.Integer(), cfgs...)
	if err != nil {
		return nil, err
	}
	for i, s := range suites {
		out[i].AvgCPI, out[i].TrafficRatio, out[i].Faults = s.avg(), storeTraffic(s), s.faults()
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
// instruction — lower is better). Faults counts benchmarks the average
// excludes.
type ClockedPoint struct {
	Model      string
	AvgCPI     float64
	CycleTime  float64
	TimePerIns float64
	Faults     int
}

// AreaAwareClock reruns the model comparison with cycle-time penalties.
func AreaAwareClock(ctx context.Context, r *Runner, opts Options) ([]ClockedPoint, error) {
	models := core.Models()
	suites, err := grid(ctx, r, opts, nil, workloads.Integer(), models...)
	if err != nil {
		return nil, err
	}
	out := make([]ClockedPoint, len(models))
	for i, model := range models {
		avg, ct := suites[i].avg(), CycleTimeFactor(model)
		out[i] = ClockedPoint{
			Model: model.Name, AvgCPI: avg, CycleTime: ct, TimePerIns: avg * ct,
			Faults: suites[i].faults(),
		}
	}
	return out, nil
}

// PrecisePoint compares the §3.1 FPU execution modes on one benchmark. A
// point where either mode faulted has Fault set (the first mode's fault
// when both did) and NaN values.
type PrecisePoint struct {
	Bench      string
	FastCPI    float64
	PreciseCPI float64
	Slowdown   float64
	Fault      *simfault.Fault
}

// PreciseExceptions runs the §3.1 trade-off the paper describes but does
// not quantify: precise mode transfers an instruction to the FPU only when
// it cannot be overtaken by a faulting one, serialising the coprocessor.
func PreciseExceptions(ctx context.Context, r *Runner, opts Options) ([]PrecisePoint, error) {
	prec := core.Baseline()
	f := prec.FPU.Normalize()
	f.Precise = true
	prec.FPU = f
	suites, err := grid(ctx, r, opts, nil, workloads.FP(), core.Baseline(), prec)
	if err != nil {
		return nil, err
	}
	fast, precise := suites[0], suites[1]
	out := make([]PrecisePoint, len(fast))
	for i, b := range fast {
		if fault := cmp.Or(b.Fault, precise[i].Fault); fault != nil {
			nan := math.NaN()
			out[i] = PrecisePoint{Bench: b.Bench, FastCPI: nan, PreciseCPI: nan, Slowdown: nan, Fault: fault}
			continue
		}
		out[i] = PrecisePoint{
			Bench: b.Bench, FastCPI: b.CPI, PreciseCPI: precise[i].CPI,
			Slowdown: precise[i].CPI/b.CPI - 1,
		}
	}
	return out, nil
}

// PrintPreciseExceptions renders the mode comparison. The average covers
// the healthy benchmarks and marks the faulted ones it excludes.
func PrintPreciseExceptions(w io.Writer, pts []PrecisePoint) {
	fmt.Fprintln(w, "Extension: §3.1 precise-exception mode vs the high-performance mode")
	fmt.Fprintf(w, "  %-10s %9s %11s %10s\n", "benchmark", "fast", "precise", "slowdown")
	var sum float64
	n, faults := 0, 0
	for _, p := range pts {
		if p.Fault != nil {
			fmt.Fprintf(w, "  %-10s %9s %11s %10s\n", p.Bench, "", "", p.Fault.Cell())
			faults++
			continue
		}
		fmt.Fprintf(w, "  %-10s %9.3f %11.3f %9.1f%%\n", p.Bench, p.FastCPI, p.PreciseCPI, 100*p.Slowdown)
		sum += p.Slowdown
		n++
	}
	fmt.Fprintf(w, "  %-10s %21s %9.1f%%%s\n", "average", "", 100*sum/float64(n), faultMark(faults))
}

// SchedulingPoint compares unscheduled and scheduled code on one model.
// Faults counts benchmarks the averages exclude, across both arms.
type SchedulingPoint struct {
	Model        string
	BaseCPI      float64
	SchedCPI     float64
	BaseLoadCPI  float64
	SchedLoadCPI float64
	Faults       int
}

// CompilerScheduling runs the §6 experiment the paper leaves open: "Better
// compiler scheduling could possibly remove some of this penalty" — the
// load stalls from the 3-cycle pipelined data cache, dominant in the large
// model.
func CompilerScheduling(ctx context.Context, r *Runner, opts Options) ([]SchedulingPoint, error) {
	models := core.Models()
	base, err := grid(ctx, r, opts, nil, workloads.Integer(), models...)
	if err != nil {
		return nil, err
	}
	sopts := opts
	sopts.Scheduled = true
	sched, err := grid(ctx, r, sopts, nil, workloads.Integer(), models...)
	if err != nil {
		return nil, err
	}
	out := make([]SchedulingPoint, len(models))
	for i, model := range models {
		// Load-stall averages pair each benchmark's base and scheduled runs,
		// so a fault in either arm drops the pair.
		var bl, sl float64
		n := 0
		for j, b := range base[i] {
			if b.Report == nil || sched[i][j].Report == nil {
				continue
			}
			bl += b.Report.StallCPI(core.StallLoad)
			sl += sched[i][j].Report.StallCPI(core.StallLoad)
			n++
		}
		out[i] = SchedulingPoint{
			Model: model.Name, BaseCPI: base[i].avg(), SchedCPI: sched[i].avg(),
			BaseLoadCPI: bl / float64(n), SchedLoadCPI: sl / float64(n), // NaN (0/0) with no healthy pair
			Faults: base[i].faults() + sched[i].faults(),
		}
	}
	return out, nil
}

// PrintCompilerScheduling renders the scheduling study.
func PrintCompilerScheduling(w io.Writer, pts []SchedulingPoint) {
	fmt.Fprintln(w, "Extension: §6's open question — compiler scheduling (list-scheduled blocks)")
	fmt.Fprintf(w, "  %-9s %9s %9s %12s %12s\n", "model", "baseCPI", "schedCPI", "load-stall", "sched-load")
	for _, p := range pts {
		fmt.Fprintf(w, "  %-9s %9.3f %9.3f %12.3f %12.3f%s\n",
			p.Model, p.BaseCPI, p.SchedCPI, p.BaseLoadCPI, p.SchedLoadCPI, faultMark(p.Faults))
	}
}

// VictimPoint is one configuration of the victim-cache study. Faults counts
// benchmarks the average and hit rate exclude; a suite with no healthy
// cell reports a NaN hit rate.
type VictimPoint struct {
	Model        string
	VictimLines  int
	AvgCPI       float64
	VictimHitPct float64
	Faults       int
}

// VictimCacheStudy adds Jouppi's other structure — the victim cache the
// Aurora III paper's prefetch reference [7] proposed alongside stream
// buffers — behind each model's direct-mapped data cache. FP workloads with
// strided multi-array access (hydro2d-like) are where conflict misses live,
// so the study runs the FP suite.
func VictimCacheStudy(ctx context.Context, r *Runner, opts Options) ([]VictimPoint, error) {
	var out []VictimPoint
	var cfgs []core.Config
	for _, model := range core.Models() {
		for _, lines := range []int{0, 4} {
			cfg := model
			cfg.VictimLines = lines
			out = append(out, VictimPoint{Model: model.Name, VictimLines: lines})
			cfgs = append(cfgs, cfg)
		}
	}
	suites, err := grid(ctx, r, opts, nil, workloads.FP(), cfgs...)
	if err != nil {
		return nil, err
	}
	for i, s := range suites {
		reps := s.reports()
		var probes, hits uint64
		for _, rep := range reps {
			probes += rep.VictimProbes
			hits += rep.VictimHits
		}
		pct := math.NaN()
		switch {
		case probes > 0:
			pct = 100 * float64(hits) / float64(probes)
		case len(reps) > 0:
			pct = 0 // healthy cells that never probed (no victim lines)
		}
		out[i].AvgCPI, out[i].VictimHitPct, out[i].Faults = s.avg(), pct, s.faults()
	}
	return out, nil
}

// PrintVictimCacheStudy renders the victim-cache study.
func PrintVictimCacheStudy(w io.Writer, pts []VictimPoint) {
	fmt.Fprintln(w, "Extension: a 4-line victim cache behind the D-cache (Jouppi [7], FP suite)")
	fmt.Fprintf(w, "  %-9s %7s %8s %9s\n", "model", "lines", "avgCPI", "vcHit%")
	for _, p := range pts {
		fmt.Fprintf(w, "  %-9s %7d %8.3f %9.1f%s\n", p.Model, p.VictimLines, p.AvgCPI, p.VictimHitPct, faultMark(p.Faults))
	}
}

// MMUPoint compares the flat-latency abstraction with the structured MMU.
// Faults counts benchmarks the average and rates exclude; a suite with no
// healthy cell reports NaN rates.
type MMUPoint struct {
	Label      string
	AvgCPI     float64
	TLBMissPct float64
	L2HitPct   float64
	Faults     int
}

// MMUSensitivity asks what the paper's flat "average 17 cycles" hides:
// it reruns the baseline with a structured MMU (64-entry TLB + 512 KB
// secondary cache at 10/60 cycles) and with a starved one (8-entry TLB,
// 64 KB L2).
func MMUSensitivity(ctx context.Context, r *Runner, opts Options) ([]MMUPoint, error) {
	out := []MMUPoint{
		{Label: "flat 17-cycle average (paper)"},
		{Label: "structured MMU (64-TLB, 512K L2, 10/60)"},
		{Label: "starved MMU (8-TLB, 64K L2, 10/60)"},
	}
	var cfgs []core.Config
	for _, mc := range []mmu.Config{{}, mmu.DefaultConfig(), {
		TLBEntries: 8, PageBytes: 4096, WalkLatency: 20,
		L2Bytes: 64 << 10, L2LineBytes: 32, L2HitLatency: 10, DRAMLatency: 60,
	}} {
		cfg := core.Baseline()
		cfg.MMU = mc
		cfgs = append(cfgs, cfg)
	}
	suites, err := grid(ctx, r, opts, nil, workloads.Integer(), cfgs...)
	if err != nil {
		return nil, err
	}
	for i, s := range suites {
		reps := s.reports()
		var st mmu.Stats
		for _, rep := range reps {
			st.TLBAccesses += rep.MMU.TLBAccesses
			st.TLBMisses += rep.MMU.TLBMisses
			st.L2Accesses += rep.MMU.L2Accesses
			st.L2Misses += rep.MMU.L2Misses
		}
		tlb, l2 := math.NaN(), math.NaN()
		if len(reps) > 0 {
			tlb, l2 = 100*st.TLBMissRate(), 100*st.L2HitRate()
		}
		out[i].AvgCPI, out[i].TLBMissPct, out[i].L2HitPct, out[i].Faults = s.avg(), tlb, l2, s.faults()
	}
	return out, nil
}

// PrintMMUSensitivity renders the MMU study.
func PrintMMUSensitivity(w io.Writer, pts []MMUPoint) {
	fmt.Fprintln(w, "Extension: behind the flat average — a structured MMU (TLB + L2)")
	fmt.Fprintf(w, "  %-42s %8s %9s %8s\n", "memory system", "avgCPI", "TLBmiss%", "L2hit%")
	for _, p := range pts {
		fmt.Fprintf(w, "  %-42s %8.3f %9.2f %8.1f%s\n", p.Label, p.AvgCPI, p.TLBMissPct, p.L2HitPct, faultMark(p.Faults))
	}
}

// --- rendering -------------------------------------------------------------

// PrintLatencyScaling renders the latency curve.
func PrintLatencyScaling(w io.Writer, pts []LatencyPoint) {
	fmt.Fprintln(w, "Extension: CPI vs secondary memory latency (integer suite)")
	fmt.Fprintf(w, "  %-8s %9s %9s %9s\n", "latency", "small", "baseline", "large")
	for _, p := range pts {
		fmt.Fprintf(w, "  %-8d %9.3f %9.3f %9.3f%s\n",
			p.Latency, p.CPI["small"], p.CPI["baseline"], p.CPI["large"], faultMark(p.Faults))
	}
}

// PrintBranchFolding renders the folding ablation.
func PrintBranchFolding(w io.Writer, rows []BranchFoldingResult) {
	fmt.Fprintln(w, "Extension: branch folding ablation (Figure 3 NEXT field)")
	fmt.Fprintf(w, "  %-9s %9s %9s %9s\n", "model", "folded", "unfolded", "penalty")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-9s %9.3f %9.3f %8.1f%%%s\n", r.Model, r.WithFold, r.Without, 100*r.Penalty, faultMark(r.Faults))
	}
}

// PrintWriteCacheSweep renders the write-cache sweep.
func PrintWriteCacheSweep(w io.Writer, pts []WriteCachePoint) {
	fmt.Fprintln(w, "Extension: write-cache size sweep (baseline model; §5.6's claim)")
	fmt.Fprintf(w, "  %-6s %9s %8s %9s\n", "lines", "cost/RBE", "avgCPI", "traffic")
	for _, p := range pts {
		fmt.Fprintf(w, "  %-6d %9d %8.3f %8.1f%%%s\n", p.Lines, p.CostRBE, p.AvgCPI, 100*p.TrafficRatio, faultMark(p.Faults))
	}
}

// PrintAreaAwareClock renders the clocked comparison.
func PrintAreaAwareClock(w io.Writer, pts []ClockedPoint) {
	fmt.Fprintln(w, "Extension: area-aware clocking (§4.2 / [12]) — relative time per instruction")
	fmt.Fprintf(w, "  %-9s %8s %10s %12s\n", "model", "avgCPI", "cycleTime", "time/instr")
	for _, p := range pts {
		fmt.Fprintf(w, "  %-9s %8.3f %10.3f %12.3f%s\n", p.Model, p.AvgCPI, p.CycleTime, p.TimePerIns, faultMark(p.Faults))
	}
}
