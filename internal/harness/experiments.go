package harness

import (
	"context"
	"fmt"
	"math"

	"aurora/internal/core"
	"aurora/internal/fpu"
	"aurora/internal/simfault"
	"aurora/internal/workloads"
)

// ---------------------------------------------------------------------------
// Figure 1 — ISSCC single-chip microprocessor clock frequencies, 1983-1994,
// and the ~40%/year growth trend the paper's introduction argues from.

// ClockPoint is one ISSCC data point (year, fastest reported clock in MHz).
type ClockPoint struct {
	Year int
	MHz  float64
}

// Fig1Data is a representative reconstruction of the ISSCC frequency data
// behind Figure 1 (fastest and slowest single-chip CPUs per conference).
var Fig1Data = []ClockPoint{
	{1984, 12}, {1985, 16}, {1986, 20}, {1987, 27}, {1988, 36},
	{1989, 50}, {1990, 66}, {1991, 90}, {1992, 150}, {1993, 200},
	{1994, 300},
}

// Fig1Result carries the fitted exponential growth rate.
type Fig1Result struct {
	Points        []ClockPoint
	GrowthRate    float64 // fractional increase per year (paper: ~0.40)
	DoublingYears float64
}

// Fig1 fits the clock-frequency trend (least squares on log frequency).
func Fig1() Fig1Result {
	n := float64(len(Fig1Data))
	var sx, sy, sxx, sxy float64
	for _, p := range Fig1Data {
		x := float64(p.Year - 1984)
		y := math.Log(p.MHz)
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
	}
	slope := (n*sxy - sx*sy) / (n*sxx - sx*sx)
	rate := math.Exp(slope) - 1
	return Fig1Result{
		Points:        Fig1Data,
		GrowthRate:    rate,
		DoublingYears: math.Log(2) / slope,
	}
}

// ---------------------------------------------------------------------------
// Figure 4 — CPI vs cost for single and dual issue at 17- and 35-cycle
// secondary latency: the paper's 12 headline configurations.

// Fig4Point is one configuration's position on the cost/performance plane.
type Fig4Point struct {
	Model    string
	Issue    int
	Latency  int
	CostRBE  int
	MinCPI   float64
	MaxCPI   float64
	AvgCPI   float64
	PerBench []BenchCPI
}

// Fig4 runs the 12 configurations over the integer suite.
func Fig4(ctx context.Context, r *Runner, opts Options) ([]Fig4Point, error) {
	var pts []Fig4Point
	var cfgs []core.Config
	for _, latency := range []int{17, 35} {
		for _, issue := range []int{1, 2} {
			for _, model := range core.Models() {
				cfg := model.WithLatency(latency).WithIssueWidth(issue)
				cost, err := cfg.CostRBE()
				if err != nil {
					return nil, err
				}
				pts = append(pts, Fig4Point{Model: model.Name, Issue: issue, Latency: latency, CostRBE: cost})
				cfgs = append(cfgs, cfg)
			}
		}
	}
	suites, err := grid(ctx, r, opts, nil, workloads.Integer(), cfgs...)
	if err != nil {
		return nil, err
	}
	for i, s := range suites {
		pts[i].MinCPI, pts[i].MaxCPI, pts[i].AvgCPI = s.stats()
		pts[i].PerBench = s
	}
	return pts, nil
}

// ---------------------------------------------------------------------------
// Tables 3, 4, 5 — per-benchmark prefetch and write-cache hit rates for the
// three models (dual issue, 17-cycle latency, as in the paper's base runs).

// RateTable holds a models × benchmarks percentage table.
type RateTable struct {
	Name    string
	Benches []string
	Models  []string
	// Rows[model][bench] in percent; a faulted cell holds NaN.
	Rows [][]float64
	// Faults[model][bench] is non-nil for a faulted cell. The slice is nil
	// when every cell is healthy.
	Faults [][]*simfault.Fault
}

func rateTable(ctx context.Context, r *Runner, name string, opts Options, metric func(*core.Report) float64) (*RateTable, error) {
	ws := workloads.Integer()
	models := core.Models()
	suites, err := grid(ctx, r, opts, nil, ws, models...)
	if err != nil {
		return nil, err
	}
	t := &RateTable{Name: name}
	for _, w := range ws {
		t.Benches = append(t.Benches, w.Name)
	}
	anyFault := false
	for i, s := range suites {
		t.Models = append(t.Models, models[i].Name)
		row := make([]float64, len(s))
		faults := make([]*simfault.Fault, len(s))
		for j, b := range s {
			row[j], faults[j] = math.NaN(), b.Fault
			if b.Report != nil {
				row[j] = 100 * metric(b.Report)
			}
		}
		anyFault = anyFault || s.faults() > 0
		t.Rows = append(t.Rows, row)
		t.Faults = append(t.Faults, faults)
	}
	if !anyFault {
		t.Faults = nil
	}
	return t, nil
}

// Table3 regenerates the integer instruction-stream prefetch hit rates.
func Table3(ctx context.Context, r *Runner, opts Options) (*RateTable, error) {
	return rateTable(ctx, r, "Table 3: Integer I Prefetch Hit Rate %", opts,
		(*core.Report).IPrefetchHitRate)
}

// Table4 regenerates the integer data-stream prefetch hit rates.
func Table4(ctx context.Context, r *Runner, opts Options) (*RateTable, error) {
	return rateTable(ctx, r, "Table 4: Integer D Prefetch Hit Rate %", opts,
		(*core.Report).DPrefetchHitRate)
}

// Table5 regenerates the write-cache hit rates (loads + stores).
func Table5(ctx context.Context, r *Runner, opts Options) (*RateTable, error) {
	return rateTable(ctx, r, "Table 5: Integer Write Cache Hit Rate %", opts,
		(*core.Report).WriteCacheHitRate)
}

// TrafficRow is one model's §5.5 store-transaction ratio. Faults counts
// benchmarks the ratio excludes; a model with no healthy cells reports NaN.
type TrafficRow struct {
	Model  string
	Ratio  float64
	Faults int
}

// WriteTraffic reports §5.5's store-transaction ratio per model, in model
// order (paper: 44% small, 30% base, 22% large).
func WriteTraffic(ctx context.Context, r *Runner, opts Options) ([]TrafficRow, error) {
	models := core.Models()
	suites, err := grid(ctx, r, opts, nil, workloads.Integer(), models...)
	if err != nil {
		return nil, err
	}
	rows := make([]TrafficRow, len(suites))
	for i, s := range suites {
		rows[i] = TrafficRow{Model: models[i].Name, Ratio: storeTraffic(s), Faults: s.faults()}
	}
	return rows, nil
}

// storeTraffic is a suite's store transactions per store instruction over
// its healthy cells (NaN when they retired no store).
func storeTraffic(s suite) float64 {
	var trans, stores uint64
	for _, rep := range s.reports() {
		trans += rep.WCTransactions
		stores += rep.WCStores
	}
	if stores == 0 {
		return math.NaN()
	}
	return float64(trans) / float64(stores)
}

// ---------------------------------------------------------------------------
// Figure 5 — the effect of removing the prefetch buffers (dual issue).

// Fig5Point pairs a model+latency with and without stream buffers.
// Statistics cover the healthy benchmarks only; Faults counts the cells
// excluded across both ablation arms (NaN statistics when a whole arm
// faulted).
type Fig5Point struct {
	Model       string
	Latency     int
	CostRBE     int
	WithPF      float64 // average CPI
	WithoutPF   float64
	MaxWithPF   float64
	MaxWithout  float64
	Improvement float64 // (without-with)/without
	Faults      int
}

// Fig5 runs the ablation.
func Fig5(ctx context.Context, r *Runner, opts Options) ([]Fig5Point, error) {
	var pts []Fig5Point
	var cfgs []core.Config // with and without prefetch, per point
	for _, latency := range []int{17, 35} {
		for _, model := range core.Models() {
			on := model.WithLatency(latency)
			cost, err := on.CostRBE()
			if err != nil {
				return nil, err
			}
			pts = append(pts, Fig5Point{Model: model.Name, Latency: latency, CostRBE: cost})
			cfgs = append(cfgs, on, on.WithoutPrefetch())
		}
	}
	suites, err := grid(ctx, r, opts, nil, workloads.Integer(), cfgs...)
	if err != nil {
		return nil, err
	}
	for i := range pts {
		on, off := suites[2*i], suites[2*i+1]
		p := &pts[i]
		_, p.MaxWithPF, p.WithPF = on.stats()
		_, p.MaxWithout, p.WithoutPF = off.stats()
		p.Improvement = (p.WithoutPF - p.WithPF) / p.WithoutPF
		p.Faults = on.faults() + off.faults()
	}
	return pts, nil
}

// ---------------------------------------------------------------------------
// Figure 6 — stall-penalty breakdown per model (integer suite, dual, 17).

// Fig6Row is one model's CPI decomposition. Faults counts benchmarks
// excluded from the averages; a row with no healthy benchmark reports NaN.
type Fig6Row struct {
	Model    string
	BaseCPI  float64 // issue-limited component (CPI minus stalls)
	Stalls   [core.NumStallCauses]float64
	TotalCPI float64
	Faults   int
}

// Fig6 computes the average stall breakdown.
func Fig6(ctx context.Context, r *Runner, opts Options) ([]Fig6Row, error) {
	models := core.Models()
	suites, err := grid(ctx, r, opts, nil, workloads.Integer(), models...)
	if err != nil {
		return nil, err
	}
	rows := make([]Fig6Row, len(suites))
	for i, s := range suites {
		row := &rows[i]
		row.Model, row.Faults = models[i].Name, s.faults()
		reps := s.reports()
		for _, rep := range reps {
			row.TotalCPI += rep.CPI()
			for c := core.StallCause(0); c < core.NumStallCauses; c++ {
				row.Stalls[c] += rep.StallCPI(c)
			}
		}
		n := float64(len(reps)) // 0 with no healthy benchmark: 0/0 makes the row NaN
		row.TotalCPI /= n
		for c := range row.Stalls {
			row.Stalls[c] /= n
		}
		sum := 0.0
		for _, st := range row.Stalls {
			sum += st
		}
		row.BaseCPI = row.TotalCPI - sum
	}
	return rows, nil
}

// ---------------------------------------------------------------------------
// Figure 7 — the effect of the MSHR count (degree of non-blocking).

// Fig7Point is one model at one MSHR count. Faults counts benchmarks the
// average excludes.
type Fig7Point struct {
	Model   string
	MSHRs   int
	CostRBE int
	AvgCPI  float64
	IsBase  bool // the model's Table 1 MSHR count
	Faults  int
}

// Fig7 sweeps MSHRs ∈ {1, 2, 4} for each model.
func Fig7(ctx context.Context, r *Runner, opts Options) ([]Fig7Point, error) {
	return mshrSweep(ctx, r, opts, []int{1, 2, 4})
}

// mshrSweep crosses the Table 1 models with a set of MSHR counts; Figure 7
// and the deep-sweep extension share it.
func mshrSweep(ctx context.Context, r *Runner, opts Options, counts []int) ([]Fig7Point, error) {
	var pts []Fig7Point
	var cfgs []core.Config
	for _, model := range core.Models() {
		for _, mshrs := range counts {
			cfg := model
			cfg.MSHRs = mshrs
			cost, err := cfg.CostRBE()
			if err != nil {
				return nil, err
			}
			pts = append(pts, Fig7Point{Model: model.Name, MSHRs: mshrs, CostRBE: cost, IsBase: mshrs == model.MSHRs})
			cfgs = append(cfgs, cfg)
		}
	}
	suites, err := grid(ctx, r, opts, nil, workloads.Integer(), cfgs...)
	if err != nil {
		return nil, err
	}
	for i, s := range suites {
		pts[i].AvgCPI, pts[i].Faults = s.avg(), s.faults()
	}
	return pts, nil
}

// ---------------------------------------------------------------------------
// Figure 8 — the full cost-performance scatter for espresso at 17 cycles.

// Fig8Point is one configuration of the design-space scatter. A faulted
// design point has Fault set and CPI NaN.
type Fig8Point struct {
	Label   string
	Issue   int
	ICacheK int
	WCLines int
	ROB     int
	MSHRs   int
	PFBufs  int
	CostRBE int
	CPI     float64
	Fault   *simfault.Fault
}

// Fig8 explores the espresso design space: the paper's four families
// (single-issue squares by cache size; dual-issue diamonds/triangles/circles
// for 1/2/4 KB instruction caches with varied memory resources), plus the
// called-out points A (single MSHR), B (large), D (prefetch added) and
// E (recommended).
func Fig8(ctx context.Context, r *Runner, opts Options) ([]Fig8Point, error) {
	opts = opts.sweep()
	w, err := workloads.Get("espresso")
	if err != nil {
		return nil, err
	}
	var labels []string
	var cfgs []core.Config
	add := func(label string, cfg core.Config) {
		labels = append(labels, label)
		cfgs = append(cfgs, cfg)
	}

	// Single-issue family: the three models plus point E's cache, 1 pipe.
	for _, m := range core.Models() {
		add("single-"+m.Name, m.WithIssueWidth(1))
	}
	add("single-pointE", core.RecommendedE().WithIssueWidth(1))

	// Dual-issue families: icache {1,2,4}K × memory-resource steps.
	type step struct {
		wc, rob, mshr, pf int
	}
	steps := []step{
		{2, 2, 1, 2}, // A-class: blocking cache
		{2, 2, 2, 2},
		{4, 6, 2, 4}, // baseline resources (C when pf=0 variant)
		{4, 6, 4, 4},
		{8, 8, 4, 8}, // large resources
		{4, 6, 4, 0}, // C: no prefetch
	}
	for _, ick := range []int{1, 2, 4} {
		for _, s := range steps {
			cfg := core.Baseline()
			cfg.Name = fmt.Sprintf("dual-%dK", ick)
			cfg.ICacheBytes = ick * 1024
			cfg.WriteCacheLines = s.wc
			cfg.ReorderBuffer = s.rob
			cfg.MSHRs = s.mshr
			cfg.PrefetchBuffers = s.pf
			label := fmt.Sprintf("dual-%dK-wc%d-rob%d-mshr%d-pf%d",
				ick, s.wc, s.rob, s.mshr, s.pf)
			switch {
			case s.mshr == 1:
				label = "A:" + label
			case s.pf == 0:
				label = "C:" + label
			}
			add(label, cfg)
		}
	}
	// B: the large model (performance plateau), D: point C plus prefetch,
	// E: the recommended machine.
	add("B:large-dual", core.Large())
	add("D:baseline+pf", core.Baseline())
	add("E:recommended", core.RecommendedE())

	pts := make([]Fig8Point, len(cfgs))
	for i, cfg := range cfgs {
		cost, err := cfg.CostRBE()
		if err != nil {
			return nil, err
		}
		pts[i] = Fig8Point{
			Label: labels[i], Issue: cfg.IssueWidth, ICacheK: cfg.ICacheBytes / 1024,
			WCLines: cfg.WriteCacheLines, ROB: cfg.ReorderBuffer,
			MSHRs: cfg.MSHRs, PFBufs: cfg.PrefetchBuffers,
			CostRBE: cost,
		}
	}
	suites, err := grid(ctx, r, opts, nil, []*workloads.Workload{w}, cfgs...)
	if err != nil {
		return nil, err
	}
	for i, s := range suites {
		pts[i].CPI, pts[i].Fault = s[0].CPI, s[0].Fault
	}
	return pts, nil
}

// ---------------------------------------------------------------------------
// Table 6 — FPU issue policies over the floating-point suite.

// Table6Row is one benchmark's CPI under the three policies. A faulted
// (policy, benchmark) cell holds NaN; the Average row covers each column's
// healthy cells.
type Table6Row struct {
	Bench   string
	InOrder float64
	Single  float64
	Dual    float64
}

// Table6 runs the three §5.8 policies.
func Table6(ctx context.Context, r *Runner, opts Options) ([]Table6Row, error) {
	base := core.Baseline()
	suites, err := grid(ctx, r, opts, nil, workloads.FP(),
		withFPUPolicy(base, fpu.InOrderComplete),
		withFPUPolicy(base, fpu.OutOfOrderSingle),
		withFPUPolicy(base, fpu.OutOfOrderDual))
	if err != nil {
		return nil, err
	}
	inOrder, single, dual := suites[0], suites[1], suites[2]
	out := make([]Table6Row, 0, len(inOrder)+1)
	for i, b := range inOrder {
		out = append(out, Table6Row{Bench: b.Bench, InOrder: b.CPI, Single: single[i].CPI, Dual: dual[i].CPI})
	}
	return append(out, Table6Row{
		Bench: "Average", InOrder: inOrder.avg(), Single: single.avg(), Dual: dual.avg(),
	}), nil
}

// ---------------------------------------------------------------------------
// Figure 9 — FPU resource studies.

// SweepPoint is one x-value of a Figure 9 series. Faults counts benchmarks
// the average excludes.
type SweepPoint struct {
	X       int
	AvgCPI  float64
	CostRBE int
	Faults  int
}

// fpSweep runs the FP suite on the baseline machine once per value of one
// FPU knob: apply sets the knob (and any fixed policy) on the default FPU
// configuration, and cost prices the point in RBE (nil leaves it unpriced).
// Every Figure 9 panel, the §5.10 pipelining ablation and the dual-issue
// queue extension are one call each.
func fpSweep(ctx context.Context, r *Runner, opts Options, vals []int, apply func(*fpu.Config, int), cost func(int) int) ([]SweepPoint, error) {
	pts := make([]SweepPoint, len(vals))
	cfgs := make([]core.Config, len(vals))
	for i, v := range vals {
		pts[i].X = v
		if cost != nil {
			pts[i].CostRBE = cost(v)
		}
		f := fpu.DefaultConfig()
		apply(&f, v)
		cfgs[i] = core.Baseline()
		cfgs[i].FPU = f
	}
	suites, err := grid(ctx, r, opts.sweep(), nil, workloads.FP(), cfgs...)
	if err != nil {
		return nil, err
	}
	for i, s := range suites {
		pts[i].AvgCPI, pts[i].Faults = s.avg(), s.faults()
	}
	return pts, nil
}

// Fig9QueueResult holds Figure 9's queue panels (a)-(c).
type Fig9QueueResult struct {
	InstrQueue, LoadQueue, ReorderBuffer []SweepPoint
}

// Fig9Queues regenerates panels (a)-(c): instruction queue 1-5, load queue
// 1-5, reorder buffer 3-11, single-issue FPU policy as in the paper.
func Fig9Queues(ctx context.Context, r *Runner, opts Options) (*Fig9QueueResult, error) {
	res := &Fig9QueueResult{}
	var err error
	res.InstrQueue, err = fpSweep(ctx, r, opts, []int{1, 2, 3, 4, 5},
		func(f *fpu.Config, v int) { f.Policy, f.InstrQueue = fpu.OutOfOrderSingle, v }, nil)
	if err != nil {
		return nil, err
	}
	res.LoadQueue, err = fpSweep(ctx, r, opts, []int{1, 2, 3, 4, 5},
		func(f *fpu.Config, v int) { f.Policy, f.LoadQueue = fpu.OutOfOrderSingle, v }, nil)
	if err != nil {
		return nil, err
	}
	res.ReorderBuffer, err = fpSweep(ctx, r, opts, []int{3, 5, 7, 9, 11},
		func(f *fpu.Config, v int) { f.Policy, f.ReorderBuffer = fpu.OutOfOrderSingle, v }, nil)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Fig9Latencies regenerates panels (d)-(g): functional-unit latencies, plus
// the §5.10 unpipelined-add/multiply ablation.
type Fig9LatencyResult struct {
	Add, Mul, Div, Cvt []SweepPoint
	// PipelinedCPI / UnpipelinedCPI: the §5.10 ablation at the
	// recommended latencies ("degradation ... less than 5%").
	PipelinedCPI   float64
	UnpipelinedCPI float64
	// AblationFaults counts benchmarks the two ablation averages exclude.
	AblationFaults int
}

// Fig9Latencies runs the latency sweeps.
func Fig9Latencies(ctx context.Context, r *Runner, opts Options) (*Fig9LatencyResult, error) {
	res := &Fig9LatencyResult{}
	var err error
	res.Add, err = fpSweep(ctx, r, opts, []int{1, 2, 3, 4, 5},
		func(f *fpu.Config, v int) { f.AddLatency, f.AddPipelined = v, true }, fpAddCost)
	if err != nil {
		return nil, err
	}
	res.Mul, err = fpSweep(ctx, r, opts, []int{1, 2, 3, 4, 5},
		func(f *fpu.Config, v int) { f.MulLatency = v }, fpMulCost)
	if err != nil {
		return nil, err
	}
	res.Div, err = fpSweep(ctx, r, opts, []int{10, 15, 19, 25, 30},
		func(f *fpu.Config, v int) { f.DivLatency = v }, fpDivCost)
	if err != nil {
		return nil, err
	}
	res.Cvt, err = fpSweep(ctx, r, opts, []int{1, 2, 3, 5},
		func(f *fpu.Config, v int) { f.CvtLatency = v }, fpCvtCost)
	if err != nil {
		return nil, err
	}

	// §5.10 pipelining ablation: add and convert pipelined (1) or not (0).
	abl, err := fpSweep(ctx, r, opts, []int{1, 0},
		func(f *fpu.Config, v int) { f.AddPipelined, f.CvtPipelined = v == 1, v == 1 }, nil)
	if err != nil {
		return nil, err
	}
	res.PipelinedCPI, res.UnpipelinedCPI = abl[0].AvgCPI, abl[1].AvgCPI
	res.AblationFaults = abl[0].Faults + abl[1].Faults
	return res, nil
}
