package harness

import (
	"fmt"
	"io"
	"math"

	"aurora/internal/core"
	"aurora/internal/rbe"
)

// faultMark annotates a rendered row whose statistics exclude n faulted
// cells. Empty when n == 0, so healthy output is byte-identical to a build
// without the fault machinery.
func faultMark(n int) string {
	if n == 0 {
		return ""
	}
	return fmt.Sprintf("  [%d faulted]", n)
}

// cpiCell renders a CPI right-aligned in width columns, or FAULT where a
// fault left it NaN.
func cpiCell(v float64, width int) string {
	if math.IsNaN(v) {
		return fmt.Sprintf("%*s", width, "FAULT")
	}
	return fmt.Sprintf("%*.3f", width, v)
}

// fpAddCost et al. expose the Table 2 unit-cost interpolation for the
// Figure 9 cost annotations.
func fpAddCost(lat int) int { return rbe.FPUnitCost(rbe.FPAdd, lat) }
func fpMulCost(lat int) int { return rbe.FPUnitCost(rbe.FPMultiply, lat) }
func fpDivCost(lat int) int { return rbe.FPUnitCost(rbe.FPDivide, lat) }
func fpCvtCost(lat int) int { return rbe.FPUnitCost(rbe.FPConvert, lat) }

// PrintFig1 renders the clock-trend result.
func PrintFig1(w io.Writer, r Fig1Result) {
	fmt.Fprintln(w, "Figure 1: ISSCC single-chip clock frequency trend")
	for _, p := range r.Points {
		fmt.Fprintf(w, "  %d  %6.0f MHz\n", p.Year, p.MHz)
	}
	fmt.Fprintf(w, "  fitted growth: %.0f%%/year (paper: ~40%%/year); doubling every %.1f years\n",
		100*r.GrowthRate, r.DoublingYears)
}

// PrintFig4 renders the 12-configuration cost/performance table.
func PrintFig4(w io.Writer, pts []Fig4Point) {
	fmt.Fprintln(w, "Figure 4: Dual and Single Issue Performance (integer suite)")
	fmt.Fprintf(w, "  %-9s %-5s %-7s %9s %8s %8s %8s\n",
		"model", "issue", "latency", "cost/RBE", "minCPI", "avgCPI", "maxCPI")
	for _, p := range pts {
		fmt.Fprintf(w, "  %-9s %-5d %-7d %9d %8.3f %8.3f %8.3f%s\n",
			p.Model, p.Issue, p.Latency, p.CostRBE, p.MinCPI, p.AvgCPI, p.MaxCPI,
			faultMark(suite(p.PerBench).faults()))
	}
}

// PrintRateTable renders Tables 3, 4 and 5.
func PrintRateTable(w io.Writer, t *RateTable) {
	fmt.Fprintln(w, t.Name)
	fmt.Fprintf(w, "  %-9s", "model")
	for _, b := range t.Benches {
		fmt.Fprintf(w, " %9s", b)
	}
	fmt.Fprintln(w)
	for i, m := range t.Models {
		fmt.Fprintf(w, "  %-9s", m)
		for j, v := range t.Rows[i] {
			if t.Faults != nil && t.Faults[i][j] != nil {
				fmt.Fprintf(w, " %9s", t.Faults[i][j].Cell())
				continue
			}
			fmt.Fprintf(w, " %9.2f", v)
		}
		fmt.Fprintln(w)
	}
	if t.Faults != nil {
		for i, row := range t.Faults {
			for j, f := range row {
				if f != nil {
					fmt.Fprintf(w, "  fault: %s/%s: %v\n", t.Models[i], t.Benches[j], f)
				}
			}
		}
	}
}

// PrintWriteTraffic renders §5.5's traffic ratios, one row per model in
// the order given.
func PrintWriteTraffic(w io.Writer, rows []TrafficRow) {
	fmt.Fprintln(w, "Write traffic (§5.5): store transactions / store instructions")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-9s %5.1f%%%s\n", r.Model, 100*r.Ratio, faultMark(r.Faults))
	}
	fmt.Fprintln(w, "  (paper: 44% / 30% / 22%)")
}

// PrintFig5 renders the prefetch-removal study.
func PrintFig5(w io.Writer, pts []Fig5Point) {
	fmt.Fprintln(w, "Figure 5: Effects of Prefetch Removal (dual issue)")
	fmt.Fprintf(w, "  %-9s %-7s %9s %10s %10s %12s\n",
		"model", "latency", "cost/RBE", "withPF", "withoutPF", "improvement")
	for _, p := range pts {
		fmt.Fprintf(w, "  %-9s %-7d %9d %10.3f %10.3f %11.1f%%%s\n",
			p.Model, p.Latency, p.CostRBE, p.WithPF, p.WithoutPF, 100*p.Improvement,
			faultMark(p.Faults))
	}
}

// PrintFig6 renders the stall breakdown.
func PrintFig6(w io.Writer, rows []Fig6Row) {
	fmt.Fprintln(w, "Figure 6: Break Down of Stall Penalties (CPI contributions)")
	fmt.Fprintf(w, "  %-9s %7s", "model", "base")
	for c := core.StallCause(0); c < core.NumStallCauses; c++ {
		fmt.Fprintf(w, " %9s", c)
	}
	fmt.Fprintf(w, " %8s\n", "total")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-9s %7.3f", r.Model, r.BaseCPI)
		for _, s := range r.Stalls {
			fmt.Fprintf(w, " %9.3f", s)
		}
		fmt.Fprintf(w, " %8.3f%s\n", r.TotalCPI, faultMark(r.Faults))
	}
}

// PrintFig7 renders the MSHR study.
func PrintFig7(w io.Writer, pts []Fig7Point) {
	fmt.Fprintln(w, "Figure 7: Effects of Changing MSHR Count (dual issue, integer suite)")
	fmt.Fprintf(w, "  %-9s %-6s %9s %8s %s\n", "model", "mshrs", "cost/RBE", "avgCPI", "")
	for _, p := range pts {
		mark := ""
		if p.IsBase {
			mark = "  <- Table 1 value"
		}
		fmt.Fprintf(w, "  %-9s %-6d %9d %8.3f%s%s\n", p.Model, p.MSHRs, p.CostRBE, p.AvgCPI, mark,
			faultMark(p.Faults))
	}
}

// PrintFig8 renders the espresso design-space scatter.
func PrintFig8(w io.Writer, pts []Fig8Point) {
	fmt.Fprintln(w, "Figure 8: Espresso Full Cost-Performance (latency 17)")
	fmt.Fprintf(w, "  %-30s %5s %4s %4s %5s %4s %9s %8s\n",
		"config", "issue", "ic/K", "wc", "rob", "mshr", "cost/RBE", "CPI")
	for _, p := range pts {
		if p.Fault != nil {
			fmt.Fprintf(w, "  %-30s %5d %4d %4d %5d %4d %9d %8s  %v\n",
				p.Label, p.Issue, p.ICacheK, p.WCLines, p.ROB, p.MSHRs, p.CostRBE,
				p.Fault.Cell(), p.Fault)
			continue
		}
		fmt.Fprintf(w, "  %-30s %5d %4d %4d %5d %4d %9d %8.3f\n",
			p.Label, p.Issue, p.ICacheK, p.WCLines, p.ROB, p.MSHRs, p.CostRBE, p.CPI)
	}
}

// PrintBPredSweep renders the predictor bits-vs-CPI figure: the front-end
// analogue of the paper's cache curves. The folding row is the paper's
// free-folding design (a perfect direction predictor at zero storage), so
// every real predictor's CPI sits at or above it.
func PrintBPredSweep(w io.Writer, r *BPredSweepResult) {
	fmt.Fprintf(w, "Predictor sweep (%s model): storage bits vs CPI\n", r.Model)
	fmt.Fprintf(w, "  %-32s %9s %9s %8s %8s %9s  %s\n",
		"predictor", "bits", "cost/RBE", "intCPI", "fpCPI", "int-mi%", "-bpred")
	for _, p := range r.Points {
		fmt.Fprintf(w, "  %-32s %9d %9d %s %s %8.2f%%  %s%s\n",
			p.Key, p.Bits, p.CostRBE, cpiCell(p.IntCPI, 8), cpiCell(p.FPCPI, 8), 100*p.IntMispredict, p.Label,
			faultMark(p.Faults))
	}
}

// PrintExplore renders a finished design-space exploration: the halving
// ladder's per-rung accounting, the exact frontier in cost order, and any
// candidates the search dropped on a fault. Every line derives from slices
// assembled in deterministic order, so the output is byte-identical across
// worker counts and store states.
func PrintExplore(w io.Writer, r *ExploreResult) {
	fmt.Fprintf(w, "Design-space exploration (%s): RBE cost vs CPI Pareto frontier\n", r.Workload)
	fmt.Fprintf(w, "  grid %d candidates", r.Candidates)
	if r.CostPruned > 0 {
		fmt.Fprintf(w, " (+%d over the cost cap)", r.CostPruned)
	}
	fmt.Fprintf(w, "; successive halving over %d rungs, slack %.0f%%\n",
		len(r.Rungs), 100*r.Spec.Slack)
	for _, rung := range r.Rungs {
		mode := "exact"
		if rung.Sampled {
			mode = "sampled"
		}
		verb := "promoted"
		if rung.Rung == len(r.Rungs)-1 {
			verb = "on the frontier"
		}
		fmt.Fprintf(w, "  rung %d: %8d instr %-7s  %4d entered  %4d dropped  %3d faulted  %4d %s\n",
			rung.Rung, rung.Budget, mode, rung.Entered, rung.Dropped, rung.Faulted, rung.Promoted, verb)
	}
	fmt.Fprintf(w, "  %-28s %9s %8s  %s\n", "frontier", "cost/RBE", "CPI", "configuration")
	for _, p := range r.Frontier {
		bp := p.BPred
		if bp == "" {
			bp = "folding"
		}
		fmt.Fprintf(w, "  %-28s %9d %8.3f  issue=%d icache=%dK wc=%d rob=%d mshr=%d pf=%d bpred=%s\n",
			p.Label, p.CostRBE, p.CPI, p.Issue, p.ICacheK, p.WCLines, p.ROB, p.MSHRs, p.PFBufs, bp)
	}
	for _, f := range r.Faults {
		fmt.Fprintf(w, "  dropped at rung %d: %-28s %s\n", f.Rung, f.Label, f.Cell)
	}
}

// PrintTable6 renders the FPU issue-policy comparison.
func PrintTable6(w io.Writer, rows []Table6Row) {
	fmt.Fprintln(w, "Table 6: CPI Figures for Three FPU Issue Policies")
	fmt.Fprintf(w, "  %-10s %12s %12s %12s\n", "benchmark", "in-order", "single", "dual")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-10s %s %s %s\n", r.Bench, cpiCell(r.InOrder, 12), cpiCell(r.Single, 12), cpiCell(r.Dual, 12))
	}
}

// PrintSweep renders one Figure 9 panel.
func PrintSweep(w io.Writer, title, xlabel string, pts []SweepPoint) {
	fmt.Fprintln(w, title)
	fmt.Fprintf(w, "  %-10s %8s", xlabel, "avgCPI")
	hasCost := false
	for _, p := range pts {
		if p.CostRBE != 0 {
			hasCost = true
		}
	}
	if hasCost {
		fmt.Fprintf(w, " %9s", "cost/RBE")
	}
	fmt.Fprintln(w)
	for _, p := range pts {
		fmt.Fprintf(w, "  %-10d %8.3f", p.X, p.AvgCPI)
		if hasCost {
			fmt.Fprintf(w, " %9d", p.CostRBE)
		}
		fmt.Fprint(w, faultMark(p.Faults))
		fmt.Fprintln(w)
	}
}

// PrintFig9Latencies renders panels (d)-(g) and the pipelining ablation.
func PrintFig9Latencies(w io.Writer, r *Fig9LatencyResult) {
	PrintSweep(w, "Figure 9(d): add latency", "cycles", r.Add)
	PrintSweep(w, "Figure 9(e): multiply latency", "cycles", r.Mul)
	PrintSweep(w, "Figure 9(f): divide latency", "cycles", r.Div)
	PrintSweep(w, "Figure 9(g): convert latency", "cycles", r.Cvt)
	degr := (r.UnpipelinedCPI - r.PipelinedCPI) / r.PipelinedCPI
	fmt.Fprintf(w, "§5.10 unpipelined add+convert ablation: %.3f → %.3f CPI (%.1f%% degradation; paper: <5%%)%s\n",
		r.PipelinedCPI, r.UnpipelinedCPI, 100*degr, faultMark(r.AblationFaults))
}

// PrintSampledSweep renders the sampled models x workloads grid: one
// "cpi±err" cell per estimate, then the sampling parameters and the
// detailed-instruction fraction the estimates were built from.
func PrintSampledSweep(w io.Writer, r *SampledSweepResult) {
	fmt.Fprintf(w, "Sampled CPI estimates (%.0f%% confidence; see docs/SIMULATION-MODES.md)\n",
		100*r.Params.Confidence)
	fmt.Fprintf(w, "  %-9s", "model")
	for _, b := range r.Benches {
		fmt.Fprintf(w, " %12s", b)
	}
	fmt.Fprintln(w)
	var detailed, total uint64
	faults := 0
	for i, m := range r.Models {
		fmt.Fprintf(w, "  %-9s", m)
		for _, c := range r.Cells[i] {
			if c.Fault != nil {
				fmt.Fprintf(w, " %12s", c.Fault.Cell())
				faults++
				continue
			}
			fmt.Fprintf(w, " %6.3f±%.3f", c.CPI, c.CPIError)
			detailed += c.Sampled.DetailedInstructions
			total += c.Sampled.Instructions
		}
		fmt.Fprintln(w)
	}
	for i, m := range r.Models {
		for _, c := range r.Cells[i] {
			if c.Fault != nil {
				fmt.Fprintf(w, "  fault: %s/%s: %v\n", m, c.Bench, c.Fault)
			}
		}
	}
	fmt.Fprintf(w, "  params: warm-up %d, interval %d, window %d+%d warm (key %s)\n",
		r.Params.WarmUp, r.Params.Interval, r.Params.Window, r.Params.WindowWarm, r.Params.Key())
	if total > 0 {
		fmt.Fprintf(w, "  detailed fraction: %.1f%% of %d instructions%s\n",
			100*float64(detailed)/float64(total), total, faultMark(faults))
	}
}
