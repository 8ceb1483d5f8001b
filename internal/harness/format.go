package harness

import (
	"cmp"
	"fmt"
	"strings"

	"aurora/internal/core"
	"aurora/internal/rbe"
	"aurora/internal/simfault"
)

// The table declarations: each artifact's columns, named once for its text
// table and its CSV file (see Table).

// fpAddCost et al. expose the Table 2 unit-cost interpolation for the
// Figure 9 cost annotations.
func fpAddCost(lat int) int { return rbe.FPUnitCost(rbe.FPAdd, lat) }
func fpMulCost(lat int) int { return rbe.FPUnitCost(rbe.FPMultiply, lat) }
func fpDivCost(lat int) int { return rbe.FPUnitCost(rbe.FPDivide, lat) }
func fpCvtCost(lat int) int { return rbe.FPUnitCost(rbe.FPConvert, lat) }

// fig1Tables declares the clock-trend result: data points and the fit.
func fig1Tables(r Fig1Result) []Table {
	t := Table{title: "Figure 1: ISSCC single-chip clock frequency trend"}
	for _, p := range r.Points {
		t.foot = append(t.foot, fmt.Sprintf("  %d  %6.0f MHz", p.Year, p.MHz))
	}
	t.foot = append(t.foot, fmt.Sprintf("  fitted growth: %.0f%%/year (paper: ~40%%/year); doubling every %.1f years",
		100*r.GrowthRate, r.DoublingYears))
	return []Table{t}
}

// fig4Tables declares the 12-configuration cost/performance table.
func fig4Tables(pts []Fig4Point) []Table {
	return []Table{{
		title: "Figure 4: Dual and Single Issue Performance (integer suite)",
		rows:  len(pts), faults: func(i int) int { return suite(pts[i].PerBench).faults() },
		cols: []col{
			{"model", -9, "%s", "model", func(i int) any { return pts[i].Model }},
			{"issue", -5, "%d", "issue", func(i int) any { return pts[i].Issue }},
			{"latency", -7, "%d", "latency", func(i int) any { return pts[i].Latency }},
			{"cost/RBE", 9, "%d", "cost_rbe", func(i int) any { return pts[i].CostRBE }},
			{"minCPI", 8, "%.3f", "min_cpi", func(i int) any { return pts[i].MinCPI }},
			{"avgCPI", 8, "%.3f", "avg_cpi", func(i int) any { return pts[i].AvgCPI }},
			{"maxCPI", 8, "%.3f", "max_cpi", func(i int) any { return pts[i].MaxCPI }},
		},
	}}
}

// gridTable declares a models x benches table (Tables 3-5, the sampled
// grid): a model column, one column per bench holding cell(i, j) or the
// FAULT label of a faulted cell, and a fault: line per faulted cell.
func gridTable(title string, models, benches []string, width int, verb string, cell func(i, j int) any, fault func(i, j int) *simfault.Fault) Table {
	t := Table{title: title, rows: len(models),
		cols: []col{{"model", -9, "%s", "model", func(i int) any { return models[i] }}}}
	for j, b := range benches {
		t.cols = append(t.cols, col{b, width, verb, b, func(i int) any {
			if f := fault(i, j); f != nil {
				return shown{f.Cell(), cell(i, j)}
			}
			return cell(i, j)
		}})
	}
	for i, m := range models {
		for j, b := range benches {
			if f := fault(i, j); f != nil {
				t.foot = append(t.foot, fmt.Sprintf("  fault: %s/%s: %v", m, b, f))
			}
		}
	}
	return t
}

// tables declares Table 3, 4 or 5.
func (t *RateTable) tables() []Table {
	return []Table{gridTable(t.Name, t.Models, t.Benches, 9, "%.2f",
		func(i, j int) any { return t.Rows[i][j] },
		func(i, j int) *simfault.Fault {
			if t.Faults == nil {
				return nil
			}
			return t.Faults[i][j]
		})}
}

// trafficTables declares §5.5's traffic ratios, one row per model.
func trafficTables(rows []TrafficRow) []Table {
	return []Table{{
		title: "Write traffic (§5.5): store transactions / store instructions",
		rows:  len(rows), faults: func(i int) int { return rows[i].Faults },
		cols: []col{
			{"", -9, "%s", "", func(i int) any { return rows[i].Model }},
			{"", 6, "%.1f%%", "", func(i int) any { return rows[i].Ratio }},
		},
		foot: []string{"  (paper: 44% / 30% / 22%)"},
	}}
}

// fig5Tables declares the prefetch-removal study.
func fig5Tables(pts []Fig5Point) []Table {
	return []Table{{
		title: "Figure 5: Effects of Prefetch Removal (dual issue)",
		rows:  len(pts), faults: func(i int) int { return pts[i].Faults },
		cols: []col{
			{"model", -9, "%s", "model", func(i int) any { return pts[i].Model }},
			{"latency", -7, "%d", "latency", func(i int) any { return pts[i].Latency }},
			{"cost/RBE", 9, "%d", "cost_rbe", func(i int) any { return pts[i].CostRBE }},
			{"withPF", 10, "%.3f", "with_prefetch_cpi", func(i int) any { return pts[i].WithPF }},
			{"withoutPF", 10, "%.3f", "without_prefetch_cpi", func(i int) any { return pts[i].WithoutPF }},
			{"improvement", 12, "%.1f%%", "improvement", func(i int) any { return pts[i].Improvement }},
		},
	}}
}

// fig6Tables declares the stall breakdown: one column per stall cause.
func fig6Tables(rows []Fig6Row) []Table {
	cols := []col{
		{"model", -9, "%s", "model", func(i int) any { return rows[i].Model }},
		{"base", 7, "%.3f", "base_cpi", func(i int) any { return rows[i].BaseCPI }},
	}
	for c := core.StallCause(0); c < core.NumStallCauses; c++ {
		cols = append(cols, col{c.String(), 9, "%.3f", "stall_" + c.String(), func(i int) any { return rows[i].Stalls[c] }})
	}
	return []Table{{
		title: "Figure 6: Break Down of Stall Penalties (CPI contributions)",
		rows:  len(rows), faults: func(i int) int { return rows[i].Faults },
		cols: append(cols, col{"total", 8, "%.3f", "total_cpi", func(i int) any { return rows[i].TotalCPI }}),
	}}
}

// fig7Tables declares the MSHR study; the note column marks each model's
// Table 1 count.
func fig7Tables(pts []Fig7Point) []Table {
	return []Table{{
		title: "Figure 7: Effects of Changing MSHR Count (dual issue, integer suite)",
		rows:  len(pts), faults: func(i int) int { return pts[i].Faults },
		cols: []col{
			{"model", -9, "%s", "model", func(i int) any { return pts[i].Model }},
			{"mshrs", -6, "%d", "mshrs", func(i int) any { return pts[i].MSHRs }},
			{"cost/RBE", 9, "%d", "cost_rbe", func(i int) any { return pts[i].CostRBE }},
			{"avgCPI", 8, "%.3f", "avg_cpi", func(i int) any { return pts[i].AvgCPI }},
			{"", 0, "%s", "", func(i int) any {
				if pts[i].IsBase {
					return " <- Table 1 value" // two spaces after the CPI
				}
				return ""
			}},
			{"", 0, "", "table1", func(i int) any { return pts[i].IsBase }},
		},
	}}
}

// fig8Tables declares the espresso design-space scatter. A faulted point
// prints its FAULT label and the fault in place of its CPI.
func fig8Tables(pts []Fig8Point) []Table {
	return []Table{{
		title: "Figure 8: Espresso Full Cost-Performance (latency 17)",
		rows:  len(pts),
		cols: []col{
			{"config", -30, "%s", "label", func(i int) any { return pts[i].Label }},
			{"issue", 5, "%d", "issue", func(i int) any { return pts[i].Issue }},
			{"ic/K", 4, "%d", "icache_kb", func(i int) any { return pts[i].ICacheK }},
			{"wc", 4, "%d", "wc_lines", func(i int) any { return pts[i].WCLines }},
			{"rob", 5, "%d", "rob", func(i int) any { return pts[i].ROB }},
			{"mshr", 4, "%d", "mshrs", func(i int) any { return pts[i].MSHRs }},
			{"", 0, "", "pf_buffers", func(i int) any { return pts[i].PFBufs }},
			{"cost/RBE", 9, "%d", "cost_rbe", func(i int) any { return pts[i].CostRBE }},
			{"CPI", 8, "%.3f", "cpi", func(i int) any {
				if f := pts[i].Fault; f != nil {
					return shown{fmt.Sprintf("%s  %v", f.Cell(), f), pts[i].CPI}
				}
				return pts[i].CPI
			}},
		},
	}}
}

// tables declares the predictor bits-vs-CPI figure: the front-end
// analogue of the paper's cache curves. The folding row is the paper's
// free-folding design (a perfect direction predictor at zero storage), so
// every real predictor's CPI sits at or above it. The label is the -bpred
// flag spelling, so any row can be reproduced from the artifact alone: the
// CSV leads with it, the text table ends with it.
func (r *BPredSweepResult) tables() []Table {
	pts := r.Points
	return []Table{{
		title: fmt.Sprintf("Predictor sweep (%s model): storage bits vs CPI", r.Model),
		rows:  len(pts), faults: func(i int) int { return pts[i].Faults },
		cols: []col{
			{"", 0, "", "label", func(i int) any { return pts[i].Label }},
			{"predictor", -32, "%s", "predictor", func(i int) any { return pts[i].Key }},
			{"bits", 9, "%d", "bits", func(i int) any { return pts[i].Bits }},
			{"cost/RBE", 9, "%d", "cost_rbe", func(i int) any { return pts[i].CostRBE }},
			{"intCPI", 8, "%.3f", "int_cpi", func(i int) any { return cpiCell(pts[i].IntCPI) }},
			{"fpCPI", 8, "%.3f", "fp_cpi", func(i int) any { return cpiCell(pts[i].FPCPI) }},
			{"int-mi%", 9, "%.2f%%", "int_mispredict", func(i int) any { return pts[i].IntMispredict }},
			{" -bpred", 0, " %s", "", func(i int) any { return pts[i].Label }},
		},
	}}
}

// Table declares a finished design-space exploration: the halving
// ladder's per-rung accounting, the exact frontier in cost order, and any
// candidates the search dropped on a fault. Every line derives from slices
// assembled in deterministic order, so the output is byte-identical across
// worker counts and store states. The CSV spells out the grid coordinates,
// so any frontier row can be re-run from the artifact alone; its
// icache_rbe and bpred_rbe columns itemize the two axes whose costs are not
// linear in their size parameter.
func (r *ExploreResult) Table() Table {
	var title strings.Builder
	fmt.Fprintf(&title, "Design-space exploration (%s): RBE cost vs CPI Pareto frontier\n", r.Workload)
	fmt.Fprintf(&title, "  grid %d candidates", r.Candidates)
	if r.CostPruned > 0 {
		fmt.Fprintf(&title, " (+%d over the cost cap)", r.CostPruned)
	}
	fmt.Fprintf(&title, "; successive halving over %d rungs, slack %.0f%%", len(r.Rungs), 100*r.Spec.Slack)
	for _, rung := range r.Rungs {
		mode := "exact"
		if rung.Sampled {
			mode = "sampled"
		}
		verb := "promoted"
		if rung.Rung == len(r.Rungs)-1 {
			verb = "on the frontier"
		}
		fmt.Fprintf(&title, "\n  rung %d: %8d instr %-7s  %4d entered  %4d dropped  %3d faulted  %4d %s",
			rung.Rung, rung.Budget, mode, rung.Entered, rung.Dropped, rung.Faulted, rung.Promoted, verb)
	}
	var foot []string
	for _, f := range r.Faults {
		foot = append(foot, fmt.Sprintf("  dropped at rung %d: %-28s %s", f.Rung, f.Label, f.Cell))
	}
	pts := r.Frontier
	bpred := func(i int) string { return cmp.Or(pts[i].BPred, "folding") }
	return Table{
		title: title.String(), rows: len(pts), foot: foot,
		cols: []col{
			{"frontier", -28, "%s", "label", func(i int) any { return pts[i].Label }},
			{"", 0, "", "workload", func(int) any { return r.Workload }},
			{"", 0, "", "issue", func(i int) any { return pts[i].Issue }},
			{"", 0, "", "icache_kb", func(i int) any { return pts[i].ICacheK }},
			{"", 0, "", "wc_lines", func(i int) any { return pts[i].WCLines }},
			{"", 0, "", "rob", func(i int) any { return pts[i].ROB }},
			{"", 0, "", "mshrs", func(i int) any { return pts[i].MSHRs }},
			{"", 0, "", "pf_buffers", func(i int) any { return pts[i].PFBufs }},
			{"", 0, "", "bpred", func(i int) any { return bpred(i) }},
			{"cost/RBE", 9, "%d", "cost_rbe", func(i int) any { return pts[i].CostRBE }},
			{"", 0, "", "icache_rbe", func(i int) any { return pts[i].ICacheRBE }},
			{"", 0, "", "bpred_rbe", func(i int) any { return pts[i].BPredRBE }},
			{"CPI", 8, "%.3f", "cpi", func(i int) any { return pts[i].CPI }},
			{"", 0, "", "budget", func(i int) any { return pts[i].Budget }},
			{" configuration", 0, " %s", "", func(i int) any {
				p := pts[i]
				return fmt.Sprintf("issue=%d icache=%dK wc=%d rob=%d mshr=%d pf=%d bpred=%s",
					p.Issue, p.ICacheK, p.WCLines, p.ROB, p.MSHRs, p.PFBufs, bpred(i))
			}},
		},
	}
}

// table6Tables declares the FPU issue-policy comparison.
func table6Tables(rows []Table6Row) []Table {
	return []Table{{
		title: "Table 6: CPI Figures for Three FPU Issue Policies",
		rows:  len(rows),
		cols: []col{
			{"benchmark", -10, "%s", "benchmark", func(i int) any { return rows[i].Bench }},
			{"in-order", 12, "%.3f", "in_order_cpi", func(i int) any { return cpiCell(rows[i].InOrder) }},
			{"single", 12, "%.3f", "ooo_single_cpi", func(i int) any { return cpiCell(rows[i].Single) }},
			{"dual", 12, "%.3f", "ooo_dual_cpi", func(i int) any { return cpiCell(rows[i].Dual) }},
		},
	}}
}

// sweepTable declares one Figure 9 panel. The text shows the cost column
// only for a priced sweep; the CSV always has it.
func sweepTable(title, xlabel string, pts []SweepPoint) Table {
	costVerb := ""
	for _, p := range pts {
		if p.CostRBE != 0 {
			costVerb = "%d"
		}
	}
	return Table{
		title: title, rows: len(pts), faults: func(i int) int { return pts[i].Faults },
		cols: []col{
			{xlabel, -10, "%d", xlabel, func(i int) any { return pts[i].X }},
			{"avgCPI", 8, "%.3f", "avg_cpi", func(i int) any { return pts[i].AvgCPI }},
			{"cost/RBE", 9, costVerb, "cost_rbe", func(i int) any { return pts[i].CostRBE }},
		},
	}
}

// tables declares panels (a)-(c).
func (q *Fig9QueueResult) tables() []Table {
	return []Table{
		sweepTable("Figure 9(a): FPU instruction queue size", "entries", q.InstrQueue),
		sweepTable("Figure 9(b): FPU load queue size", "entries", q.LoadQueue),
		sweepTable("Figure 9(c): FPU reorder buffer size", "entries", q.ReorderBuffer),
	}
}

// tables declares panels (d)-(g), the last with the pipelining ablation.
func (r *Fig9LatencyResult) tables() []Table {
	cvt := sweepTable("Figure 9(g): convert latency", "cycles", r.Cvt)
	degr := (r.UnpipelinedCPI - r.PipelinedCPI) / r.PipelinedCPI
	cvt.foot = []string{fmt.Sprintf("§5.10 unpipelined add+convert ablation: %.3f → %.3f CPI (%.1f%% degradation; paper: <5%%)%s",
		r.PipelinedCPI, r.UnpipelinedCPI, 100*degr, faultMark(r.AblationFaults))}
	return []Table{
		sweepTable("Figure 9(d): add latency", "cycles", r.Add),
		sweepTable("Figure 9(e): multiply latency", "cycles", r.Mul),
		sweepTable("Figure 9(f): divide latency", "cycles", r.Div),
		cvt,
	}
}

// Table declares the sampled models x workloads grid: one "cpi±err" cell
// per estimate, then the sampling parameters and the detailed-instruction
// fraction the estimates were built from.
func (r *SampledSweepResult) Table() Table {
	t := gridTable(fmt.Sprintf("Sampled CPI estimates (%.0f%% confidence; see docs/SIMULATION-MODES.md)", 100*r.Params.Confidence),
		r.Models, r.Benches, 12, "%s",
		func(i, j int) any { return fmt.Sprintf("%6.3f±%.3f", r.Cells[i][j].CPI, r.Cells[i][j].CPIError) },
		func(i, j int) *simfault.Fault { return r.Cells[i][j].Fault })
	var detailed, total uint64
	faults := 0
	for _, s := range r.Cells {
		faults += s.faults()
		for _, c := range s {
			if c.Sampled != nil {
				detailed += c.Sampled.DetailedInstructions
				total += c.Sampled.Instructions
			}
		}
	}
	t.foot = append(t.foot, fmt.Sprintf("  params: warm-up %d, interval %d, window %d+%d warm (key %s)",
		r.Params.WarmUp, r.Params.Interval, r.Params.Window, r.Params.WindowWarm, r.Params.Key()))
	if total > 0 {
		t.foot = append(t.foot, fmt.Sprintf("  detailed fraction: %.1f%% of %d instructions%s",
			100*float64(detailed)/float64(total), total, faultMark(faults)))
	}
	return t
}
