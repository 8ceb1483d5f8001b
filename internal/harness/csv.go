package harness

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"aurora/internal/core"
)

// CSV export: every experiment can emit machine-readable rows for plotting.
// Each writer emits a header row followed by data rows.

func writeCSV(w io.Writer, header []string, rows [][]string) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, r := range rows {
		if err := cw.Write(r); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// f4 renders a CSV float cell with four decimals — the precision every
// numeric column of the artifacts uses. Pinned by TestCSVFloatFormatPinned
// so the artifact format cannot drift silently. (It was briefly named f3
// while already formatting four decimals; the name now states the truth.)
func f4(v float64) string { return strconv.FormatFloat(v, 'f', 4, 64) }

// Fig4CSV emits the cost/performance points.
func Fig4CSV(w io.Writer, pts []Fig4Point) error {
	rows := make([][]string, 0, len(pts))
	for _, p := range pts {
		rows = append(rows, []string{
			p.Model, strconv.Itoa(p.Issue), strconv.Itoa(p.Latency),
			strconv.Itoa(p.CostRBE), f4(p.MinCPI), f4(p.AvgCPI), f4(p.MaxCPI),
		})
	}
	return writeCSV(w, []string{"model", "issue", "latency", "cost_rbe",
		"min_cpi", "avg_cpi", "max_cpi"}, rows)
}

// RateTableCSV emits a hit-rate table (Tables 3, 4, 5).
func RateTableCSV(w io.Writer, t *RateTable) error {
	header := append([]string{"model"}, t.Benches...)
	rows := make([][]string, 0, len(t.Models))
	for i, m := range t.Models {
		row := []string{m}
		for _, v := range t.Rows[i] {
			row = append(row, f4(v))
		}
		rows = append(rows, row)
	}
	return writeCSV(w, header, rows)
}

// Fig5CSV emits the prefetch ablation.
func Fig5CSV(w io.Writer, pts []Fig5Point) error {
	rows := make([][]string, 0, len(pts))
	for _, p := range pts {
		rows = append(rows, []string{
			p.Model, strconv.Itoa(p.Latency), strconv.Itoa(p.CostRBE),
			f4(p.WithPF), f4(p.WithoutPF), f4(p.Improvement),
		})
	}
	return writeCSV(w, []string{"model", "latency", "cost_rbe",
		"with_prefetch_cpi", "without_prefetch_cpi", "improvement"}, rows)
}

// Fig6CSV emits the stall breakdown.
func Fig6CSV(w io.Writer, rows6 []Fig6Row) error {
	header := []string{"model", "base_cpi"}
	for c := core.StallCause(0); c < core.NumStallCauses; c++ {
		header = append(header, fmt.Sprintf("stall_%s", c))
	}
	header = append(header, "total_cpi")
	rows := make([][]string, 0, len(rows6))
	for _, r := range rows6 {
		row := []string{r.Model, f4(r.BaseCPI)}
		for _, s := range r.Stalls {
			row = append(row, f4(s))
		}
		row = append(row, f4(r.TotalCPI))
		rows = append(rows, row)
	}
	return writeCSV(w, header, rows)
}

// Fig7CSV emits the MSHR sweep.
func Fig7CSV(w io.Writer, pts []Fig7Point) error {
	rows := make([][]string, 0, len(pts))
	for _, p := range pts {
		rows = append(rows, []string{
			p.Model, strconv.Itoa(p.MSHRs), strconv.Itoa(p.CostRBE),
			f4(p.AvgCPI), strconv.FormatBool(p.IsBase),
		})
	}
	return writeCSV(w, []string{"model", "mshrs", "cost_rbe", "avg_cpi", "table1"}, rows)
}

// Fig8CSV emits the design-space scatter.
func Fig8CSV(w io.Writer, pts []Fig8Point) error {
	rows := make([][]string, 0, len(pts))
	for _, p := range pts {
		rows = append(rows, []string{
			p.Label, strconv.Itoa(p.Issue), strconv.Itoa(p.ICacheK),
			strconv.Itoa(p.WCLines), strconv.Itoa(p.ROB), strconv.Itoa(p.MSHRs),
			strconv.Itoa(p.PFBufs), strconv.Itoa(p.CostRBE), f4(p.CPI),
		})
	}
	return writeCSV(w, []string{"label", "issue", "icache_kb", "wc_lines",
		"rob", "mshrs", "pf_buffers", "cost_rbe", "cpi"}, rows)
}

// Table6CSV emits the policy comparison.
func Table6CSV(w io.Writer, rows6 []Table6Row) error {
	rows := make([][]string, 0, len(rows6))
	for _, r := range rows6 {
		rows = append(rows, []string{r.Bench, f4(r.InOrder), f4(r.Single), f4(r.Dual)})
	}
	return writeCSV(w, []string{"benchmark", "in_order_cpi", "ooo_single_cpi", "ooo_dual_cpi"}, rows)
}

// SweepCSV emits a Figure 9 panel.
func SweepCSV(w io.Writer, xlabel string, pts []SweepPoint) error {
	rows := make([][]string, 0, len(pts))
	for _, p := range pts {
		rows = append(rows, []string{
			strconv.Itoa(p.X), f4(p.AvgCPI), strconv.Itoa(p.CostRBE),
		})
	}
	return writeCSV(w, []string{xlabel, "avg_cpi", "cost_rbe"}, rows)
}

// BPredSweepCSV emits the predictor bits-vs-CPI sweep. The label column is
// the -bpred flag spelling (BPredPoint.Label), so any row can be reproduced
// from the artifact alone; the predictor column is the canonical key.
func BPredSweepCSV(w io.Writer, r *BPredSweepResult) error {
	rows := make([][]string, 0, len(r.Points))
	for _, p := range r.Points {
		rows = append(rows, []string{
			p.Label, p.Key, strconv.FormatUint(p.Bits, 10), strconv.Itoa(p.CostRBE),
			f4(p.IntCPI), f4(p.FPCPI), f4(p.IntMispredict),
		})
	}
	return writeCSV(w, []string{"label", "predictor", "bits", "cost_rbe", "int_cpi", "fp_cpi", "int_mispredict"}, rows)
}

// ExploreCSV emits the exploration's Pareto frontier, one row per frontier
// point in cost order, with the grid coordinates spelled out so any row can
// be re-run from the artifact alone. The icache_rbe and bpred_rbe columns
// itemize the two axes whose costs are not linear in their size parameter.
func ExploreCSV(w io.Writer, r *ExploreResult) error {
	rows := make([][]string, 0, len(r.Frontier))
	for _, p := range r.Frontier {
		bp := p.BPred
		if bp == "" {
			bp = "folding"
		}
		rows = append(rows, []string{
			p.Label, r.Workload, strconv.Itoa(p.Issue), strconv.Itoa(p.ICacheK),
			strconv.Itoa(p.WCLines), strconv.Itoa(p.ROB), strconv.Itoa(p.MSHRs),
			strconv.Itoa(p.PFBufs), bp,
			strconv.Itoa(p.CostRBE), strconv.Itoa(p.ICacheRBE), strconv.Itoa(p.BPredRBE),
			f4(p.CPI), strconv.FormatUint(p.Budget, 10),
		})
	}
	return writeCSV(w, []string{"label", "workload", "issue", "icache_kb",
		"wc_lines", "rob", "mshrs", "pf_buffers", "bpred",
		"cost_rbe", "icache_rbe", "bpred_rbe", "cpi", "budget"}, rows)
}
