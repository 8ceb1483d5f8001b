package harness

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"aurora/internal/core"
	"aurora/internal/simfault"
)

// Rendering tests with synthetic data: every Print* function must produce
// the rows it was given, so `aurora-experiments` output is trustworthy.

func contains(t *testing.T, out, want string) {
	t.Helper()
	if !strings.Contains(out, want) {
		t.Errorf("output missing %q in:\n%s", want, out)
	}
}

func TestPrintFig1(t *testing.T) {
	var b bytes.Buffer
	PrintFig1(&b, Fig1())
	contains(t, b.String(), "1994")
	contains(t, b.String(), "fitted growth")
}

func TestPrintFig4(t *testing.T) {
	var b bytes.Buffer
	PrintFig4(&b, []Fig4Point{
		{Model: "baseline", Issue: 2, Latency: 17, CostRBE: 73084,
			MinCPI: 0.9, MaxCPI: 1.2, AvgCPI: 1.0},
	})
	out := b.String()
	contains(t, out, "baseline")
	contains(t, out, "73084")
	contains(t, out, "1.200")
}

func TestPrintRateTable(t *testing.T) {
	var b bytes.Buffer
	PrintRateTable(&b, &RateTable{
		Name:    "Table X",
		Benches: []string{"espresso", "li"},
		Models:  []string{"small"},
		Rows:    [][]float64{{12.34, 56.78}},
	})
	out := b.String()
	contains(t, out, "Table X")
	contains(t, out, "12.34")
	contains(t, out, "56.78")
}

func TestPrintWriteTraffic(t *testing.T) {
	var b bytes.Buffer
	PrintWriteTraffic(&b, []TrafficRow{
		{Model: "small", Ratio: 0.44}, {Model: "baseline", Ratio: 0.30}, {Model: "large", Ratio: 0.22, Faults: 2},
	})
	want := "Write traffic (§5.5): store transactions / store instructions\n" +
		"  small      44.0%\n" +
		"  baseline   30.0%\n" +
		"  large      22.0%  [2 faulted]\n" +
		"  (paper: 44% / 30% / 22%)\n"
	if got := b.String(); got != want {
		t.Errorf("got:\n%swant:\n%s", got, want)
	}
}

func TestPrintFig5(t *testing.T) {
	var b bytes.Buffer
	PrintFig5(&b, []Fig5Point{
		{Model: "baseline", Latency: 17, CostRBE: 73084,
			WithPF: 1.0, WithoutPF: 1.12, Improvement: 0.107},
	})
	contains(t, b.String(), "10.7%")
}

func TestPrintFig6(t *testing.T) {
	var b bytes.Buffer
	row := Fig6Row{Model: "small", BaseCPI: 0.75, TotalCPI: 1.3}
	row.Stalls[core.StallLoad] = 0.25
	PrintFig6(&b, []Fig6Row{row})
	out := b.String()
	contains(t, out, "small")
	contains(t, out, "0.250")
	contains(t, out, "Load")
}

func TestPrintFig7(t *testing.T) {
	var b bytes.Buffer
	PrintFig7(&b, []Fig7Point{
		{Model: "small", MSHRs: 1, CostRBE: 65034, AvgCPI: 1.36, IsBase: true},
		{Model: "small", MSHRs: 4, CostRBE: 65184, AvgCPI: 1.27},
	})
	out := b.String()
	contains(t, out, "Table 1 value")
	contains(t, out, "1.270")
}

func TestPrintFig8(t *testing.T) {
	var b bytes.Buffer
	PrintFig8(&b, []Fig8Point{
		{Label: "E:recommended", Issue: 2, ICacheK: 4, WCLines: 4, ROB: 6,
			MSHRs: 4, PFBufs: 4, CostRBE: 81184, CPI: 1.15},
	})
	contains(t, b.String(), "E:recommended")
}

func TestPrintTable6(t *testing.T) {
	var b bytes.Buffer
	PrintTable6(&b, []Table6Row{
		{Bench: "ora", InOrder: 2.5, Single: 2.3, Dual: 2.2},
		{Bench: "Average", InOrder: 1.6, Single: 1.5, Dual: 1.45},
	})
	out := b.String()
	contains(t, out, "ora")
	contains(t, out, "Average")
	contains(t, out, "2.500")
}

func TestPrintSweepWithAndWithoutCost(t *testing.T) {
	var b bytes.Buffer
	PrintSweep(&b, "title", "entries", []SweepPoint{{X: 3, AvgCPI: 1.4}})
	out := b.String()
	contains(t, out, "title")
	if strings.Contains(out, "cost/RBE") {
		t.Error("cost column shown without cost data")
	}
	b.Reset()
	PrintSweep(&b, "t2", "cycles", []SweepPoint{{X: 3, AvgCPI: 1.4, CostRBE: 3125}})
	contains(t, b.String(), "3125")
}

func TestPrintFig9Latencies(t *testing.T) {
	var b bytes.Buffer
	PrintFig9Latencies(&b, &Fig9LatencyResult{
		Add:          []SweepPoint{{X: 3, AvgCPI: 1.42, CostRBE: 3125}},
		Mul:          []SweepPoint{{X: 5, AvgCPI: 1.42, CostRBE: 2500}},
		Div:          []SweepPoint{{X: 19, AvgCPI: 1.42, CostRBE: 1656}},
		Cvt:          []SweepPoint{{X: 2, AvgCPI: 1.42, CostRBE: 2187}},
		PipelinedCPI: 1.42, UnpipelinedCPI: 1.487,
	})
	out := b.String()
	contains(t, out, "Figure 9(d)")
	contains(t, out, "4.7% degradation")
}

// TestPrintExtensionRenderers renders one healthy row and one row with two
// faulted cells per extension study: the healthy row carries its values
// and no mark, the partial row carries the [2 faulted] mark.
func TestPrintExtensionRenderers(t *testing.T) {
	var b bytes.Buffer
	check := func(want string) {
		t.Helper()
		out := b.String()
		contains(t, out, want)
		if lines := strings.Split(strings.TrimSpace(out), "\n"); !strings.HasSuffix(lines[len(lines)-1], "  [2 faulted]") {
			t.Errorf("partial row is not marked:\n%s", out)
		}
		if strings.Count(out, "faulted]") != 1 {
			t.Errorf("healthy row is marked:\n%s", out)
		}
		b.Reset()
	}

	PrintLatencyScaling(&b, []LatencyPoint{
		{Latency: 17, CPI: map[string]float64{"small": 1.3, "baseline": 1.05, "large": 1.01}},
		{Latency: 35, CPI: map[string]float64{"small": 1.5, "baseline": 1.2, "large": 1.1}, Faults: 2},
	})
	check("17")

	PrintBranchFolding(&b, []BranchFoldingResult{
		{Model: "baseline", WithFold: 1.05, Without: 1.06, Penalty: 0.01},
		{Model: "large", WithFold: 1.0, Without: 1.02, Penalty: 0.02, Faults: 2},
	})
	check("1.0%")

	PrintWriteCacheSweep(&b, []WriteCachePoint{
		{Lines: 4, CostRBE: 73084, AvgCPI: 1.05, TrafficRatio: 0.15},
		{Lines: 8, CostRBE: 74084, AvgCPI: 1.04, TrafficRatio: 0.12, Faults: 2},
	})
	check("15.0%")

	PrintAreaAwareClock(&b, []ClockedPoint{
		{Model: "baseline", AvgCPI: 1.05, CycleTime: 1.066, TimePerIns: 1.119},
		{Model: "large", AvgCPI: 1.0, CycleTime: 1.1, TimePerIns: 1.1, Faults: 2},
	})
	check("1.119")

	PrintMMUSensitivity(&b, []MMUPoint{
		{Label: "flat", AvgCPI: 1.05, TLBMissPct: 0.04, L2HitPct: 72.3},
		{Label: "starved", AvgCPI: 1.2, TLBMissPct: 3.1, L2HitPct: 40.0, Faults: 2},
	})
	check("72.3")

	PrintVictimCacheStudy(&b, []VictimPoint{
		{Model: "baseline", VictimLines: 4, AvgCPI: 1.63, VictimHitPct: 11.0},
		{Model: "large", VictimLines: 4, AvgCPI: 1.5, VictimHitPct: 9.0, Faults: 2},
	})
	check("11.0")

	PrintCompilerScheduling(&b, []SchedulingPoint{
		{Model: "large", BaseCPI: 1.038, SchedCPI: 1.004, BaseLoadCPI: 0.149, SchedLoadCPI: 0.142},
		{Model: "small", BaseCPI: 1.3, SchedCPI: 1.25, BaseLoadCPI: 0.1, SchedLoadCPI: 0.09, Faults: 2},
	})
	check("1.004")

	fault := &simfault.Fault{Subsystem: "fpu", Cycle: 7}
	PrintPreciseExceptions(&b, []PrecisePoint{
		{Bench: "ora", FastCPI: 2.0, PreciseCPI: 2.5, Slowdown: 0.25},
		{Bench: "doduc", FastCPI: 1.0, PreciseCPI: 1.2, Slowdown: 0.15},
		{Bench: "nasa7", FastCPI: math.NaN(), PreciseCPI: math.NaN(), Slowdown: math.NaN(), Fault: fault},
		{Bench: "su2cor", FastCPI: math.NaN(), PreciseCPI: math.NaN(), Slowdown: math.NaN(), Fault: fault},
	})
	contains(t, b.String(), "FAULT(fpu@7)")
	check("20.0%  [2 faulted]") // the healthy rows' average
}

func TestCSVWriters(t *testing.T) {
	var b bytes.Buffer
	if err := Fig4CSV(&b, []Fig4Point{{Model: "baseline", Issue: 2, Latency: 17,
		CostRBE: 73084, MinCPI: 0.9, AvgCPI: 1.0, MaxCPI: 1.2}}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	contains(t, out, "model,issue,latency")
	contains(t, out, "baseline,2,17,73084")

	b.Reset()
	if err := RateTableCSV(&b, &RateTable{
		Benches: []string{"espresso"}, Models: []string{"small"},
		Rows: [][]float64{{12.5}},
	}); err != nil {
		t.Fatal(err)
	}
	contains(t, b.String(), "small,12.5000")

	b.Reset()
	if err := Table6CSV(&b, []Table6Row{{Bench: "ora", InOrder: 2.5, Single: 2.3, Dual: 2.2}}); err != nil {
		t.Fatal(err)
	}
	contains(t, b.String(), "ora,2.5000,2.3000,2.2000")

	b.Reset()
	if err := SweepCSV(&b, "entries", []SweepPoint{{X: 3, AvgCPI: 1.42, CostRBE: 150}}); err != nil {
		t.Fatal(err)
	}
	contains(t, b.String(), "3,1.4200,150")

	b.Reset()
	row := Fig6Row{Model: "small", BaseCPI: 0.7, TotalCPI: 1.3}
	row.Stalls[core.StallLoad] = 0.25
	if err := Fig6CSV(&b, []Fig6Row{row}); err != nil {
		t.Fatal(err)
	}
	contains(t, b.String(), "stall_Load")

	b.Reset()
	if err := Fig5CSV(&b, []Fig5Point{{Model: "large", Latency: 35, CostRBE: 87984,
		WithPF: 1.0, WithoutPF: 1.1, Improvement: 0.09}}); err != nil {
		t.Fatal(err)
	}
	contains(t, b.String(), "large,35")

	b.Reset()
	if err := Fig7CSV(&b, []Fig7Point{{Model: "small", MSHRs: 1, CostRBE: 65034,
		AvgCPI: 1.36, IsBase: true}}); err != nil {
		t.Fatal(err)
	}
	contains(t, b.String(), "small,1,65034,1.3600,true")

	b.Reset()
	if err := Fig8CSV(&b, []Fig8Point{{Label: "E:recommended", Issue: 2, ICacheK: 4,
		WCLines: 4, ROB: 6, MSHRs: 4, PFBufs: 4, CostRBE: 81184, CPI: 1.15}}); err != nil {
		t.Fatal(err)
	}
	contains(t, b.String(), "E:recommended")

	// Regression: BPredSweepCSV once dropped the Label column, so a row
	// could not be reproduced with -bpred from the artifact alone. The
	// label leads the row and the header names it.
	b.Reset()
	if err := BPredSweepCSV(&b, &BPredSweepResult{Model: "baseline", Points: []BPredPoint{
		{Label: "gshare:entries=4096,hist=12", Key: "gshare/e4096/h12", Bits: 8192,
			CostRBE: 77230, IntCPI: 1.08, FPCPI: 1.69, IntMispredict: 0.061},
	}}); err != nil {
		t.Fatal(err)
	}
	contains(t, b.String(), "label,predictor,bits,cost_rbe,int_cpi,fp_cpi,int_mispredict")
	contains(t, b.String(), "\"gshare:entries=4096,hist=12\",gshare/e4096/h12,8192,77230,1.0800,1.6900,0.0610")

	b.Reset()
	if err := ExploreCSV(&b, &ExploreResult{Workload: "espresso", Frontier: []ExplorePoint{
		{Label: "i2-ic1K-wc2-rob6-mshr2-pf4", Issue: 2, ICacheK: 1, WCLines: 2, ROB: 6,
			MSHRs: 2, PFBufs: 4, CostRBE: 68444, ICacheRBE: 8000, CPI: 1.196, Budget: 40000},
	}}); err != nil {
		t.Fatal(err)
	}
	contains(t, b.String(), "label,workload,issue,icache_kb,wc_lines,rob,mshrs,pf_buffers,bpred,cost_rbe,icache_rbe,bpred_rbe,cpi,budget")
	contains(t, b.String(), "i2-ic1K-wc2-rob6-mshr2-pf4,espresso,2,1,2,6,2,4,folding,68444,8000,0,1.1960,40000")
}

// TestCSVFloatFormatPinned pins the artifact float cell: f4 renders four
// decimals, half-up at the fourth place, and spells NaN (the faulted-cell
// value) literally. Every numeric CSV column flows through it, so a change
// here is a change to every checked-in artifact.
func TestCSVFloatFormatPinned(t *testing.T) {
	cases := []struct {
		v    float64
		want string
	}{
		{0, "0.0000"},
		{1.196, "1.1960"},
		{1.23456, "1.2346"},
		{1.23444, "1.2344"},
		{-0.5, "-0.5000"},
		{100, "100.0000"},
		{math.NaN(), "NaN"},
	}
	for _, c := range cases {
		if got := f4(c.v); got != c.want {
			t.Errorf("f4(%v) = %q, want %q", c.v, got, c.want)
		}
	}
}

// TestPrintBPredSweepLabelColumn: the rendered sweep carries the -bpred
// flag spelling alongside the canonical key, so any printed row can be
// reproduced directly.
func TestPrintBPredSweepLabelColumn(t *testing.T) {
	var b bytes.Buffer
	PrintBPredSweep(&b, &BPredSweepResult{Model: "baseline", Points: []BPredPoint{
		{Label: "bimodal:entries=512", Key: "bimodal/e512", Bits: 1024,
			CostRBE: 73646, IntCPI: 1.09, FPCPI: 1.7, IntMispredict: 0.08},
	}})
	out := b.String()
	contains(t, out, "-bpred")
	contains(t, out, "bimodal:entries=512")
	contains(t, out, "bimodal/e512")
}

// TestPrintExplore smoke-checks the exploration rendering: the ladder
// accounting, the frontier row and a dropped-candidate line all appear.
func TestPrintExplore(t *testing.T) {
	var b bytes.Buffer
	PrintExplore(&b, &ExploreResult{
		Workload:   "espresso",
		Spec:       ExploreSpec{Slack: 0.10},
		Candidates: 4,
		Rungs: []ExploreRung{
			{Rung: 0, Budget: 10000, Entered: 4, Promoted: 3, Faulted: 1},
			{Rung: 1, Budget: 40000, Entered: 3, Promoted: 1, Dropped: 2},
		},
		Frontier: []ExplorePoint{
			{Label: "i2-ic1K-wc2-rob6-mshr2-pf4", Issue: 2, ICacheK: 1, WCLines: 2,
				ROB: 6, MSHRs: 2, PFBufs: 4, CostRBE: 68444, CPI: 1.196, Budget: 40000},
		},
		Faults: []ExploreFault{{Label: "i2-ic2K-wc4-rob6-mshr2-pf4", Rung: 0, Cell: "FAULT(ipu@42)"}},
	})
	out := b.String()
	contains(t, out, "Design-space exploration (espresso)")
	contains(t, out, "grid 4 candidates")
	contains(t, out, "on the frontier")
	contains(t, out, "i2-ic1K-wc2-rob6-mshr2-pf4")
	contains(t, out, "bpred=folding")
	contains(t, out, "dropped at rung 0")
	contains(t, out, "FAULT(ipu@42)")
}
