package aurora

import (
	"context"
	"testing"
)

// Integration tests: assemble → execute → simulate the actual workloads and
// assert the paper's qualitative findings (DESIGN.md "shape" list). Budgets
// are moderated so the suite stays test-sized; `go test -bench .` runs the
// full experiments.

const itBudget = 500_000

func runIT(t *testing.T, cfg Config, name string) *Report {
	t.Helper()
	w, err := GetWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(context.Background(), cfg, w, RunOptions{Budget: itBudget})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func avgIntCPI(t *testing.T, cfg Config) float64 {
	t.Helper()
	var sum float64
	for _, w := range IntegerSuite() {
		rep, err := Run(context.Background(), cfg, w, RunOptions{Budget: itBudget})
		if err != nil {
			t.Fatal(err)
		}
		sum += rep.CPI()
	}
	return sum / float64(len(IntegerSuite()))
}

func TestReportInvariants(t *testing.T) {
	for _, name := range []string{"espresso", "su2cor"} {
		rep := runIT(t, Baseline(), name)
		if rep.Instructions == 0 || rep.Cycles < rep.Instructions/2 {
			t.Errorf("%s: instr=%d cycles=%d", name, rep.Instructions, rep.Cycles)
		}
		if rep.CPI() < 0.5 {
			t.Errorf("%s: CPI %.3f below the dual-issue bound", name, rep.CPI())
		}
		for _, v := range []float64{
			rep.ICacheHitRate(), rep.DCacheHitRate(),
			rep.IPrefetchHitRate(), rep.DPrefetchHitRate(),
			rep.WriteCacheHitRate(),
		} {
			if v < 0 || v > 1 {
				t.Errorf("%s: rate %f out of range", name, v)
			}
		}
		var stallSum float64
		for c := StallCause(0); c < NumStallCauses; c++ {
			stallSum += rep.StallCPI(c)
		}
		if stallSum > rep.CPI() {
			t.Errorf("%s: stall CPI %.3f exceeds total %.3f", name, stallSum, rep.CPI())
		}
	}
}

// Shape 1 & 2 (§5.1): models order small > baseline > large in CPI, and the
// single-issue baseline beats the dual-issue small model at similar cost.
func TestModelOrdering(t *testing.T) {
	small := avgIntCPI(t, Small())
	base := avgIntCPI(t, Baseline())
	large := avgIntCPI(t, Large())
	if !(small > base && base > large) {
		t.Errorf("model CPI ordering broken: %.3f %.3f %.3f", small, base, large)
	}
	base1 := avgIntCPI(t, Baseline().WithIssueWidth(1))
	smallCPI := avgIntCPI(t, Small()) // dual issue
	if base1 >= smallCPI {
		t.Errorf("single-issue baseline (%.3f) should beat dual-issue small (%.3f) — §5.1", base1, smallCPI)
	}
}

// Shape: dual issue helps at 17 cycles and helps less at 35 (§5.1: the
// advantage shrinks as memory latency grows).
func TestIssueWidthVsLatency(t *testing.T) {
	gain := func(latency int) float64 {
		single := avgIntCPI(t, Baseline().WithLatency(latency).WithIssueWidth(1))
		dual := avgIntCPI(t, Baseline().WithLatency(latency).WithIssueWidth(2))
		return (single - dual) / single
	}
	g17, g35 := gain(17), gain(35)
	if g17 <= 0 {
		t.Errorf("dual issue does not help at 17 cycles: %.3f", g17)
	}
	if g35 > g17 {
		t.Errorf("dual-issue gain grows with latency (%.3f @17 vs %.3f @35) — paper says it shrinks", g17, g35)
	}
}

// Shape 3 (Tables 3/4): instruction-stream prefetch hit rates far exceed
// data-stream rates on the integer suite.
func TestPrefetchIStreamBeatsDStream(t *testing.T) {
	var iSum, dSum float64
	n := 0
	for _, w := range IntegerSuite() {
		rep, err := Run(context.Background(), Baseline(), w, RunOptions{Budget: itBudget})
		if err != nil {
			t.Fatal(err)
		}
		iSum += rep.IPrefetchHitRate()
		dSum += rep.DPrefetchHitRate()
		n++
	}
	iAvg, dAvg := iSum/float64(n), dSum/float64(n)
	if iAvg < 0.35 {
		t.Errorf("I-prefetch average %.2f too low (paper ≈0.58)", iAvg)
	}
	if iAvg < dAvg+0.15 {
		t.Errorf("I-prefetch (%.2f) should far exceed D-prefetch (%.2f)", iAvg, dAvg)
	}
}

// Shape: eqntott has the suite's most sequential I-stream (paper Table 3:
// 94.9%% on the small model, the highest).
func TestEqntottIPrefetchHighest(t *testing.T) {
	eq := runIT(t, Small(), "eqntott").IPrefetchHitRate()
	if eq < 0.7 {
		t.Errorf("eqntott I-prefetch %.2f, paper reports the suite's highest (94.9%%)", eq)
	}
}

// Shape 4 (Figure 5): prefetch helps the baseline model substantially
// (paper: 11%% at 17 cycles, 19%% at 35) and gains grow with memory latency.
// (The paper's additional finding that the small model gains *least* does
// not reproduce here: our kernels do not saturate the small model's blocking
// LSU hard enough to mask its prefetch savings — see EXPERIMENTS.md.)
func TestPrefetchRemovalEffect(t *testing.T) {
	improvement := func(cfg Config) float64 {
		with := avgIntCPI(t, cfg)
		without := avgIntCPI(t, cfg.WithoutPrefetch())
		return (without - with) / without
	}
	b17 := improvement(Baseline())
	b35 := improvement(Baseline().WithLatency(35))
	if b17 <= 0.02 {
		t.Errorf("prefetch gains only %.1f%% on baseline/17 (paper: ~11%%)", 100*b17)
	}
	if b35 <= b17 {
		t.Errorf("prefetch gain at 35 cycles (%.1f%%) not larger than at 17 (%.1f%%)", 100*b35, 100*b17)
	}
	l17 := improvement(Large())
	l35 := improvement(Large().WithLatency(35))
	if l35 <= l17 {
		t.Errorf("large-model prefetch gain at 35 (%.1f%%) not larger than at 17 (%.1f%%)", 100*l35, 100*l17)
	}
}

// Shape 5 (Figure 6): the small model is dominated by LSU-busy stalls;
// base and large are not.
func TestSmallModelLSUDominated(t *testing.T) {
	var smallLSU, smallIC, largeLSU float64
	for _, w := range IntegerSuite() {
		rs, err := Run(context.Background(), Small(), w, RunOptions{Budget: itBudget})
		if err != nil {
			t.Fatal(err)
		}
		smallLSU += rs.StallCPI(StallLSUBusy)
		smallIC += rs.StallCPI(StallICache)
		rl, err := Run(context.Background(), Large(), w, RunOptions{Budget: itBudget})
		if err != nil {
			t.Fatal(err)
		}
		largeLSU += rl.StallCPI(StallLSUBusy)
	}
	if smallLSU <= largeLSU {
		t.Errorf("small-model LSU stalls (%.3f) not above large (%.3f)", smallLSU, largeLSU)
	}
}

// Shape 6 (Figure 7): one MSHR (blocking cache) is dramatically worse;
// adding MSHRs helps every model.
func TestMSHRBenefit(t *testing.T) {
	withMSHRs := func(cfg Config, n int) float64 {
		cfg.MSHRs = n
		return avgIntCPI(t, cfg)
	}
	s1 := withMSHRs(Small(), 1)
	s2 := withMSHRs(Small(), 2)
	s4 := withMSHRs(Small(), 4)
	if !(s1 > s2 && s2 >= s4) {
		t.Errorf("small model MSHR sweep not monotone: %.3f %.3f %.3f", s1, s2, s4)
	}
	if (s1-s4)/s1 < 0.05 {
		t.Errorf("small model gains only %.1f%% from 4 MSHRs (paper: dramatic)", 100*(s1-s4)/s1)
	}
}

// Shape 7 (Table 5 / §5.5): write-cache hit rate grows with size; write
// traffic falls to a fraction of the store count.
func TestWriteCacheScaling(t *testing.T) {
	rate := func(cfg Config) (hit, traffic float64) {
		var h, a, tr, st uint64
		for _, w := range IntegerSuite() {
			rep, err := Run(context.Background(), cfg, w, RunOptions{Budget: itBudget})
			if err != nil {
				t.Fatal(err)
			}
			h += rep.WCHits
			a += rep.WCAccesses
			tr += rep.WCTransactions
			st += rep.WCStores
		}
		return float64(h) / float64(a), float64(tr) / float64(st)
	}
	sHit, sTr := rate(Small())
	bHit, bTr := rate(Baseline())
	lHit, lTr := rate(Large())
	if !(sHit < bHit && bHit <= lHit+0.02) {
		t.Errorf("write-cache hit rates not increasing: %.3f %.3f %.3f", sHit, bHit, lHit)
	}
	if !(sTr > bTr && bTr >= lTr) {
		t.Errorf("write traffic not decreasing: %.3f %.3f %.3f", sTr, bTr, lTr)
	}
	if sTr > 0.75 || lTr > 0.45 {
		t.Errorf("traffic ratios too high: small %.2f large %.2f (paper: 0.44 / 0.22)", sTr, lTr)
	}
}

// Shape 8 (§5.6 / Figure 8): point E ≈ large-model performance at lower cost.
func TestPointENearLarge(t *testing.T) {
	e := avgIntCPI(t, RecommendedE())
	l := avgIntCPI(t, Large())
	if e > l*1.08 {
		t.Errorf("point E CPI %.3f not within 8%% of large %.3f", e, l)
	}
	ec, _ := Cost(RecommendedE())
	lc, _ := Cost(Large())
	if ec >= lc {
		t.Errorf("point E cost %d not below large %d", ec, lc)
	}
}

// Shape 9 (Table 6): FPU policies order in-order > OOO-single > OOO-dual.
func TestFPUPolicyOrdering(t *testing.T) {
	avg := func(p FPUPolicy) float64 {
		var sum float64
		cfg := Baseline()
		f := DefaultFPU()
		f.Policy = p
		cfg.FPU = f
		for _, w := range FPSuite() {
			rep, err := Run(context.Background(), cfg, w, RunOptions{Budget: itBudget})
			if err != nil {
				t.Fatal(err)
			}
			sum += rep.CPI()
		}
		return sum / float64(len(FPSuite()))
	}
	ino := avg(FPUInOrder)
	sgl := avg(FPUOOOSingle)
	dua := avg(FPUOOODual)
	if !(ino > sgl && sgl > dua) {
		t.Errorf("policy ordering broken: %.3f %.3f %.3f", ino, sgl, dua)
	}
	if (ino-sgl)/ino < 0.03 {
		t.Errorf("OOO completion gains only %.1f%% (paper: 12%%)", 100*(ino-sgl)/ino)
	}
}

// Shape (§5 text): baseline primary-cache hit rates land near the paper's
// 96.5% instruction / 95.4% data figures.
func TestBaselineHitRates(t *testing.T) {
	var iAcc, iMiss, dAcc, dMiss uint64
	for _, w := range IntegerSuite() {
		rep, err := Run(context.Background(), Baseline(), w, RunOptions{Budget: 0}) // natural completion
		if err != nil {
			t.Fatal(err)
		}
		iAcc += rep.ICacheAccesses
		iMiss += rep.ICacheMisses
		dAcc += rep.DCacheAccesses
		dMiss += rep.DCacheMisses
	}
	iHit := 1 - float64(iMiss)/float64(iAcc)
	dHit := 1 - float64(dMiss)/float64(dAcc)
	if iHit < 0.93 || iHit > 0.999 {
		t.Errorf("baseline icache hit %.4f outside [0.93, 0.999] (paper: 0.965)", iHit)
	}
	if dHit < 0.90 {
		t.Errorf("baseline dcache hit %.4f too low (paper: 0.954)", dHit)
	}
	t.Logf("baseline hit rates: icache %.2f%% (paper 96.5%%), dcache %.2f%% (paper 95.4%%)", 100*iHit, 100*dHit)
}

// The recommended FPU (§5.11) must not lose to the default on the FP suite.
func TestRecommendedFPUSane(t *testing.T) {
	cfg := Baseline()
	cfg.FPU = DefaultFPU()
	rep := runIT(t, cfg, "su2cor")
	if rep.CPI() > 4 {
		t.Errorf("recommended FPU CPI %.3f implausible", rep.CPI())
	}
	if c := FPUCost(DefaultFPU()); c < 10000 || c > 30000 {
		t.Errorf("FPU cost %d RBE implausible", c)
	}
}
