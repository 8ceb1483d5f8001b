package harness

import (
	"context"
	"fmt"
	"math"

	"aurora/internal/bpred"
	"aurora/internal/core"
	"aurora/internal/workloads"
)

// The predictor sweep: the paper's cache curves (Figures 7-8) trade RBE for
// CPI one structure at a time; this figure does the same for the front end.
// Each point is the baseline machine with one branch predictor swapped in,
// priced by its storage bits at the Table 2 SRAM rate, and run over both
// workload suites. The folding point is the paper's design — a perfect
// direction predictor at zero cost — so it lower-bounds the curve and
// anchors the comparison.

// BPredPoint is one predictor design point of the bits-vs-CPI sweep.
type BPredPoint struct {
	// Label is the -bpred flag spelling that reproduces the point.
	Label string
	// Key is the canonical predictor identity (bpred.Config.Key()).
	Key string
	// Bits is the predictor's storage in bits (0 for folding/static).
	Bits uint64
	// CostRBE is the full machine cost including the predictor.
	CostRBE int
	// IntCPI/FPCPI are the per-suite average CPIs (NaN when every cell
	// of a suite faulted).
	IntCPI float64
	FPCPI  float64
	// IntMispredict is the aggregate integer-suite misprediction rate
	// (mispredicted / predicted conditional branches; 0 for folding).
	IntMispredict float64
	// Faults counts faulted cells across both suites.
	Faults int
}

// BPredSweepResult is the predictor figure: one model, every predictor
// design point in sweep order (ascending storage bits within each kind).
type BPredSweepResult struct {
	Model  string
	Points []BPredPoint
}

// bpredSweepSpec is one sweep point's flag spelling; Parse turns it into a
// config, so the sweep exercises exactly what the -bpred flag accepts.
var bpredSweepSpec = []string{
	"folding",
	"static",
	"bimodal:entries=512",
	"bimodal:entries=4096",
	"gshare:entries=1024,hist=10",
	"gshare:entries=4096,hist=12",
	"tage:tables=4,entries=1024,tag=8",
}

// BPredSweepConfigs returns the predictor design points of the sweep, from
// the free-folding baseline through static, bimodal, gshare and TAGE.
func BPredSweepConfigs() ([]bpred.Config, []string, error) {
	cfgs := make([]bpred.Config, len(bpredSweepSpec))
	for i, s := range bpredSweepSpec {
		c, err := bpred.Parse(s)
		if err != nil {
			return nil, nil, fmt.Errorf("harness: bpred sweep point %q: %w", s, err)
		}
		cfgs[i] = c
	}
	return cfgs, bpredSweepSpec, nil
}

// PredictorSweep runs the bits-vs-CPI predictor sweep on the given model
// config (the baseline in the standard figure) over both workload suites.
func PredictorSweep(ctx context.Context, r *Runner, model core.Config, opts Options) (*BPredSweepResult, error) {
	// Every point names its own predictor, so a sweep-wide -bpred override
	// must not overlay the folding anchor.
	opts = opts.sweep()
	opts.BPred = bpred.Config{}
	points, specs, err := BPredSweepConfigs()
	if err != nil {
		return nil, err
	}
	pts := make([]BPredPoint, len(points))
	cfgs := make([]core.Config, len(points))
	for i, bp := range points {
		cfg := model.WithBPred(bp)
		if !bp.IsDefault() {
			cfg.Name = model.Name + "+" + bp.Key()
		}
		cost, err := cfg.CostRBE()
		if err != nil {
			return nil, err
		}
		pts[i] = BPredPoint{Label: specs[i], Key: bp.Key(), Bits: bp.StorageBits(), CostRBE: cost}
		cfgs[i] = cfg
	}
	intS, err := grid(ctx, r, opts, nil, workloads.Integer(), cfgs...)
	if err != nil {
		return nil, err
	}
	fpS, err := grid(ctx, r, opts, nil, workloads.FP(), cfgs...)
	if err != nil {
		return nil, err
	}
	for i := range pts {
		reps := intS[i].reports()
		var predicts, mispredicts uint64
		for _, rep := range reps {
			predicts += rep.BranchPredicts
			mispredicts += rep.BranchMispredicts
		}
		// The aggregate rate is a property of the healthy integer cells:
		// with every cell faulted there is nothing to aggregate, so the
		// point reports NaN like the CPIs — a zero here would read as a
		// perfect front end on a dead suite.
		rate := math.NaN()
		if len(reps) > 0 {
			rate = 0
			if predicts > 0 {
				rate = float64(mispredicts) / float64(predicts)
			}
		}
		pts[i].IntCPI, pts[i].FPCPI, pts[i].IntMispredict = intS[i].avg(), fpS[i].avg(), rate
		pts[i].Faults = intS[i].faults() + fpS[i].faults()
	}
	return &BPredSweepResult{Model: model.Name, Points: pts}, nil
}
