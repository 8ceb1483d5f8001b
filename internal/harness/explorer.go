package harness

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"aurora/internal/bpred"
	"aurora/internal/core"
	"aurora/internal/rbe"
	"aurora/internal/sample"
	"aurora/internal/simfault"
	"aurora/internal/workloads"
)

// The adaptive design-space explorer. The paper walks the cost/performance
// plane by hand — Figure 8 enumerates a few dozen espresso points, Figure 9
// sweeps one resource at a time — but with the branch-predictor, OoO and
// issue axes open the cross product explodes past what even the fast sweep
// can enumerate. Explorer automates the walk: it generates a candidate grid
// over the paper's resource axes, screens it at cheap instruction budgets
// (or in sampled mode), and promotes only frontier-adjacent survivors up a
// successive-halving budget ladder until the last rung runs the survivors
// at full budget and emits the exact RBE-cost-vs-CPI Pareto frontier.
//
// Everything flows through the Runner, so the search inherits the memo
// table, the persistent store (a repeated exploration against the same
// store re-simulates nothing), the fault boundary (a faulted candidate is
// dropped from the search, never crashes it) and determinism: promotion
// decisions are pure functions of measured values, and every rung assembles
// its measurements in candidate order, so the frontier is byte-identical
// for any worker count, store state or scheduling order.

// minScreenBudget floors the screening-rung budgets: below ~1k instructions
// the pipeline never leaves its cold-start transient and a screen would
// rank candidates on warm-up noise.
const minScreenBudget = 1000

// ExploreSpec describes one exploration: the candidate grid (the cross
// product of the axis slices), the workload the candidates race on, and the
// successive-halving schedule. The zero value of every field selects a
// default (see Normalize), so ExploreSpec{} is the standard search.
type ExploreSpec struct {
	// Workload is the kernel every candidate runs; the default is
	// espresso, the paper's Figure 8 subject.
	Workload string

	// The grid axes. Every combination is a candidate; an empty slice
	// selects the axis default. Candidates deviate from the baseline
	// model only on these axes (the external data cache, line size and
	// FPU stay at their Table 1 baseline values).
	IssueWidths []int
	ICacheKB    []int
	WCLines     []int
	ROBs        []int
	MSHRs       []int
	PFBufs      []int
	// BPreds are -bpred flag spellings (bpred.Parse); "folding" is the
	// paper's free front end.
	BPreds []string

	// FullBudget is the final rung's instruction budget — the exact runs
	// the frontier is measured from.
	FullBudget uint64
	// Rungs is the ladder height including the final full-budget rung;
	// 1 disables screening entirely (exhaustive search).
	Rungs int
	// Halve divides the budget from one rung down to the one below.
	Halve uint64
	// Slack is the frontier-adjacency margin screens keep: a candidate
	// survives a screen when its CPI is within (1+Slack)× of the best
	// CPI at equal-or-lower cost. 0 selects the default 0.10; screens
	// must keep slack because a cheap screen's ranking is noisy and the
	// exact frontier may hide just behind it.
	Slack float64
	// MaxCostRBE drops candidates costlier than this before any
	// simulation (0 = no cap).
	MaxCostRBE int

	// Sampled runs the screening rungs in sampled mode (estimates with
	// confidence bounds) instead of truncated exact runs; the final rung
	// is always exact. Screen budgets must then be long enough for at
	// least two sampling windows, or the search fails with the
	// estimator's descriptive error.
	Sampled bool
	// Sample overrides the sampled-screen parameters (zero fields keep
	// the sample.Params defaults).
	Sample sample.Params
}

// Normalize fills unset fields with the standard search, mirroring
// core.Config.Normalize: two specs that normalize equally describe one
// exploration.
func (s ExploreSpec) Normalize() ExploreSpec {
	if s.Workload == "" {
		s.Workload = "espresso"
	}
	if len(s.IssueWidths) == 0 {
		s.IssueWidths = []int{1, 2}
	}
	if len(s.ICacheKB) == 0 {
		s.ICacheKB = []int{1, 2, 4}
	}
	if len(s.WCLines) == 0 {
		s.WCLines = []int{2, 4, 8}
	}
	if len(s.ROBs) == 0 {
		s.ROBs = []int{2, 6, 8}
	}
	if len(s.MSHRs) == 0 {
		s.MSHRs = []int{1, 2, 4}
	}
	if len(s.PFBufs) == 0 {
		s.PFBufs = []int{0, 4, 8}
	}
	if len(s.BPreds) == 0 {
		s.BPreds = []string{"folding"}
	}
	if s.FullBudget == 0 {
		s.FullBudget = 600_000
	}
	if s.FullBudget < minScreenBudget {
		s.FullBudget = minScreenBudget
	}
	if s.Rungs <= 0 {
		s.Rungs = 3
	}
	if s.Halve == 0 {
		s.Halve = 4
	}
	if s.Slack == 0 {
		s.Slack = 0.10
	}
	if s.Sampled {
		s.Sample = s.Sample.Normalize()
	}
	return s
}

// TinyExploreSpec is the smoke-test grid: two instruction-cache sizes
// crossed with two write-cache depths on the dual-issue baseline, screened
// once and finished at a small exact budget — four candidates, two rungs,
// seconds of work. The 1K/wc2 point is the cheapest candidate and can never
// be dominated (nothing costs less), so the smoke test has a known frontier
// member to assert on.
func TinyExploreSpec() ExploreSpec {
	return ExploreSpec{
		IssueWidths: []int{2},
		ICacheKB:    []int{1, 2},
		WCLines:     []int{2, 4},
		ROBs:        []int{6},
		MSHRs:       []int{2},
		PFBufs:      []int{4},
		FullBudget:  40_000,
		Rungs:       2,
		Slack:       0.25,
	}.Normalize()
}

// ExploreSpecFor resolves a grid preset — "default" (or "") and "tiny" —
// and overlays the schedule fields over sets: a non-zero workload, final
// budget, rung count, halving divisor, slack or cost cap replaces the
// preset's, and over.Sampled turns on sampled screening with over.Sample.
// An unknown grid or workload is an error before anything runs, and so is
// an over.Sample without over.Sampled: sampling parameters are rejected,
// never silently ignored. So is a sampled search whose smallest screen
// budget cannot yield the two windows the estimator's variance needs.
// aurora-experiments' -explore-* flags and aurora-serve's POST /v1/explore
// both resolve through it.
func ExploreSpecFor(grid string, over ExploreSpec) (ExploreSpec, error) {
	var spec ExploreSpec
	switch grid {
	case "", "default":
	case "tiny":
		spec = TinyExploreSpec()
	default:
		return ExploreSpec{}, fmt.Errorf("unknown grid %q (want default or tiny)", grid)
	}
	if !over.Sampled && over.Sample != (sample.Params{}) {
		return ExploreSpec{}, errors.New("sample parameters require a sampled submission (set sampled:true)")
	}
	if over.Workload != "" {
		if _, err := workloads.Get(over.Workload); err != nil {
			return ExploreSpec{}, err
		}
	}
	overlay(&spec.Workload, over.Workload)
	overlay(&spec.FullBudget, over.FullBudget)
	overlay(&spec.Rungs, over.Rungs)
	overlay(&spec.Halve, over.Halve)
	overlay(&spec.Slack, over.Slack)
	overlay(&spec.MaxCostRBE, over.MaxCostRBE)
	if over.Sampled {
		spec.Sampled, spec.Sample = true, over.Sample
		if n := spec.Normalize(); n.Rungs > 1 {
			if err := n.Sample.CheckBudget(n.budgets()[0]); err != nil {
				return ExploreSpec{}, fmt.Errorf(
					"sampled screens need at least 2 windows: the first rung's %v; raise the final budget or shrink the sampling parameters", err)
			}
		}
	}
	return spec, nil
}

// overlay sets *dst to v unless v is the zero value.
func overlay[T comparable](dst *T, v T) {
	var zero T
	if v != zero {
		*dst = v
	}
}

// budgets returns the rung budgets, ascending; the last is FullBudget and
// each screen below it divides by Halve, floored at minScreenBudget.
func (s ExploreSpec) budgets() []uint64 {
	b := make([]uint64, s.Rungs)
	cur := s.FullBudget
	for i := s.Rungs - 1; i >= 0; i-- {
		b[i] = cur
		cur /= s.Halve
		if cur < minScreenBudget {
			cur = minScreenBudget
		}
	}
	return b
}

// ExploreCandidate is one point of the generated grid.
type ExploreCandidate struct {
	Label   string
	Config  core.Config
	CostRBE int
	// BPred is the canonical predictor key ("" for the folding default).
	BPred string
	// BPredRBE is the predictor's share of CostRBE.
	BPredRBE int
	// Breakdown itemizes the integer-side cost (rbe.IPUCost.Breakdown).
	Breakdown rbe.IPUBreakdown
}

// candidates expands the grid in fixed axis order (issue, icache, wc, rob,
// mshr, pf, predictor — the declaration order above), so candidate order,
// and with it every tie-break downstream, is deterministic. Candidates
// beyond MaxCostRBE are dropped here, before any simulation; the count of
// those comes back in pruned.
func (s ExploreSpec) candidates() (cands []ExploreCandidate, pruned int, err error) {
	bpreds := make([]bpred.Config, len(s.BPreds))
	for i, spec := range s.BPreds {
		bp, err := bpred.Parse(spec)
		if err != nil {
			return nil, 0, fmt.Errorf("harness: explore predictor %q: %w", spec, err)
		}
		bpreds[i] = bp
	}
	for _, issue := range s.IssueWidths {
		for _, ick := range s.ICacheKB {
			for _, wc := range s.WCLines {
				for _, rob := range s.ROBs {
					for _, mshr := range s.MSHRs {
						for _, pf := range s.PFBufs {
							for bi, bp := range bpreds {
								cfg := core.Baseline()
								cfg.IssueWidth = issue
								cfg.ICacheBytes = ick * 1024
								cfg.WriteCacheLines = wc
								cfg.ReorderBuffer = rob
								cfg.MSHRs = mshr
								cfg.PrefetchBuffers = pf
								cfg = cfg.WithBPred(bp)
								label := fmt.Sprintf("i%d-ic%dK-wc%d-rob%d-mshr%d-pf%d",
									issue, ick, wc, rob, mshr, pf)
								if !bp.IsDefault() {
									label += "-" + bp.Key()
								}
								cfg.Name = label
								if err := cfg.Validate(); err != nil {
									return nil, 0, fmt.Errorf("harness: explore candidate %s: %w", label, err)
								}
								bd, err := cfg.IPUCost().Breakdown()
								if err != nil {
									return nil, 0, fmt.Errorf("harness: explore candidate %s: %w", label, err)
								}
								bpRBE := rbe.PredictorCost(bp.StorageBits())
								cost := bd.Total + bpRBE
								if s.MaxCostRBE > 0 && cost > s.MaxCostRBE {
									pruned++
									continue
								}
								cand := ExploreCandidate{
									Label:     label,
									Config:    cfg,
									CostRBE:   cost,
									BPredRBE:  bpRBE,
									Breakdown: bd,
								}
								if !bpreds[bi].IsDefault() {
									cand.BPred = bpreds[bi].Key()
								}
								cands = append(cands, cand)
							}
						}
					}
				}
			}
		}
	}
	return cands, pruned, nil
}

// ExploreEvent is one candidate evaluation, delivered to Explorer.Observe
// as it lands (completion order). A faulted evaluation carries the fault
// and a NaN CPI; CPIError is the confidence bound on sampled screens.
type ExploreEvent struct {
	Rung     int
	Budget   uint64
	Sampled  bool
	Label    string
	CostRBE  int
	CPI      float64
	CPIError float64
	Fault    *simfault.Fault
}

// ExploreRung is one rung's promotion accounting. Entered = Promoted +
// Dropped + Faulted on every rung; the next rung's Entered equals this
// rung's Promoted, and on the final rung Promoted is the frontier size.
type ExploreRung struct {
	Rung     int
	Budget   uint64
	Sampled  bool
	Entered  int
	Promoted int
	Dropped  int
	Faulted  int
}

// ExplorePoint is one frontier member: an exact full-budget measurement no
// other full-budget survivor dominates.
type ExplorePoint struct {
	Label     string
	Issue     int
	ICacheK   int
	WCLines   int
	ROB       int
	MSHRs     int
	PFBufs    int
	BPred     string // canonical predictor key, "" = folding
	CostRBE   int
	BPredRBE  int
	ICacheRBE int
	CPI       float64
	Budget    uint64
}

// ExploreFault records a candidate dropped because its simulation faulted.
type ExploreFault struct {
	Label string
	Rung  int
	Cell  string
	Fault *simfault.Fault
}

// ExploreResult is one finished search.
type ExploreResult struct {
	Workload   string
	Spec       ExploreSpec // normalized
	Candidates int         // grid size after cost pruning
	CostPruned int         // candidates dropped by MaxCostRBE
	Rungs      []ExploreRung
	// Frontier is the exact Pareto frontier over the final rung's healthy
	// runs, cost-ascending (ties by label).
	Frontier []ExplorePoint
	// Faults lists candidates the search dropped on a typed fault, in
	// the rung order they fell.
	Faults []ExploreFault
}

// Evaluations returns the total simulations the search requested across
// all rungs (memo and store hits included).
func (r *ExploreResult) Evaluations() int {
	n := 0
	for _, rung := range r.Rungs {
		n += rung.Entered
	}
	return n
}

// Explorer runs the adaptive Pareto search on a Runner. Set the fields
// before calling Run.
type Explorer struct {
	Runner *Runner
	Spec   ExploreSpec
	// Observe, when non-nil, receives one event per candidate evaluation
	// in completion order. It is called concurrently from the worker
	// fan-out and must be safe for concurrent use.
	Observe func(ExploreEvent)
}

// scoredCandidate is one rung measurement.
type scoredCandidate struct {
	cand  ExploreCandidate
	cpi   float64
	fault *simfault.Fault
}

// Run executes the search: screen, promote, repeat, then the exact
// full-budget frontier. A candidate whose simulation faults is dropped
// from the search (recorded in Faults); non-fault errors — configuration
// mistakes, I/O, cancellation — abort it.
func (e *Explorer) Run(ctx context.Context) (*ExploreResult, error) {
	spec := e.Spec.Normalize()
	w, err := workloads.Get(spec.Workload)
	if err != nil {
		return nil, fmt.Errorf("harness: explore: %w", err)
	}
	alive, pruned, err := spec.candidates()
	if err != nil {
		return nil, err
	}
	if len(alive) == 0 {
		return nil, errors.New("harness: explore grid is empty after cost pruning")
	}
	res := &ExploreResult{
		Workload:   spec.Workload,
		Spec:       spec,
		Candidates: len(alive),
		CostPruned: pruned,
	}
	budgets := spec.budgets()
	for rung, budget := range budgets {
		last := rung == len(budgets)-1
		var sp *sample.Params
		if spec.Sampled && !last {
			sp = &spec.Sample
		}
		scored, err := e.evaluate(ctx, w, alive, rung, budget, sp)
		if err != nil {
			return nil, err
		}
		healthy := make([]scoredCandidate, 0, len(scored))
		faulted := 0
		for _, sc := range scored {
			if sc.fault != nil {
				faulted++
				res.Faults = append(res.Faults, ExploreFault{
					Label: sc.cand.Label, Rung: rung, Cell: sc.fault.Cell(), Fault: sc.fault,
				})
				continue
			}
			healthy = append(healthy, sc)
		}
		var survivors []scoredCandidate
		if last {
			survivors = paretoFrontier(healthy)
		} else {
			survivors = slackSurvivors(healthy, spec.Slack)
		}
		res.Rungs = append(res.Rungs, ExploreRung{
			Rung: rung, Budget: budget, Sampled: sp != nil,
			Entered:  len(scored),
			Promoted: len(survivors),
			Dropped:  len(healthy) - len(survivors),
			Faulted:  faulted,
		})
		if last {
			for _, sc := range survivors {
				c := sc.cand
				res.Frontier = append(res.Frontier, ExplorePoint{
					Label:     c.Label,
					Issue:     c.Config.IssueWidth,
					ICacheK:   c.Config.ICacheBytes / 1024,
					WCLines:   c.Config.WriteCacheLines,
					ROB:       c.Config.ReorderBuffer,
					MSHRs:     c.Config.MSHRs,
					PFBufs:    c.Config.PrefetchBuffers,
					BPred:     c.BPred,
					CostRBE:   c.CostRBE,
					BPredRBE:  c.BPredRBE,
					ICacheRBE: c.Breakdown.ICache,
					CPI:       sc.cpi,
					Budget:    budget,
				})
			}
			sort.Slice(res.Frontier, func(i, j int) bool {
				if res.Frontier[i].CostRBE != res.Frontier[j].CostRBE {
					return res.Frontier[i].CostRBE < res.Frontier[j].CostRBE
				}
				return res.Frontier[i].Label < res.Frontier[j].Label
			})
			break
		}
		alive = alive[:0]
		for _, sc := range survivors {
			alive = append(alive, sc.cand)
		}
		if len(alive) == 0 {
			// Every candidate faulted at this rung: the search ends with
			// an empty frontier rather than an error — the fault list
			// carries the story, matching the keep-going sweep policy.
			break
		}
	}
	return res, nil
}

// evaluate measures every candidate at one rung budget through
// Runner.Cell — sampled under *sp, exact when sp is nil — in candidate
// order. Faults become data (keep-going); other errors abort.
func (e *Explorer) evaluate(ctx context.Context, w *workloads.Workload, cands []ExploreCandidate, rung int, budget uint64, sp *sample.Params) ([]scoredCandidate, error) {
	return each(ctx, Options{}, len(cands), func(ctx context.Context, i int) (scoredCandidate, error) {
		c := cands[i]
		cell, err := e.Runner.Cell(ctx, c.Config, w, Options{Budget: budget}, sp)
		if err != nil {
			return scoredCandidate{}, err
		}
		if e.Observe != nil {
			e.Observe(ExploreEvent{
				Rung: rung, Budget: budget, Sampled: sp != nil,
				Label: c.Label, CostRBE: c.CostRBE,
				CPI: cell.CPI, CPIError: cell.CPIError, Fault: cell.Fault,
			})
		}
		return scoredCandidate{cand: c, cpi: cell.CPI, fault: cell.Fault}, nil
	})
}

// slackSurvivors keeps the frontier-adjacent candidates of a screening
// rung: p survives unless some candidate at equal-or-lower cost beats its
// CPI by more than the slack factor. Input order (candidate order) is
// preserved, so promotion is deterministic.
func slackSurvivors(scored []scoredCandidate, slack float64) []scoredCandidate {
	out := make([]scoredCandidate, 0, len(scored))
	for _, p := range scored {
		dominated := false
		for _, q := range scored {
			if q.cand.CostRBE <= p.cand.CostRBE && q.cpi*(1+slack) < p.cpi {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, p)
		}
	}
	return out
}

// paretoFrontier keeps the exactly non-dominated candidates: no other
// candidate is at least as good on both axes and strictly better on one.
// Exact duplicates (equal cost and CPI) all survive — neither dominates.
func paretoFrontier(scored []scoredCandidate) []scoredCandidate {
	out := make([]scoredCandidate, 0, len(scored))
	for _, p := range scored {
		dominated := false
		for _, q := range scored {
			if q.cand.CostRBE <= p.cand.CostRBE && q.cpi <= p.cpi &&
				(q.cand.CostRBE < p.cand.CostRBE || q.cpi < p.cpi) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, p)
		}
	}
	return out
}
