package sample

import (
	"context"
	"fmt"
	"math"

	"aurora/internal/core"
)

// Report is the result of one sampled run. It is a pure function of
// (config, workload, budget, params) — no wall-clock or host state enters —
// so reports are byte-identical across processes and safe to memoize and
// persist, and the checkpoint-sharing regression test can compare JSON
// encodings directly.
type Report struct {
	Workload  string `json:"workload"`
	Config    string `json:"config"`
	SampleKey string `json:"sample_key"` // Params.Key(): the sampled discriminator
	Params    Params `json:"params"`
	Budget    uint64 `json:"budget"` // effective total instruction budget (0 = to halt)

	// Instructions is the total dynamic instructions covered: warm-up +
	// fast-forwarded + detailed. This is the population the CPI estimate
	// describes.
	Instructions uint64 `json:"instructions"`
	// DetailedInstructions/DetailedCycles are the cycle-accurate portion
	// (window warm prefixes and pipeline drains included).
	DetailedInstructions uint64 `json:"detailed_instructions"`
	DetailedCycles       uint64 `json:"detailed_cycles"`
	// MeasuredInstructions/MeasuredCycles are the estimator's input: the
	// post-warm-prefix, pre-drain segments of complete windows.
	MeasuredInstructions uint64 `json:"measured_instructions"`
	MeasuredCycles       uint64 `json:"measured_cycles"`

	Windows   int       `json:"windows"` // complete measurement windows
	WindowCPI []float64 `json:"window_cpi"`

	// CPI is the estimate: the mean of the per-window CPIs (windows are
	// equal-sized, so this equals the instruction-weighted mean).
	CPI float64 `json:"cpi"`
	// CPIError is the half-width of the reported bound: the Confidence-level
	// Student-t interval from inter-window variance, widened by
	// BiasGuard × CPI for systematic warm-up error. The differential test
	// asserts |sampled CPI − full CPI| ≤ CPIError on every kernel.
	CPIError   float64 `json:"cpi_error"`
	Confidence float64 `json:"confidence"`

	// EstimatedCycles extrapolates the estimate over all covered
	// instructions: round(CPI × Instructions).
	EstimatedCycles uint64 `json:"estimated_cycles"`
	Halted          bool   `json:"halted"` // the kernel ran to natural completion
}

// Run replays the checkpoint through one configuration's cycle-accurate
// core. budget and p must be exactly what the checkpoint was built from —
// any other combination is an invalidated-checkpoint error, never a
// silently wrong estimate. (WindowWarm, Confidence and BiasGuard are free:
// they shape the estimator, not the capture.)
func (cp *Checkpoint) Run(ctx context.Context, cfg core.Config, budget uint64, p Params) (*Report, error) {
	p = p.Normalize()
	if want := p.CaptureKey(cp.Workload, budget); cp.CaptureKey != want {
		return nil, fmt.Errorf("sample: checkpoint %+v does not match the requested %+v", cp.CaptureKey, want)
	}
	if lb := cfg.Normalize().LineBytes; lb < warmDedupBlock {
		return nil, fmt.Errorf(
			"sample: config %s has %d-byte cache lines; sampled warm-up replay is exact only for lines of %d bytes or more",
			cfg.Name, lb, warmDedupBlock)
	}

	// stream replays one recorded window at a time: when a window's records
	// run out the pipeline drains, and the next window refills the stream.
	stream := &windowStream{static: cp.static}
	proc, err := core.NewProcessor(cfg, stream)
	if err != nil {
		return nil, err
	}

	rep := &Report{
		Workload:   cp.Workload,
		Config:     cfg.Name,
		SampleKey:  p.Key(),
		Params:     p,
		Budget:     budget,
		Confidence: p.Confidence,
	}

	var windows []float64
	var measuredInstr, measuredCycles uint64
	for _, seg := range cp.segs {
		// Fast-forward: replay the warm footprint into this configuration's
		// caches at log speed. No cycles pass, nothing is counted.
		for _, e := range seg.warm {
			proc.WarmAccess(e.kind(), e.addr())
		}
		if len(seg.win) == 0 {
			continue
		}

		// Detailed window: feed the recorded records through the
		// cycle-accurate core until the pipeline drains, marking cycles at
		// the warm-prefix boundary and at the last window instruction's
		// retirement (before the drain, so drain cycles never contaminate
		// the measurement).
		stream.recs = seg.win
		proc.Reopen()
		i0base := proc.Instructions()
		warmTarget := i0base + p.WindowWarm
		endTarget := i0base + uint64(len(seg.win))
		var c0, i0, c1, i1 uint64
		marked, ended := false, false
		for from := proc.Cycles(); proc.Step(); from = proc.Cycles() {
			n := proc.Instructions()
			if !marked && n >= warmTarget {
				c0, i0, marked = proc.Cycles(), n, true
			}
			if !ended && n >= endTarget {
				c1, i1, ended = proc.Cycles(), n, true
			}
			if core.PollDue(from, proc.Cycles()) {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
		}
		if marked && ended && i1 > i0 {
			windows = append(windows, float64(c1-c0)/float64(i1-i0))
			measuredInstr += i1 - i0
			measuredCycles += c1 - c0
		}
	}

	rep.Instructions = cp.Executed
	rep.DetailedInstructions = proc.Instructions()
	rep.DetailedCycles = proc.Cycles()
	rep.MeasuredInstructions = measuredInstr
	rep.MeasuredCycles = measuredCycles
	rep.Windows = len(windows)
	rep.WindowCPI = windows
	rep.Halted = cp.Halted

	if len(windows) < 2 {
		return nil, fmt.Errorf(
			"sample: %s on %s: only %d complete measurement windows (budget %d, interval %d, window %d) — variance needs at least 2; raise the budget, shrink the interval, or run the full simulation",
			cp.Workload, cfg.Name, len(windows), budget, p.Interval, p.Window)
	}
	mean := 0.0
	for _, x := range windows {
		mean += x
	}
	mean /= float64(len(windows))
	s2 := 0.0
	for _, x := range windows {
		d := x - mean
		s2 += d * d
	}
	s2 /= float64(len(windows) - 1)
	tq, err := tQuantile(p.Confidence, len(windows)-1)
	if err != nil {
		return nil, err
	}
	rep.CPI = mean
	rep.CPIError = tq*math.Sqrt(s2/float64(len(windows))) + p.BiasGuard*mean
	rep.EstimatedCycles = uint64(math.Round(mean * float64(rep.Instructions)))
	return rep, nil
}
