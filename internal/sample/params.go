// Package sample implements the sampled + fast-forward simulation mode: the
// functional VM executes the workload at full speed while only the machine's
// cache contents are kept warm, and periodically a detailed window of
// instructions runs through the cycle-accurate core. CPI is estimated from
// the per-window measurements with a confidence interval derived from
// inter-window variance (the SMARTS methodology), so a design-space sweep
// trades a reported, tested error bound for an order-of-magnitude less
// cycle-accurate work.
//
// The mode reuses the exact production machinery: internal/vm for the
// fast-forward path and internal/core — the same zero-allocation cycle
// loop full runs use — for the windows. A window is bounded by a gated
// trace stream: the gate opens for the window's records, the pipeline
// drains when it closes, the VM fast-forwards underneath, and fetch reopens
// for the next window with the cycle clock carrying on (fast-forwarded
// instructions take zero simulated cycles).
package sample

import (
	"fmt"
	"strconv"
)

// Default sampling parameters. The defaults are tuned on the 15-kernel
// corpus by TestSampledCPIWithinBound, which asserts the reported bound
// covers the observed sampled-vs-full error on every kernel; perfbench's
// sampled workload measures their speed.
const (
	DefaultWarmUp     = 50_000
	DefaultInterval   = 30_000
	DefaultWindow     = 3_000
	DefaultWindowWarm = 1_000
	DefaultConfidence = 0.99
	DefaultBiasGuard  = 0.08
)

// Params configures the sampled mode. The zero value of any field selects
// its default, so Params{} is the canonical configuration. keyflow
// (aurora-lint) checks that every field reaches Key — a sampling knob that
// missed the key would let two different estimators share one stored
// estimate.
//
//aurora:identity(Key)
type Params struct {
	// WarmUp is the functional warm-up length in instructions before the
	// first detailed window — the prefix a checkpoint captures.
	WarmUp uint64 `json:"warm_up"`
	// Interval is the sampling period: instructions from one window start
	// to the next. Interval - Window instructions are fast-forwarded
	// between windows.
	Interval uint64 `json:"interval"`
	// Window is the detailed (cycle-accurate) instructions per window.
	Window uint64 `json:"window"`
	// WindowWarm is the leading portion of each window excluded from the
	// CPI measurement: it re-establishes the short-lived timing state
	// (queues, stream buffers, write cache) fast-forward does not model.
	WindowWarm uint64 `json:"window_warm"`
	// Confidence is the two-sided confidence level of the reported bound:
	// 0.90, 0.95 or 0.99.
	Confidence float64 `json:"confidence"`
	// BiasGuard widens the bound by this fraction of the estimate,
	// covering the systematic (non-statistical) error of functional
	// warming; the differential test keeps it honest.
	BiasGuard float64 `json:"bias_guard"`
}

// Normalize fills zero fields with defaults and clamps inconsistent values
// (a window warm prefix at least as long as the window leaves no measured
// instructions; an interval shorter than the window means back-to-back
// windows). Every entry point normalizes first, so two Params that
// normalize equally are one configuration — and one memo/store key.
func (p Params) Normalize() Params {
	if p.WarmUp == 0 {
		p.WarmUp = DefaultWarmUp
	}
	if p.Interval == 0 {
		p.Interval = DefaultInterval
	}
	if p.Window == 0 {
		p.Window = DefaultWindow
	}
	if p.WindowWarm == 0 {
		p.WindowWarm = DefaultWindowWarm
	}
	if p.WindowWarm >= p.Window {
		p.WindowWarm = p.Window / 2
	}
	if p.Interval < p.Window {
		p.Interval = p.Window
	}
	switch p.Confidence {
	case 0.90, 0.95, 0.99:
	default:
		p.Confidence = DefaultConfidence
	}
	if p.BiasGuard == 0 {
		p.BiasGuard = DefaultBiasGuard
	}
	return p
}

// MinBudget returns the smallest instruction budget whose capture holds the
// given number (at least 1) of full windows, for a kernel that runs that
// long: the warm-up, windows-1 sampling intervals and one more window.
func (p Params) MinBudget(windows uint64) uint64 {
	p = p.Normalize()
	return p.WarmUp + (windows-1)*p.Interval + p.Window
}

// CheckBudget rejects an explicit budget too short for the two complete
// windows an estimate needs. A zero budget runs the workload to its default
// length and is not checked here.
func (p Params) CheckBudget(budget uint64) error {
	if need := p.MinBudget(2); budget != 0 && budget < need {
		p = p.Normalize()
		return fmt.Errorf("budget %d is below the %d instructions a sampled estimate's 2 windows need (warm-up %d, interval %d, window %d)",
			budget, need, p.WarmUp, p.Interval, p.Window)
	}
	return nil
}

// Key renders the normalized parameters as a canonical string — the sampled
// discriminator of memo and result-store keys. It is versioned: a change to
// the sampling algorithm that keeps Params unchanged must bump the prefix,
// so stored estimates from the old algorithm can never alias the new one.
func (p Params) Key() string {
	p = p.Normalize()
	return "sampled/v1:w" + strconv.FormatUint(p.WarmUp, 10) +
		":i" + strconv.FormatUint(p.Interval, 10) +
		":d" + strconv.FormatUint(p.Window, 10) +
		":p" + strconv.FormatUint(p.WindowWarm, 10) +
		":c" + strconv.FormatFloat(p.Confidence, 'g', -1, 64) +
		":g" + strconv.FormatFloat(p.BiasGuard, 'g', -1, 64)
}

// tTable holds two-sided Student-t critical values for 1..30 degrees of
// freedom; beyond the table the normal quantile is used. Indexed [df-1].
var tTable = map[float64][30]float64{
	0.90: {6.314, 2.920, 2.353, 2.132, 2.015, 1.943, 1.895, 1.860, 1.833, 1.812,
		1.796, 1.782, 1.771, 1.761, 1.753, 1.746, 1.740, 1.734, 1.729, 1.725,
		1.721, 1.717, 1.714, 1.711, 1.708, 1.706, 1.703, 1.701, 1.699, 1.697},
	0.95: {12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
		2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
		2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042},
	0.99: {63.657, 9.925, 5.841, 4.604, 4.032, 3.707, 3.499, 3.355, 3.250, 3.169,
		3.106, 3.055, 3.012, 2.977, 2.947, 2.921, 2.898, 2.878, 2.861, 2.845,
		2.831, 2.819, 2.807, 2.797, 2.787, 2.779, 2.771, 2.763, 2.756, 2.750},
}

var zQuantile = map[float64]float64{0.90: 1.645, 0.95: 1.960, 0.99: 2.576}

// tQuantile returns the two-sided critical value for the given confidence
// level and degrees of freedom. Confidence must be one of the normalized
// levels; df must be positive.
func tQuantile(confidence float64, df int) (float64, error) {
	tab, ok := tTable[confidence]
	if !ok || df < 1 {
		return 0, fmt.Errorf("sample: no t-quantile for confidence %g, df %d", confidence, df)
	}
	if df <= len(tab) {
		return tab[df-1], nil
	}
	return zQuantile[confidence], nil
}
