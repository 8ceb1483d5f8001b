package core

import (
	"fmt"
	"strings"

	"aurora/internal/fpu"
	"aurora/internal/mem"
	"aurora/internal/mmu"
)

// StallCause categorises why the issue stage delivered nothing in a cycle
// (paper §5.3's four major stall conditions, plus the FPU-decoupling and
// residual buckets needed for the floating-point studies).
type StallCause int

// Stall causes.
const (
	StallICache  StallCause = iota // waiting for instructions
	StallLoad                      // load result referenced before return
	StallROBFull                   // reorder buffer full
	StallLSUBusy                   // LSU full (no MSHR) or data busses busy
	StallFPU                       // FP queue full / waiting on an FPU result
	StallOther                     // residual RAW (multiply/divide results &c.)
	NumStallCauses
)

// noStall marks an issue cycle that counts no stall: an instruction
// issued, or the trace is spent.
const noStall = NumStallCauses

var stallNames = [...]string{
	StallICache:  "ICache",
	StallLoad:    "Load",
	StallROBFull: "ROB-full",
	StallLSUBusy: "LSU-busy",
	StallFPU:     "FPU",
	StallOther:   "Other",
}

func (s StallCause) String() string {
	if int(s) < len(stallNames) {
		return stallNames[s]
	}
	return fmt.Sprintf("stall(%d)", int(s))
}

// Report is the outcome of a timing-simulation run.
type Report struct {
	Config Config

	Instructions uint64
	Cycles       uint64
	DualIssues   uint64 // cycles that issued two instructions

	Stalls [NumStallCauses]uint64

	ICacheAccesses uint64
	ICacheMisses   uint64
	DCacheAccesses uint64
	DCacheMisses   uint64

	IPrefetchProbes uint64
	IPrefetchHits   uint64
	DPrefetchProbes uint64
	DPrefetchHits   uint64

	WCAccesses     uint64
	WCHits         uint64
	WCStores       uint64
	WCTransactions uint64

	// Write validation (§2.3): stores whose page matched a resident
	// write-cache line (free validation via the micro-TLB) versus stores
	// that would have needed an off-chip MMU query.
	WCPageMatches    uint64
	WCPageMissChecks uint64

	MSHRUtilisation float64

	VictimProbes uint64
	VictimHits   uint64

	// DelaySlotCrossings counts taken branches whose delay slot lies on
	// the next instruction-cache line (§2.4's superscalar complication).
	DelaySlotCrossings uint64

	// BranchPredicts/BranchMispredicts count conditional branches routed
	// through a configured direction predictor (Config.BPred) and those
	// it got wrong. Zero under the default folding front end, so default
	// reports are unchanged by the predictor axis.
	BranchPredicts    uint64
	BranchMispredicts uint64

	BIU mem.Stats
	FPU fpu.Stats
	MMU mmu.Stats
}

// CPI returns cycles per instruction.
func (r *Report) CPI() float64 {
	if r.Instructions == 0 {
		return 0
	}
	return float64(r.Cycles) / float64(r.Instructions)
}

// StallCPI returns the CPI penalty attributed to a stall cause (Figure 6).
func (r *Report) StallCPI(c StallCause) float64 {
	if r.Instructions == 0 {
		return 0
	}
	return float64(r.Stalls[c]) / float64(r.Instructions)
}

// ICacheHitRate returns the primary instruction-cache hit rate.
func (r *Report) ICacheHitRate() float64 {
	return hitRate(r.ICacheAccesses, r.ICacheMisses)
}

// DCacheHitRate returns the primary data-cache hit rate. Write-cache load
// hits count as primary hits (the data was found on chip).
func (r *Report) DCacheHitRate() float64 {
	return hitRate(r.DCacheAccesses, r.DCacheMisses)
}

func hitRate(accesses, misses uint64) float64 {
	if accesses == 0 {
		return 1
	}
	return 1 - float64(misses)/float64(accesses)
}

// IPrefetchHitRate returns the Table 3 metric: the fraction of primary
// instruction-cache misses that hit a stream buffer.
func (r *Report) IPrefetchHitRate() float64 {
	if r.IPrefetchProbes == 0 {
		return 0
	}
	return float64(r.IPrefetchHits) / float64(r.IPrefetchProbes)
}

// DPrefetchHitRate returns the Table 4 metric for the data stream.
func (r *Report) DPrefetchHitRate() float64 {
	if r.DPrefetchProbes == 0 {
		return 0
	}
	return float64(r.DPrefetchHits) / float64(r.DPrefetchProbes)
}

// WriteCacheHitRate returns the Table 5 metric (loads + stores).
func (r *Report) WriteCacheHitRate() float64 {
	if r.WCAccesses == 0 {
		return 0
	}
	return float64(r.WCHits) / float64(r.WCAccesses)
}

// WriteTrafficRatio returns store transactions per store instruction
// (§5.5: 44% / 30% / 22% for the three models).
func (r *Report) WriteTrafficRatio() float64 {
	if r.WCStores == 0 {
		return 0
	}
	return float64(r.WCTransactions) / float64(r.WCStores)
}

// WriteValidationRate returns the fraction of stores validated for free by
// the write cache's page-match micro-TLB (§2.3) — the mechanism that lets
// stores retire without querying the off-chip MMU.
func (r *Report) WriteValidationRate() float64 {
	total := r.WCPageMatches + r.WCPageMissChecks
	if total == 0 {
		return 0
	}
	return float64(r.WCPageMatches) / float64(total)
}

// MispredictRate returns the fraction of predictor-routed conditional
// branches that mispredicted (0 under the default folding front end).
func (r *Report) MispredictRate() float64 {
	if r.BranchPredicts == 0 {
		return 0
	}
	return float64(r.BranchMispredicts) / float64(r.BranchPredicts)
}

// DualIssueRate returns the fraction of cycles issuing two instructions.
func (r *Report) DualIssueRate() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.DualIssues) / float64(r.Cycles)
}

// String renders a human-readable summary.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "model=%s issue=%d latency=%d\n",
		r.Config.Name, r.Config.IssueWidth, r.Config.Memory.Latency)
	fmt.Fprintf(&b, "  instructions %d  cycles %d  CPI %.3f\n",
		r.Instructions, r.Cycles, r.CPI())
	fmt.Fprintf(&b, "  icache hit %.2f%%  dcache hit %.2f%%\n",
		100*r.ICacheHitRate(), 100*r.DCacheHitRate())
	fmt.Fprintf(&b, "  prefetch hit I %.1f%%  D %.1f%%\n",
		100*r.IPrefetchHitRate(), 100*r.DPrefetchHitRate())
	fmt.Fprintf(&b, "  write cache hit %.1f%%  traffic ratio %.2f\n",
		100*r.WriteCacheHitRate(), r.WriteTrafficRatio())
	fmt.Fprintf(&b, "  write validation %.1f%%  MSHR utilisation %.3f\n",
		100*r.WriteValidationRate(), r.MSHRUtilisation)
	if r.BranchPredicts > 0 {
		fmt.Fprintf(&b, "  bpred %s  branches %d  mispredict %.2f%%\n",
			r.Config.BPred.Key(), r.BranchPredicts, 100*r.MispredictRate())
	}
	fmt.Fprintf(&b, "  stalls:")
	for c := StallCause(0); c < NumStallCauses; c++ {
		fmt.Fprintf(&b, " %s %.3f", c, r.StallCPI(c))
	}
	b.WriteByte('\n')
	return b.String()
}
