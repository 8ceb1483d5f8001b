// Package core integrates the Aurora III timing model: it owns the cycle
// loop and the integer execution engine (dual-issue logic, register
// scoreboard, reorder buffer) and wires together the BIU, prefetch unit,
// IFU, LSU and FPU. It consumes a dynamic instruction trace and produces a
// Report with the paper's metrics: CPI, stall breakdown, cache and prefetch
// hit rates, write-cache traffic, and FPU behaviour.
package core

import (
	"fmt"

	"aurora/internal/bpred"
	"aurora/internal/fpu"
	"aurora/internal/mem"
	"aurora/internal/mmu"
	"aurora/internal/rbe"
)

// Config is a complete machine configuration.
//
// Every field must reach Fingerprint — the memo key and store address —
// either inside the fingerprintV1 literal, as a non-default suffix, or
// through a nested axis's own identity method. keyflow (aurora-lint)
// enforces this at build time; a field that may legitimately stay out of
// the key carries an //aurora:identity(none, reason) waiver.
//
//aurora:identity(Fingerprint)
type Config struct {
	//aurora:identity(none, labels an experiment point; deliberately excluded from the key so renaming a point reuses its results — see Fingerprint)
	Name string

	IssueWidth int // 1 or 2 execution pipelines

	ICacheBytes int
	DCacheBytes int
	LineBytes   int

	WriteCacheLines int
	ReorderBuffer   int // IPU reorder buffer entries
	PrefetchBuffers int // 0 disables the prefetch unit (Figure 5 ablation)
	PrefetchDepth   int // lines per stream buffer
	MSHRs           int

	FetchQueue    int
	DCacheLatency int // pipelined external cache (3)

	// VictimLines enables a small fully-associative victim cache behind
	// the external data cache (extension; the paper's design has none).
	VictimLines int

	// DisableBranchFolding removes the pre-decoded NEXT field (Figure 3):
	// every taken branch then pays a one-cycle fetch bubble, as in a
	// machine without branch folding. Ablation knob; false = the paper's
	// design.
	DisableBranchFolding bool

	// BPred selects the branch direction predictor. The zero value is the
	// paper's free branch folding (taken transfers redirect fetch with no
	// bubble); any real predictor charges its storage in RBE and injects
	// a redirect bubble per mispredicted conditional branch.
	BPred bpred.Config

	// Integer multiply/divide latencies (iterative unit).
	IntMulLatency int
	IntDivLatency int

	Memory mem.Config
	FPU    fpu.Config

	// MMU, when non-zero, replaces the flat secondary latency with a
	// structured model (TLB + secondary cache behind the BIU) — an
	// extension study; the paper's experiments leave it disabled.
	MMU mmu.Config
}

// Normalize fills unset fields with the baseline defaults.
func (c Config) Normalize() Config {
	if c.IssueWidth <= 0 {
		c.IssueWidth = 2
	}
	if c.LineBytes <= 0 {
		c.LineBytes = 32
	}
	if c.PrefetchDepth <= 0 {
		c.PrefetchDepth = 4
	}
	if c.FetchQueue <= 0 {
		c.FetchQueue = 8
	}
	if c.DCacheLatency <= 0 {
		c.DCacheLatency = 3
	}
	if c.IntMulLatency <= 0 {
		c.IntMulLatency = 5
	}
	if c.IntDivLatency <= 0 {
		c.IntDivLatency = 12
	}
	if c.Memory.Latency <= 0 {
		c.Memory = mem.DefaultConfig()
	}
	c.BPred = c.BPred.Normalize()
	c.FPU = c.FPU.Normalize()
	return c
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.ICacheBytes < 512 {
		return fmt.Errorf("core: icache %d bytes too small", c.ICacheBytes)
	}
	if c.DCacheBytes < 1024 {
		return fmt.Errorf("core: dcache %d bytes too small", c.DCacheBytes)
	}
	if c.ReorderBuffer < 1 {
		return fmt.Errorf("core: reorder buffer must have ≥1 entry")
	}
	if c.MSHRs < 1 {
		return fmt.Errorf("core: at least one MSHR required")
	}
	if c.WriteCacheLines < 1 {
		return fmt.Errorf("core: write cache must have ≥1 line")
	}
	if c.PrefetchBuffers < 0 {
		return fmt.Errorf("core: prefetch buffer count %d is negative", c.PrefetchBuffers)
	}
	if c.VictimLines < 0 {
		return fmt.Errorf("core: victim cache of %d lines is negative", c.VictimLines)
	}
	if c.FetchQueue < 2 {
		// Fetch waits for room for a whole pair, so a smaller queue
		// never receives an instruction.
		return fmt.Errorf("core: fetch queue of %d entries cannot hold an instruction pair (need ≥2)", c.FetchQueue)
	}
	if w := c.IssueWidth; w != 1 && w != 2 {
		return fmt.Errorf("core: issue width %d unsupported", w)
	}
	if err := c.BPred.Validate(); err != nil {
		return err
	}
	return nil
}

// The paper's three machine models (Table 1). The external data cache
// scales with the model (§2.3: 16/32/64 KB supported).

// Small returns the Table 1 small model.
func Small() Config {
	return Config{
		Name:        "small",
		ICacheBytes: 1 << 10, DCacheBytes: 16 << 10,
		WriteCacheLines: 2, ReorderBuffer: 2,
		PrefetchBuffers: 2, MSHRs: 1,
	}.Normalize()
}

// Baseline returns the Table 1 baseline model.
func Baseline() Config {
	return Config{
		Name:        "baseline",
		ICacheBytes: 2 << 10, DCacheBytes: 32 << 10,
		WriteCacheLines: 4, ReorderBuffer: 6,
		PrefetchBuffers: 4, MSHRs: 2,
	}.Normalize()
}

// Large returns the Table 1 large model.
func Large() Config {
	return Config{
		Name:        "large",
		ICacheBytes: 4 << 10, DCacheBytes: 64 << 10,
		WriteCacheLines: 8, ReorderBuffer: 8,
		PrefetchBuffers: 8, MSHRs: 4,
	}.Normalize()
}

// RecommendedE returns the §5.6 "point E" machine: the baseline deviating
// only in a 4 KB instruction cache, 4-entry write cache, 6-entry reorder
// buffer and 4 MSHRs — near-large performance at much lower cost.
func RecommendedE() Config {
	c := Baseline()
	c.Name = "pointE"
	c.ICacheBytes = 4 << 10
	c.DCacheBytes = 64 << 10
	c.MSHRs = 4
	return c.Normalize()
}

// Models returns the paper's three Table 1 models in order.
func Models() []Config {
	return []Config{Small(), Baseline(), Large()}
}

// WithLatency returns a copy with the given secondary memory latency.
func (c Config) WithLatency(cycles int) Config {
	c.Memory.Latency = cycles
	if c.Memory.LineTransfer == 0 {
		c.Memory = mem.Config{Latency: cycles, LineTransfer: 4, MaxOutstanding: 8}
	}
	return c
}

// WithIssueWidth returns a copy with the given issue width.
func (c Config) WithIssueWidth(w int) Config {
	c.IssueWidth = w
	return c
}

// WithoutPrefetch returns a copy with the prefetch unit removed.
func (c Config) WithoutPrefetch() Config {
	c.PrefetchBuffers = 0
	return c
}

// WithBPred returns a copy with the given branch predictor.
func (c Config) WithBPred(bp bpred.Config) Config {
	c.BPred = bp
	return c
}

// fingerprintV1 mirrors the Config fields of the original fingerprint
// format, in their original declaration order. New configuration axes are
// appended to the fingerprint as suffixes only when they deviate from their
// paper-faithful default (see Fingerprint), so every result computed before
// an axis existed keeps its key — memoized and persisted entries stay
// addressable. A reflection test pins the invariant: every Config field is
// either listed here or handled as a suffix.
type fingerprintV1 struct {
	// Name is vestigial: Fingerprint always leaves it at its zero value, so
	// every fingerprint begins with "{Name: " (pinned by
	// TestFingerprintVestigialName). Removing the field — or starting to
	// populate it — would re-key every memoized and persisted result in
	// every existing store. Do not touch it.
	Name                 string
	IssueWidth           int
	ICacheBytes          int
	DCacheBytes          int
	LineBytes            int
	WriteCacheLines      int
	ReorderBuffer        int
	PrefetchBuffers      int
	PrefetchDepth        int
	MSHRs                int
	FetchQueue           int
	DCacheLatency        int
	VictimLines          int
	DisableBranchFolding bool
	IntMulLatency        int
	IntDivLatency        int
	Memory               mem.Config
	FPU                  fpu.Config
	MMU                  mmu.Config
}

// Fingerprint returns a canonical identity string for the configuration's
// timing-relevant parameters: two configs with equal fingerprints simulate
// identically on any trace. The Name is excluded (it labels a point in an
// experiment, it does not change the machine) and the config is normalized
// first, so explicitly-set and defaulted fields collapse to one key. The
// experiment runner memoizes simulation results by this fingerprint and the
// persistent store addresses entries with it.
//
// Axes added after the store existed (currently: the branch predictor)
// extend the fingerprint with a suffix only when non-default, so default
// configurations keep their original keys and a predictor config can never
// alias a result computed without one.
func (c Config) Fingerprint() string {
	c = c.Normalize()
	// All fields (including the nested mem/fpu/mmu configs) are plain
	// values, so %+v renders them in declaration order, deterministically.
	fp := fmt.Sprintf("%+v", fingerprintV1{
		IssueWidth:           c.IssueWidth,
		ICacheBytes:          c.ICacheBytes,
		DCacheBytes:          c.DCacheBytes,
		LineBytes:            c.LineBytes,
		WriteCacheLines:      c.WriteCacheLines,
		ReorderBuffer:        c.ReorderBuffer,
		PrefetchBuffers:      c.PrefetchBuffers,
		PrefetchDepth:        c.PrefetchDepth,
		MSHRs:                c.MSHRs,
		FetchQueue:           c.FetchQueue,
		DCacheLatency:        c.DCacheLatency,
		VictimLines:          c.VictimLines,
		DisableBranchFolding: c.DisableBranchFolding,
		IntMulLatency:        c.IntMulLatency,
		IntDivLatency:        c.IntDivLatency,
		Memory:               c.Memory,
		FPU:                  c.FPU,
		MMU:                  c.MMU,
	})
	if !c.BPred.IsDefault() {
		fp += " bpred:" + c.BPred.Key()
	}
	return fp
}

// IPUCost maps the configuration onto the Table 2 cost model's integer-side
// structures: the one Config-to-RBE mapping, priced by CostRBE and itemized
// by the explorer.
func (c Config) IPUCost() rbe.IPUCost {
	return rbe.IPUCost{
		ICacheBytes:     c.ICacheBytes,
		WriteCacheLines: c.WriteCacheLines,
		PrefetchBuffers: c.PrefetchBuffers,
		PrefetchDepth:   c.PrefetchDepth,
		ReorderEntries:  c.ReorderBuffer,
		MSHREntries:     c.MSHRs,
		Pipelines:       c.IssueWidth,
	}
}

// CostRBE returns the configuration's integer-side cost in Table 2 RBE.
// A branch predictor's storage is priced at the SRAM rate on top of the
// IPU structures; the default folding front end adds nothing (its NEXT
// field is part of the pre-decoded instruction cache already costed).
func (c Config) CostRBE() (int, error) {
	total, err := c.IPUCost().Total()
	if err != nil {
		return 0, err
	}
	return total + rbe.PredictorCost(c.BPred.StorageBits()), nil
}
