package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"sync"

	"aurora/internal/core"
	"aurora/internal/harness"
	"aurora/internal/sample"
)

// The correctness gate. Every simulated result the benchmark produces is
// compared with a digest pinned in reference.json, so a change that moves
// any simulated statistic — even one meant only to speed the simulator
// up — makes the run incorrect instead of quietly faster.

// Serve's cold cells are single cells at budgets no other request uses, so
// every one simulates. The pool holds coldBudgets budgets for each of the
// 24 (integer kernel, model) pairs; the seed permutes it and a run draws
// from it without replacement.
const (
	coldBase    = 5_000
	coldStep    = 10
	coldBudgets = 500
)

func coldBudget(j int) uint64 { return coldBase + uint64(j)*coldStep }

//go:embed reference.json
var referenceJSON []byte

// exactPin pins one exact cell.
type exactPin struct {
	Instructions uint64  `json:"instructions"`
	Cycles       uint64  `json:"cycles"`
	CPI          float64 `json:"cpi"`
	Digest       string  `json:"digest"`
}

// sampledPin pins one sampled estimate.
type sampledPin struct {
	Instructions uint64  `json:"instructions"`
	CPI          float64 `json:"cpi"`
	CPIError     float64 `json:"cpi_err"`
	Windows      int     `json:"windows"`
	Digest       string  `json:"digest"`
}

// reference is reference.json. Cells are keyed "kernel/model".
type reference struct {
	ExactBudget   uint64 `json:"exact_budget"`
	SampledBudget uint64 `json:"sampled_budget"`
	SampleKey     string `json:"sample_key"`
	// Exact pins every exact-int, exact-fp and serve warm cell.
	Exact map[string]exactPin `json:"exact"`
	// Sampled pins every sampled estimate.
	Sampled map[string]sampledPin `json:"sampled"`
	// ExactAtSampledBudget are the exact runs of the sampled cells, the
	// reference the sampled CPI error and bound coverage are measured
	// against (the model is unvalidated against hardware, so the exact
	// model is the reference).
	ExactAtSampledBudget map[string]exactPin `json:"exact_at_sampled_budget"`
	// ColdCycles pins serve's cold pool: cycles at coldBudget(j) for
	// j = 0..coldBudgets-1 (each runs exactly its budget's instructions).
	ColdCycles map[string][]uint64 `json:"cold_cycles"`
}

var (
	refOnce sync.Once
	refVal  *reference
	refErr  error
)

// pinned returns the checked-in reference.
func pinned() (*reference, error) {
	refOnce.Do(func() {
		refVal = &reference{}
		refErr = json.Unmarshal(referenceJSON, refVal)
		if refErr == nil && (refVal.ExactBudget != exactBudget || refVal.SampledBudget != sampledBudget ||
			refVal.SampleKey != sample.Params{}.Key()) {
			refErr = fmt.Errorf("reference.json was pinned at budgets %d/%d and %s; regenerate it with -regen",
				refVal.ExactBudget, refVal.SampledBudget, refVal.SampleKey)
		}
	})
	return refVal, refErr
}

// exactDigest hashes a report's simulated statistics: instructions,
// cycles, the stall vector and the cache, prefetch, write-cache, FPU and
// BIU counters. Fields are named explicitly so a counter added to
// core.Report later does not change existing digests.
func exactDigest(r *core.Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "instr=%d cycles=%d dual=%d stalls=%v ", r.Instructions, r.Cycles, r.DualIssues, r.Stalls)
	fmt.Fprintf(&b, "ic=%d/%d dc=%d/%d ipf=%d/%d dpf=%d/%d ",
		r.ICacheAccesses, r.ICacheMisses, r.DCacheAccesses, r.DCacheMisses,
		r.IPrefetchProbes, r.IPrefetchHits, r.DPrefetchProbes, r.DPrefetchHits)
	fmt.Fprintf(&b, "wc=%d/%d/%d/%d/%d/%d victim=%d/%d slots=%d ",
		r.WCAccesses, r.WCHits, r.WCStores, r.WCTransactions, r.WCPageMatches, r.WCPageMissChecks,
		r.VictimProbes, r.VictimHits, r.DelaySlotCrossings)
	f := r.FPU
	fmt.Fprintf(&b, "fpu=%d/%d/%d/%d/%d/%d/%d/%d/%d/%d/%d/%d ",
		f.Dispatched, f.Issued, f.DualIssues, f.Retired, f.ROBFullStall, f.UnitBusy,
		f.BusConflict, f.SrcNotReady, f.QueueEmpty, f.LoadsWritten, f.OccupancySum, f.Cycles)
	m := r.BIU
	fmt.Fprintf(&b, "biu=%d/%d/%d/%d/%d", m.Reads, m.Writes, m.BusBusy, m.ReadLatency, m.PeakInflight)
	return digest(b.String())
}

// sampledDigest hashes everything a sampled estimate reports.
func sampledDigest(r *sample.Report) string {
	g := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
	s := fmt.Sprintf("instr=%d detailed=%d/%d measured=%d/%d windows=%d cpi=%s err=%s est=%d halted=%v",
		r.Instructions, r.DetailedInstructions, r.DetailedCycles, r.MeasuredInstructions, r.MeasuredCycles,
		r.Windows, g(r.CPI), g(r.CPIError), r.EstimatedCycles, r.Halted)
	return digest(s)
}

func digest(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:8])
}

func pinExact(r *core.Report) exactPin {
	return exactPin{Instructions: r.Instructions, Cycles: r.Cycles, CPI: r.CPI(), Digest: exactDigest(r)}
}

func pinSampled(r *sample.Report) sampledPin {
	return sampledPin{Instructions: r.Instructions, CPI: r.CPI, CPIError: r.CPIError, Windows: r.Windows, Digest: sampledDigest(r)}
}

// checkExact compares one exact result with its pin.
func (ref *reference) checkExact(key string, r *core.Report) error {
	pin, ok := ref.Exact[key]
	if !ok {
		return fmt.Errorf("%s: no pinned digest", key)
	}
	if got := exactDigest(r); got != pin.Digest {
		return fmt.Errorf("%s: statistics digest %s, pinned %s (cycles %d, pinned %d)", key, got, pin.Digest, r.Cycles, pin.Cycles)
	}
	return nil
}

// checkSampled compares one sampled estimate with its pin.
func (ref *reference) checkSampled(key string, r *sample.Report) error {
	pin, ok := ref.Sampled[key]
	if !ok {
		return fmt.Errorf("%s: no pinned digest", key)
	}
	if got := sampledDigest(r); got != pin.Digest {
		return fmt.Errorf("%s: sampled digest %s, pinned %s (CPI %g, pinned %g)", key, got, pin.Digest, r.CPI, pin.CPI)
	}
	return nil
}

// checkServed compares a cell served over HTTP — which carries only
// instructions and cycles — with the pins: the exact grid at exactBudget,
// the cold pool at its budgets.
func (ref *reference) checkServed(key string, budget, instr, cycles uint64) error {
	var want exactPin
	if budget == exactBudget {
		p, ok := ref.Exact[key]
		if !ok {
			return fmt.Errorf("%s: no pinned result", key)
		}
		want = p
	} else {
		j := int((budget - coldBase) / coldStep)
		cs := ref.ColdCycles[key]
		if budget < coldBase || coldBudget(j) != budget || j >= len(cs) {
			return fmt.Errorf("%s@%d: not a pinned cold coordinate", key, budget)
		}
		want = exactPin{Instructions: budget, Cycles: cs[j]}
	}
	if instr != want.Instructions || cycles != want.Cycles {
		return fmt.Errorf("%s@%d: served %d instructions / %d cycles, pinned %d / %d",
			key, budget, instr, cycles, want.Instructions, want.Cycles)
	}
	return nil
}

// computeReference simulates every pinned coordinate through a 2-worker
// runner. It is the slow path behind -regen and -verify-reference.
func computeReference(ctx context.Context, log func(string, ...any)) (*reference, error) {
	ref := &reference{
		ExactBudget:          exactBudget,
		SampledBudget:        sampledBudget,
		SampleKey:            sample.Params{}.Key(),
		Exact:                map[string]exactPin{},
		Sampled:              map[string]sampledPin{},
		ExactAtSampledBudget: map[string]exactPin{},
		ColdCycles:           map[string][]uint64{},
	}
	all, _ := specByName("sampled")
	cells := grid(all.Kernels, models())
	r := harness.NewRunner(2)
	var mu sync.Mutex
	var firstErr error
	run := func(name string, n int, fn func(i int) error) {
		log("reference: %s (%d jobs)", name, n)
		work := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range work {
					if err := fn(i); err != nil {
						mu.Lock()
						if firstErr == nil {
							firstErr = err
						}
						mu.Unlock()
					}
				}
			}()
		}
		for i := 0; i < n; i++ {
			work <- i
		}
		close(work)
		wg.Wait()
	}
	run("exact cells", len(cells), func(i int) error {
		c := cells[i]
		rep, err := r.Run(ctx, c.model, c.kernel, harness.Options{Budget: exactBudget})
		if err != nil {
			return err
		}
		mu.Lock()
		ref.Exact[c.key()] = pinExact(rep)
		mu.Unlock()
		return nil
	})
	run("sampled cells", len(cells), func(i int) error {
		c := cells[i]
		rep, err := r.RunSampled(ctx, c.model, c.kernel, harness.Options{Budget: sampledBudget}, sample.Params{})
		if err != nil {
			return err
		}
		mu.Lock()
		ref.Sampled[c.key()] = pinSampled(rep)
		mu.Unlock()
		return nil
	})
	run("exact cells at the sampled budget", len(cells), func(i int) error {
		c := cells[i]
		rep, err := r.Run(ctx, c.model, c.kernel, harness.Options{Budget: sampledBudget})
		if err != nil {
			return err
		}
		mu.Lock()
		ref.ExactAtSampledBudget[c.key()] = pinExact(rep)
		mu.Unlock()
		return nil
	})
	serve, _ := specByName("serve")
	warm := grid(serve.Kernels, models())
	for _, c := range warm {
		ref.ColdCycles[c.key()] = make([]uint64, coldBudgets)
	}
	run("serve cold pool", len(warm)*coldBudgets, func(i int) error {
		c, j := warm[i/coldBudgets], i%coldBudgets
		rep, err := r.Run(ctx, c.model, c.kernel, harness.Options{Budget: coldBudget(j)})
		if err != nil {
			return err
		}
		if rep.Instructions != coldBudget(j) {
			return fmt.Errorf("%s@%d: ran %d instructions; cold budgets must not reach the kernel's halt", c.key(), coldBudget(j), rep.Instructions)
		}
		mu.Lock()
		ref.ColdCycles[c.key()][j] = rep.Cycles
		mu.Unlock()
		return nil
	})
	return ref, firstErr
}

// diffReference lists every pinned value of want that got differs from.
func diffReference(want, got *reference) []string {
	diffs := diffPins("exact", want.Exact, got.Exact)
	diffs = append(diffs, diffPins("exact@sampled-budget", want.ExactAtSampledBudget, got.ExactAtSampledBudget)...)
	diffs = append(diffs, diffPins("sampled", want.Sampled, got.Sampled)...)
	return append(diffs, diffPins("cold", want.ColdCycles, got.ColdCycles)...)
}

// diffPins compares one section of pins, cell by cell, both ways.
func diffPins[T any](section string, want, got map[string]T) []string {
	var diffs []string
	for _, k := range sortedKeys(want) {
		jw, _ := json.Marshal(want[k]) // plain data: cannot fail
		jg, _ := json.Marshal(got[k])
		if string(jw) != string(jg) {
			diffs = append(diffs, fmt.Sprintf("%s %s: pinned %s, computed %s", section, k, jw, jg))
		}
	}
	for _, k := range sortedKeys(got) {
		if _, ok := want[k]; !ok {
			diffs = append(diffs, fmt.Sprintf("%s %s: computed but not pinned", section, k))
		}
	}
	return diffs
}

// writeReference writes ref as indented JSON, each cold-pool array on
// one line.
func writeReference(path string, ref *reference) error {
	cold := ref.ColdCycles
	ref.ColdCycles = nil
	b, err := json.MarshalIndent(ref, "", " ")
	ref.ColdCycles = cold
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	buf.Write(bytes.TrimSuffix(b, []byte("\n}")))
	buf.WriteString(",\n \"cold_cycles\": {")
	for i, k := range sortedKeys(cold) {
		line, err := json.Marshal(cold[k])
		if err != nil {
			return err
		}
		if i > 0 {
			buf.WriteByte(',')
		}
		fmt.Fprintf(&buf, "\n  %q: %s", k, line)
	}
	buf.WriteString("\n }\n}\n")
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// cpiErrPct is the mean |sampled - exact| CPI as a percentage of the
// exact CPI, and coverage the share of cells whose reported bound covers
// the exact CPI, over the given sampled estimates.
func (ref *reference) accuracy(est map[string]*sample.Report) (cpiErrPct, coverage float64, err error) {
	if len(est) == 0 {
		return 0, 0, fmt.Errorf("no sampled estimates")
	}
	var sum float64
	covered := 0
	for key, r := range est {
		pin, ok := ref.ExactAtSampledBudget[key]
		if !ok {
			return 0, 0, fmt.Errorf("%s: no exact reference at the sampled budget", key)
		}
		d := math.Abs(r.CPI - pin.CPI)
		sum += 100 * d / pin.CPI
		if d <= r.CPIError {
			covered++
		}
	}
	return sum / float64(len(est)), float64(covered) / float64(len(est)), nil
}
