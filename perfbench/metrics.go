package main

import (
	"encoding/json"
	"fmt"
	"math"
	"regexp"
	"sort"
)

// metricDef declares one reported metric. End-to-end metrics carry the
// bound by which their median may worsen (as a share of the parent
// commit's median) before a change counts as a regression; per-layer
// metrics have none.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// endToEnd are the waits and costs a user of the simulator sees. Every
// workload reports all of them, and each is compared per workload.
// Bounds come from the run-to-run spreads recorded in steadiness.json.
// Calibrated time (calib.go) cancels most of the shared host's slow
// stretches, but not all: the calibration and the simulator do not use
// the host in the same proportions, and the residue reached 5-13% of a
// median. So every metric keeps the largest bound allowed, 0.25, and
// set-up, a median of only three repetitions, never has a smaller one.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "sips", Unit: "instr/s", Better: "higher", Bound: 0.25},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
}

// profBuckets are the packages CPU-profile samples are attributed to, in
// report order; "other" takes everything else (the benchmark itself,
// syscalls, the rest of the standard library).
var profBuckets = []string{
	"vm", "core", "ipu", "cache", "prefetch", "mem", "fpu", "bpred", "mmu",
	"trace", "sample", "harness", "resultstore", "http", "json", "syscall", "runtime", "other",
}

// perLayer are the traced run's numbers. Each is measured on every
// workload: from the workload's own operations where it exercises the
// layer, otherwise from the layer panel over the workload's kernels (see
// README.md, "Per-layer metrics").
var perLayer = func() []metricDef {
	m := []metricDef{
		{Name: "vm.ns_per_instr", Unit: "ns", Better: "lower"},
		{Name: "core.ns_per_cycle", Unit: "ns", Better: "lower"},
		{Name: "core.ns_per_instr", Unit: "ns", Better: "lower"},
		{Name: "sim.instructions", Unit: "count", Better: "higher"},
		{Name: "sim.cycles", Unit: "count", Better: "lower"},
		{Name: "sim.stall_frac", Unit: "frac", Better: "lower"},
		{Name: "sim.fpu_idle_frac", Unit: "frac", Better: "higher"},
		{Name: "sim.icache_miss_rate", Unit: "frac", Better: "lower"},
		{Name: "sim.dcache_miss_rate", Unit: "frac", Better: "lower"},
		{Name: "sim.biu_reads", Unit: "count", Better: "lower"},
		{Name: "sim.dual_issue_frac", Unit: "frac", Better: "higher"},
		{Name: "sample.capture_s", Unit: "s", Better: "lower"},
		{Name: "sample.capture_ns_per_instr", Unit: "ns", Better: "lower"},
		{Name: "sample.replay_ms_p50", Unit: "ms", Better: "lower"},
		{Name: "sample.detailed_frac", Unit: "frac", Better: "lower"},
		{Name: "sample.windows", Unit: "count", Better: "higher"},
		{Name: "sample.checkpoint_mb", Unit: "MB", Better: "lower"},
		{Name: "sample.cpi_err_pct", Unit: "%", Better: "lower"},
		{Name: "sample.bound_coverage", Unit: "frac", Better: "higher"},
		{Name: "harness.cell_ms_max", Unit: "ms", Better: "lower"},
		{Name: "harness.simulated", Unit: "count", Better: "lower"},
		{Name: "harness.memo_hits", Unit: "count", Better: "higher"},
		{Name: "harness.store_hits", Unit: "count", Better: "higher"},
		{Name: "go.gc_cycles", Unit: "count", Better: "lower"},
		{Name: "go.alloc_mb", Unit: "MB", Better: "lower"},
		{Name: "go.allocs_per_instr", Unit: "allocs/instr", Better: "lower"},
		{Name: "resultstore.get_ms_p50", Unit: "ms", Better: "lower"},
		{Name: "resultstore.put_ms_p50", Unit: "ms", Better: "lower"},
		{Name: "resultstore.entry_kb", Unit: "KB", Better: "lower"},
		{Name: "resultstore.corrupt", Unit: "count", Better: "lower"},
		{Name: "serve.memo_hit_ms_p50", Unit: "ms", Better: "lower"},
		{Name: "serve.store_hit_ms_p50", Unit: "ms", Better: "lower"},
		{Name: "serve.cold_ms_p50", Unit: "ms", Better: "lower"},
		{Name: "serve.req_p99_ms", Unit: "ms", Better: "lower"},
		{Name: "serve.resp_kb_p50", Unit: "KB", Better: "lower"},
		{Name: "serve.cold_cells", Unit: "count", Better: "higher"},
	}
	for _, b := range profBuckets {
		m = append(m, metricDef{Name: "prof." + b + "_pct", Unit: "%", Better: "lower"})
	}
	return append(m, metricDef{Name: "trace.overhead_pct", Unit: "%", Better: "lower"})
}()

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitName = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// defs returns the metric set one run reports.
func defs(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// newResult attaches units to raw values and checks that the run produced
// exactly the declared metric set with finite values.
func newResult(traced bool, values map[string]float64, attempted, failed int, correct bool) (*result, error) {
	res := &result{
		Correct:   correct && failed == 0 && attempted > 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs(traced) {
		v, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not a finite number (%v)", d.Name, v)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	var extra []string
	for name := range values {
		if _, ok := res.Metrics[name]; !ok {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return nil, fmt.Errorf("undeclared metrics %v", extra)
	}
	return res, nil
}

// manifestMetric is one metric as BENCHMARK.json lists it.
type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

type manifestWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// manifest is BENCHMARK.json: how to run the benchmark and what it reports.
type manifest struct {
	Command    []string           `json:"command"`
	Paths      []string           `json:"paths"`
	RunSeconds int                `json:"run_seconds"`
	Workloads  []manifestWorkload `json:"workloads"`
	EndToEnd   []manifestMetric   `json:"end_to_end"`
	PerLayer   []manifestMetric   `json:"per_layer"`
}

// runSeconds is how long one run measures by default.
const runSeconds = 15

func buildManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
	}
	for _, s := range specs {
		m.Workloads = append(m.Workloads, manifestWorkload{Name: s.Name, Why: s.Why})
	}
	for _, d := range endToEnd {
		b := d.Bound
		m.EndToEnd = append(m.EndToEnd, manifestMetric{Name: d.Name, Unit: d.Unit, Better: d.Better, Bound: &b})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, manifestMetric{Name: d.Name, Unit: d.Unit, Better: d.Better})
	}
	return m
}

func manifestJSON() ([]byte, error) {
	b, err := json.MarshalIndent(buildManifest(), "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
