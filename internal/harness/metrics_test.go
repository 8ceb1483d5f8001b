package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"aurora/internal/core"
	"aurora/internal/workloads"
)

// TestObsCollectorDeterministicUnderParallelism submits the same job set
// with heavy duplication through runners of different widths and checks the
// exports are byte-identical: the sink factory fires once per distinct job
// and output order follows the job key, not the schedule.
func TestObsCollectorDeterministicUnderParallelism(t *testing.T) {
	suite := workloads.Integer()[:2]
	opts := Options{Budget: 40_000}

	export := func(workers int) (metrics, trace string) {
		t.Helper()
		r := NewRunner(workers)
		c := NewObsCollector(5_000, 10_000)
		r.Observe = c.Sink
		// Duplicate every job 3x across both Table 1 end-point models.
		var thunks []func() (*core.Report, error)
		for _, cfg := range []core.Config{core.Small(), core.Baseline()} {
			for _, w := range suite {
				for dup := 0; dup < 3; dup++ {
					cfg, w := cfg, w
					thunks = append(thunks, func() (*core.Report, error) {
						return r.Run(context.Background(), cfg, w, opts)
					})
				}
			}
		}
		if _, err := each(context.Background(), opts, len(thunks), func(_ context.Context, i int) (*core.Report, error) { return thunks[i]() }); err != nil {
			t.Fatal(err)
		}
		st := r.Stats()
		if want := uint64(len(suite) * 2); st.Misses != want {
			t.Fatalf("misses = %d, want %d distinct jobs", st.Misses, want)
		}
		var mb, tb bytes.Buffer
		if err := c.WriteMetricsCSV(&mb); err != nil {
			t.Fatal(err)
		}
		if err := c.WriteChromeTrace(&tb); err != nil {
			t.Fatal(err)
		}
		return mb.String(), tb.String()
	}

	m1, t1 := export(1)
	m8, t8 := export(8)
	if m1 != m8 {
		t.Error("metrics CSV differs between 1 and 8 workers")
	}
	if t1 != t8 {
		t.Error("Chrome trace differs between 1 and 8 workers")
	}

	// One time-series block per distinct job.
	lines := strings.Split(strings.TrimSpace(m1), "\n")
	if len(lines) < 1+2*len(suite) {
		t.Fatalf("metrics CSV has %d lines, want header plus rows for %d jobs", len(lines), 2*len(suite))
	}
	if !strings.HasPrefix(lines[0], "config,workload,budget,scheduled,cycle,") {
		t.Errorf("metrics header = %q", lines[0])
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(t1), &doc); err != nil {
		t.Fatalf("trace export is not valid JSON: %v", err)
	}
	pids := map[float64]bool{}
	for _, e := range doc.TraceEvents {
		pids[e["pid"].(float64)] = true
	}
	if len(pids) != 2*len(suite) {
		t.Errorf("trace has %d processes, want one per distinct job (%d)", len(pids), 2*len(suite))
	}
}

// TestObserveDoesNotChangeReports: an attached collector must not perturb
// the simulation — the Report must match an unobserved run exactly.
func TestObserveDoesNotChangeReports(t *testing.T) {
	w := workloads.Integer()[0]
	opts := Options{Budget: 40_000}

	plain := NewRunner(1)
	base, err := plain.Run(context.Background(), core.Baseline(), w, opts)
	if err != nil {
		t.Fatal(err)
	}

	observed := NewRunner(1)
	c := NewObsCollector(5_000, 10_000)
	observed.Observe = c.Sink
	got, err := observed.Run(context.Background(), core.Baseline(), w, opts)
	if err != nil {
		t.Fatal(err)
	}
	if base.String() != got.String() || base.Cycles != got.Cycles || base.Instructions != got.Instructions {
		t.Errorf("observed run diverged:\nbase: %sgot:  %s", base, got)
	}
}

func TestServeDebug(t *testing.T) {
	addr, err := ServeDebug("127.0.0.1:0", NewRunner(1))
	if err != nil {
		t.Fatal(err)
	}
	if addr == "" {
		t.Error("ServeDebug returned empty address")
	}
}
