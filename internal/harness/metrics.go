package harness

import (
	"io"
	"sort"
	"strconv"
	"sync"

	"aurora/internal/obs"
)

// ObsCollector aggregates per-job observability data across an experiment
// sweep. Install its Sink method as a Runner's Observe factory; every
// distinct job then records an interval-sampled time series and (within the
// configured window) a Chrome-trace timeline. Output order is fixed by the
// job key, not by scheduling, so exports are byte-identical at any worker
// count.
//
//	c := harness.NewObsCollector(10_000, 50_000)
//	r.Observe = c.Sink
//	... run experiments ...
//	c.WriteMetricsCSV(f)
type ObsCollector struct {
	interval    uint64
	traceCycles uint64 // 0 disables tracing; metrics interval 0 disables sampling

	mu   sync.Mutex
	jobs []*obsJob
}

type obsJob struct {
	info    JobInfo
	sampler *obs.IntervalSampler
	tracer  *obs.TraceSink
}

// NewObsCollector builds a collector. interval is the metric sampling cadence
// in cycles (0 disables the time series); each job's trace window is its
// first traceCycles cycles (0 disables tracing).
func NewObsCollector(interval, traceCycles uint64) *ObsCollector {
	return &ObsCollector{interval: interval, traceCycles: traceCycles}
}

// Sink is the Runner.Observe factory: one sampler + tracer per distinct job.
func (c *ObsCollector) Sink(job JobInfo) obs.Sink {
	j := &obsJob{info: job}
	var sinks []obs.Sink
	if c.interval > 0 {
		j.sampler = obs.NewIntervalSampler(c.interval)
		sinks = append(sinks, j.sampler)
	}
	if c.traceCycles > 0 {
		j.tracer = obs.NewTraceSink(0, c.traceCycles)
		sinks = append(sinks, j.tracer)
	}
	if len(sinks) == 0 {
		return nil
	}
	c.mu.Lock()
	c.jobs = append(c.jobs, j)
	c.mu.Unlock()
	return obs.Multi(sinks...)
}

// sorted snapshots the recorded jobs in canonical job-key order.
func (c *ObsCollector) sorted() []*obsJob {
	c.mu.Lock()
	jobs := append([]*obsJob(nil), c.jobs...)
	c.mu.Unlock()
	sort.Slice(jobs, func(a, b int) bool {
		x, y := jobs[a].info, jobs[b].info
		if x.Fingerprint != y.Fingerprint {
			return x.Fingerprint < y.Fingerprint
		}
		if x.Workload != y.Workload {
			return x.Workload < y.Workload
		}
		if x.Budget != y.Budget {
			return x.Budget < y.Budget
		}
		return !x.Scheduled && y.Scheduled
	})
	return jobs
}

// WriteMetricsCSV emits every job's time series as one long-format CSV:
// job-identity columns (config, workload, budget, scheduled) followed by the
// cycle stamp and the metric columns. Counter columns hold per-interval
// deltas (they sum to the run totals); gauge columns hold interval values.
func (c *ObsCollector) WriteMetricsCSV(w io.Writer) error {
	jobs := c.sorted()

	// Metric columns are identical across jobs (the core emits a fixed
	// batch), but take the first-seen union in job order for robustness.
	var names []string
	seen := map[string]bool{}
	for _, j := range jobs {
		if j.sampler == nil {
			continue
		}
		j.sampler.Flush()
		for _, n := range j.sampler.Names() {
			if !seen[n] {
				seen[n] = true
				names = append(names, n)
			}
		}
	}

	header := append([]string{"config", "workload", "budget", "scheduled", "cycle"}, names...)
	var rows [][]string
	for _, j := range jobs {
		if j.sampler == nil {
			continue
		}
		idx := make(map[string]int, len(names))
		for i, n := range j.sampler.Names() {
			idx[n] = i
		}
		base := []string{
			j.info.ConfigName, j.info.Workload,
			strconv.FormatUint(j.info.Budget, 10),
			strconv.FormatBool(j.info.Scheduled),
		}
		for _, row := range j.sampler.Rows() {
			out := append(append([]string(nil), base...), strconv.FormatUint(row.Cycle, 10))
			for _, n := range names {
				if i, ok := idx[n]; ok && i < len(row.Values) {
					out = append(out, obs.FormatValue(row.Values[i]))
				} else {
					out = append(out, "")
				}
			}
			rows = append(rows, out)
		}
	}
	return writeCSV(w, header, rows)
}

// WriteChromeTrace emits every job's timeline as one Chrome trace-event
// JSON document, one trace process per job (so Perfetto shows each job as
// its own group of tracks).
func (c *ObsCollector) WriteChromeTrace(w io.Writer) error {
	var procs []obs.TraceProcess
	for _, j := range c.sorted() {
		if j.tracer == nil {
			continue
		}
		procs = append(procs, obs.TraceProcess{
			Name:   j.info.Workload + " on " + j.info.ConfigName,
			Events: j.tracer.Events(),
		})
	}
	return obs.WriteChromeTrace(w, procs)
}
