package obs

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// MetricsRow is one finished interval of the time series. Values are indexed
// by the sampler's column order (Names); counter columns hold per-interval
// deltas, gauge columns the sampled value.
type MetricsRow struct {
	// Cycle is the end-of-interval cycle (inclusive): the cycle the
	// sample batch was emitted. The final row of a run may close a
	// partial interval.
	Cycle  uint64
	Values []float64
}

// IntervalSampler is a Sink that buckets the core's Sample batches into
// per-interval rows. Counters (cumulative totals) are differenced against
// the previous row, so summing a counter column over all rows reproduces
// the end-of-run total exactly; gauges pass through unchanged.
//
// The core emits one batch per SampleInterval cycles plus one final batch
// at the end of the run, so the last row covers the final partial interval
// (or the whole run, when the run is shorter than one interval).
type IntervalSampler struct {
	interval uint64

	names []string
	kinds []MetricKind
	index map[string]int

	prevCum []float64 // previous cumulative value per counter column
	rows    []MetricsRow

	cur      []float64
	curCycle uint64
	pending  bool
}

// NewIntervalSampler creates a sampler emitting one row per interval cycles
// (interval < 1 is clamped to 1).
func NewIntervalSampler(interval uint64) *IntervalSampler {
	if interval < 1 {
		interval = 1
	}
	return &IntervalSampler{interval: interval, index: map[string]int{}}
}

// SampleInterval implements Sink.
func (s *IntervalSampler) SampleInterval() uint64 { return s.interval }

// Event implements Sink; the sampler ignores timeline events.
func (s *IntervalSampler) Event(Event) {}

// Sample implements Sink: a change of Cycle closes the pending row.
func (s *IntervalSampler) Sample(smp Sample) {
	if s.pending && smp.Cycle != s.curCycle {
		s.closeRow()
	}
	i, ok := s.index[smp.Name]
	if !ok {
		i = len(s.names)
		s.index[smp.Name] = i
		s.names = append(s.names, smp.Name)
		s.kinds = append(s.kinds, smp.Kind)
		s.prevCum = append(s.prevCum, 0)
	}
	for len(s.cur) <= i {
		s.cur = append(s.cur, 0)
	}
	s.cur[i] = smp.Value
	s.curCycle = smp.Cycle
	s.pending = true
}

func (s *IntervalSampler) closeRow() {
	vals := make([]float64, len(s.names))
	for i := range s.names {
		v := 0.0
		if i < len(s.cur) {
			v = s.cur[i]
		}
		if s.kinds[i] == KindCounter {
			vals[i] = v - s.prevCum[i]
			s.prevCum[i] = v
		} else {
			vals[i] = v
		}
	}
	s.rows = append(s.rows, MetricsRow{Cycle: s.curCycle, Values: vals})
	s.pending = false
}

// Flush closes any pending row. Writers call it; it is idempotent.
func (s *IntervalSampler) Flush() {
	if s.pending {
		s.closeRow()
	}
}

// Names returns the metric column names in emission order.
func (s *IntervalSampler) Names() []string {
	s.Flush()
	return s.names
}

// Rows returns the finished interval rows in cycle order.
func (s *IntervalSampler) Rows() []MetricsRow {
	s.Flush()
	return s.rows
}

// Total returns the sum of a counter column over all rows (the reconciled
// end-of-run total) or, for a gauge, its final value. ok is false when the
// metric was never emitted.
func (s *IntervalSampler) Total(name string) (v float64, ok bool) {
	s.Flush()
	i, ok := s.index[name]
	if !ok {
		return 0, false
	}
	if s.kinds[i] == KindGauge {
		if len(s.rows) == 0 {
			return 0, false
		}
		return rowValue(s.rows[len(s.rows)-1], i), true
	}
	for _, r := range s.rows {
		v += rowValue(r, i)
	}
	return v, true
}

// rowValue reads one column of a row, treating columns that had not yet been
// registered when the row closed as zero (a metric can first appear mid-run).
func rowValue(r MetricsRow, i int) float64 {
	if i >= len(r.Values) {
		return 0
	}
	return r.Values[i]
}

// FormatValue renders one metric value without losing precision (counters
// print as integers, gauges in shortest round-trip form).
func FormatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteCSV writes the time series as CSV: a header row ("cycle" plus the
// metric names), then one row per interval.
func (s *IntervalSampler) WriteCSV(w io.Writer) error {
	s.Flush()
	cw := csv.NewWriter(w)
	if err := cw.Write(append([]string{"cycle"}, s.names...)); err != nil {
		return err
	}
	rec := make([]string, 1+len(s.names))
	for _, r := range s.rows {
		rec[0] = strconv.FormatUint(r.Cycle, 10)
		for i := range s.names {
			rec[1+i] = FormatValue(rowValue(r, i))
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteJSONL writes the time series as JSON Lines: one object per interval
// with a "cycle" key and one key per metric, in emission order.
func (s *IntervalSampler) WriteJSONL(w io.Writer) error {
	s.Flush()
	var b strings.Builder
	for _, r := range s.rows {
		b.Reset()
		fmt.Fprintf(&b, `{"cycle":%d`, r.Cycle)
		for i, name := range s.names {
			fmt.Fprintf(&b, `,%s:%s`, strconv.Quote(name), FormatValue(rowValue(r, i)))
		}
		b.WriteString("}\n")
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}
