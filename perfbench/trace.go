package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// recorder keeps the traced run's spans in memory until the run ends.
// Spans are recorded by the benchmark around its calls into each layer —
// the program itself is not instrumented. A nil recorder records nothing,
// which is how untraced runs and phases call the same code.
type recorder struct {
	t0    time.Time
	next  atomic.Uint64
	mu    sync.Mutex
	spans []span
}

// span is one timed call: Parent is the span that caused it (0: none);
// spans of one request or cell share Op.
type span struct {
	ID     uint64
	Parent uint64
	Op     uint64
	Name   string
	Layer  string
	Worker int
	Start  time.Duration
	Dur    time.Duration
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// id reserves a span identifier (0 on a nil recorder).
func (r *recorder) id() uint64 {
	if r == nil {
		return 0
	}
	return r.next.Add(1)
}

// add records a finished span.
func (r *recorder) add(s span, start time.Time, dur time.Duration) {
	if r == nil {
		return
	}
	s.Start, s.Dur = start.Sub(r.t0), dur
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// selfTimes returns each span name's total self time in milliseconds: a
// span's duration minus the part of it its children cover (children that
// ran in parallel cover their union once).
func (r *recorder) selfTimes() map[string]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := map[uint64][]span{}
	for _, s := range r.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]float64{}
	for _, s := range r.spans {
		cs := children[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		var covered, end time.Duration
		for _, c := range cs {
			lo, hi := max(c.Start, end, s.Start), min(c.Start+c.Dur, s.Start+s.Dur)
			if hi > lo {
				covered += hi - lo
				end = hi
			}
		}
		out[s.Layer+"/"+s.Name] += ms(s.Dur - covered)
	}
	return out
}

// writeChrome writes the spans in the Chrome trace-event format, which
// Perfetto (ui.perfetto.dev) and chrome://tracing open directly.
func (r *recorder) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	r.mu.Lock()
	events := make([]event, 0, len(r.spans))
	for _, s := range r.spans {
		events = append(events, event{
			Name: s.Name, Cat: s.Layer, Ph: "X",
			TS:  float64(s.Start.Nanoseconds()) / 1e3,
			Dur: float64(s.Dur.Nanoseconds()) / 1e3,
			PID: 1, TID: s.Worker,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "op": s.Op},
		})
	}
	r.mu.Unlock()
	b, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// profileShares aggregates a CPU profile by package with the toolchain's
// own `go tool pprof -files` (file granularity), returning each profBuckets
// entry's share of flat (self) samples in percent. root is the checkout
// whose internal/<pkg> files are the simulator's packages.
func profileShares(profile, root, tmp string) (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-files", "-nodecount=1000000", "-nodefraction=0", profile)
	cmd.Env = append(os.Environ(), "PPROF_TMPDIR="+tmp)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	shares := map[string]float64{}
	for _, b := range profBuckets {
		shares[b] = 0
	}
	internal := filepath.Join(root, "internal") + string(filepath.Separator)
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		// flat flat% sum% cum cum% file [(inline)]
		if len(f) < 6 || !strings.HasSuffix(f[1], "%") {
			continue
		}
		pct, err := strconv.ParseFloat(strings.TrimSuffix(f[1], "%"), 64)
		if err != nil {
			continue
		}
		shares[bucketOf(f[5], internal)] += pct
	}
	return shares, nil
}

// bucketOf maps a source file to its profBuckets entry.
func bucketOf(file, internal string) string {
	if rest, ok := strings.CutPrefix(file, internal); ok {
		pkg, _, _ := strings.Cut(rest, string(filepath.Separator))
		for _, b := range profBuckets {
			if b == pkg {
				return b
			}
		}
		return "other"
	}
	switch {
	case strings.Contains(file, "/src/net/http/"):
		return "http"
	case strings.Contains(file, "/src/encoding/json/"):
		return "json"
	case strings.Contains(file, "/src/syscall/"), strings.Contains(file, "/src/internal/runtime/syscall/"):
		return "syscall"
	case strings.Contains(file, "/src/runtime/"), strings.Contains(file, "/src/internal/runtime/"):
		return "runtime"
	}
	return "other"
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
