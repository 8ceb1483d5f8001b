package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"aurora/internal/workloads"
)

// serveBin is an aurora-serve binary built from this checkout for the
// tests that start the daemon.
var serveBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	serveBin = filepath.Join(dir, "aurora-serve")
	if out, err := exec.Command("go", "build", "-o", serveBin, "aurora/cmd/aurora-serve").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "build aurora-serve: %v\n%s", err, out)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func TestMetricNamesAndUnits(t *testing.T) {
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	var setup metricDef
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !metricName.MatchString(d.Name) {
			t.Errorf("metric name %q does not match %s", d.Name, metricName)
		}
		if !unitName.MatchString(d.Unit) {
			t.Errorf("metric %s: unit %q does not match %s", d.Name, d.Unit, unitName)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s: better %q", d.Name, d.Better)
		}
		if seen[d.Name] {
			t.Errorf("metric %s declared twice", d.Name)
		}
		seen[d.Name] = true
		if d.Name == "setup_s" {
			setup = d
		}
	}
	if setup.Unit != "s" || setup.Better != "lower" {
		t.Fatalf("setup_s must be an end-to-end metric in s, lower better: %+v", setup)
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Bound > setup.Bound {
			t.Errorf("%s: bound %v exceeds setup_s's %v; set-up must have the largest", d.Name, d.Bound, setup.Bound)
		}
	}
}

func TestManifestMatchesCheckedIn(t *testing.T) {
	want, err := manifestJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var w, g any
	if err := json.Unmarshal(want, &w); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(got, &g); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(w, g) {
		t.Errorf("BENCHMARK.json differs from the metric registry; regenerate with -manifest:\n%s", want)
	}
	if len(got) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(got))
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		// statistics.quantiles(in, n=4), Python's default exclusive method.
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1}, [3]float64{0.5, 2, 3.5}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{0.9, 1.3, 1.1, 1.0, 1.2, 1.05, 0.95, 1.15, 1.25, 1.02}, [3]float64{0.9875, 1.075, 1.2125}},
	} {
		q1, q2, q3 := quartiles(c.in)
		for i, got := range []float64{q1, q2, q3} {
			if math.Abs(got-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v)[%d] = %v, want %v", c.in, i, got, c.want[i])
			}
		}
	}
}

func TestProfileBuckets(t *testing.T) {
	internal := "/src/aurora/internal/"
	for file, want := range map[string]string{
		"/src/aurora/internal/ipu/ifu.go":                       "ipu",
		"/src/aurora/internal/resultstore/store.go":             "resultstore",
		"/src/aurora/internal/obs/probe.go":                     "other",
		"/usr/local/go/src/internal/trace/parser.go":            "other",
		"/usr/local/go/src/runtime/mgc.go":                      "runtime",
		"/usr/local/go/src/internal/runtime/syscall/asm.s":      "syscall",
		"/usr/local/go/src/net/http/server.go":                  "http",
		"/usr/local/go/src/encoding/json/encode.go":             "json",
		"/src/aurora/perfbench/serve.go":                        "other",
		"/usr/local/go/src/internal/runtime/atomic/types.go":    "runtime",
		"/usr/local/go/src/internal/runtime/maps/runtime_64.go": "runtime",
	} {
		if got := bucketOf(file, internal); got != want {
			t.Errorf("bucketOf(%s) = %s, want %s", file, got, want)
		}
	}
}

// tinyOpts runs the tiny scale against the checked-in pins.
func tinyOpts(t *testing.T, traced bool, ref *reference) runOpts {
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	return runOpts{
		seed: 7, seconds: 1, traced: traced, root: root, out: t.TempDir(),
		serveBin: serveBin, scale: tinyScale, ref: ref,
	}
}

func mustPinned(t *testing.T) *reference {
	ref, err := pinned()
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

// TestTinyRunsEmitEveryMetric runs every workload at the tiny scale, plain
// and traced, and checks each reports its full metric set, correctly.
func TestTinyRunsEmitEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	ref := mustPinned(t)
	fpuIdle := map[string]float64{}
	for _, s := range specs {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", s.Name, traced), func(t *testing.T) {
				oc, err := runSpec(context.Background(), s, tinyOpts(t, traced, ref))
				if err != nil {
					t.Fatal(err)
				}
				res, err := newResult(traced, oc.values, oc.attempted, len(oc.errs), len(oc.errs) == 0)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 {
					t.Fatalf("run not correct: %v", oc.errs)
				}
				if len(res.Metrics) != len(defs(traced)) {
					t.Fatalf("%d metrics, want %d", len(res.Metrics), len(defs(traced)))
				}
				if !traced {
					for _, d := range endToEnd {
						if res.Metrics[d.Name].Value <= 0 {
							t.Errorf("%s = %v; end-to-end metrics are never 0", d.Name, res.Metrics[d.Name].Value)
						}
					}
					return
				}
				fpuIdle[s.Name] = oc.values["sim.fpu_idle_frac"]
				if s.Kind == serveMix {
					// A warm cell never re-simulates: the daemon simulated
					// exactly the cold cells issued.
					sim, cold := oc.values["harness.simulated"], oc.values["serve.cold_cells"]
					if sim != cold || cold == 0 {
						t.Errorf("serve: harness.simulated %v, cold cells issued %v", sim, cold)
					}
				}
			})
		}
	}
	if !(fpuIdle["exact-int"] > fpuIdle["exact-fp"]) {
		t.Errorf("sim.fpu_idle_frac: exact-int %v should exceed exact-fp %v", fpuIdle["exact-int"], fpuIdle["exact-fp"])
	}
}

// perturbed returns a copy of the pins with one cell's digest changed.
func perturbed(t *testing.T, edit func(*reference)) *reference {
	b, err := json.Marshal(mustPinned(t))
	if err != nil {
		t.Fatal(err)
	}
	ref := &reference{}
	if err := json.Unmarshal(b, ref); err != nil {
		t.Fatal(err)
	}
	edit(ref)
	return ref
}

func TestPerturbedDigestFailsGate(t *testing.T) {
	cases := map[string]func(*reference){
		"exact-int": func(r *reference) {
			p := r.Exact["espresso/small"]
			p.Digest = "0000000000000000"
			r.Exact["espresso/small"] = p
		},
		"sampled": func(r *reference) {
			p := r.Sampled["espresso/baseline"]
			p.Digest = "0000000000000000"
			r.Sampled["espresso/baseline"] = p
		},
	}
	for name, edit := range cases {
		t.Run(name, func(t *testing.T) {
			s, _ := specByName(name)
			o := tinyOpts(t, false, perturbed(t, edit))
			o.seconds = 0.01
			oc, err := runSpec(context.Background(), s, o)
			if err != nil {
				t.Fatal(err)
			}
			res, err := newResult(false, oc.values, oc.attempted, len(oc.errs), len(oc.errs) == 0)
			if err != nil {
				t.Fatal(err)
			}
			if res.Correct || res.Failed == 0 {
				t.Fatalf("a perturbed digest passed the gate: correct %v, failed %d", res.Correct, res.Failed)
			}
			if !strings.Contains(oc.errs[0].Error(), "digest") {
				t.Errorf("failure does not name the digest: %v", oc.errs[0])
			}
		})
	}
}

// fakeDaemon serves /v1/stats and a /v1/sweep that answers the i-th
// request with responses[i % len].
func fakeDaemon(t *testing.T, responses []func(w http.ResponseWriter)) *daemon {
	var n atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/stats", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprint(w, `{"runner":{"Simulated":0}}`)
	})
	mux.HandleFunc("/v1/sweep", func(w http.ResponseWriter, _ *http.Request) {
		responses[(n.Add(1)-1)%int64(len(responses))](w)
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return &daemon{base: srv.URL}
}

func TestServeFailuresCount(t *testing.T) {
	ref := mustPinned(t)
	pin := ref.Exact["espresso/small"]
	good := fmt.Sprintf(`{"model":"small","workload":"espresso","budget":%d,"instructions":%d,"cycles":%d}`, exactBudget, pin.Instructions, pin.Cycles)
	bad := fmt.Sprintf(`{"model":"small","workload":"espresso","budget":%d,"instructions":%d,"cycles":%d}`, exactBudget, pin.Instructions, pin.Cycles+1)
	summary := `{"done":true,"cells":1,"faulted":0,"errors":0}`
	for name, c := range map[string]struct {
		respond func(w http.ResponseWriter)
		fails   bool
	}{
		"whole stream":    {func(w http.ResponseWriter) { fmt.Fprintln(w, good); fmt.Fprintln(w, summary) }, false},
		"non-200":         {func(w http.ResponseWriter) { http.Error(w, "overloaded", http.StatusServiceUnavailable) }, true},
		"truncated":       {func(w http.ResponseWriter) { fmt.Fprintln(w, good) }, true},
		"cut mid-line":    {func(w http.ResponseWriter) { fmt.Fprint(w, good[:20]) }, true},
		"wrong cycles":    {func(w http.ResponseWriter) { fmt.Fprintln(w, bad); fmt.Fprintln(w, summary) }, true},
		"summary differs": {func(w http.ResponseWriter) { fmt.Fprintln(w, good); fmt.Fprintln(w, `{"done":true,"cells":2}`) }, true},
		"fault cell": {func(w http.ResponseWriter) {
			fmt.Fprintln(w, `{"model":"small","workload":"espresso","budget":300000,"fault":{"subsystem":"fpu","cycle":9,"cell":"FAULT(fpu@9)"}}`)
			fmt.Fprintln(w, `{"done":true,"cells":1,"faulted":1,"errors":0}`)
		}, true},
	} {
		t.Run(name, func(t *testing.T) {
			d := fakeDaemon(t, []func(http.ResponseWriter){c.respond})
			q := request{body: sweepRequest{Models: []string{"small"}, Workloads: []string{"espresso"}, Budget: exactBudget}}
			post(http.DefaultClient, d.base, ref, &q)
			if (q.failed != nil) != c.fails {
				t.Fatalf("failed = %v, want failure %v", q.failed, c.fails)
			}
		})
	}

	// Through traffic and drive: every failed request lands in the
	// phase's errors, which the run reports as failed operations.
	d := fakeDaemon(t, []func(http.ResponseWriter){
		func(w http.ResponseWriter) { fmt.Fprintln(w, good) },
		func(w http.ResponseWriter) { http.Error(w, "no", http.StatusInternalServerError) },
	})
	kernels := kernelsOf(t, "espresso")
	x := newMix(kernels, models()[:1], kernels, 4, 1)
	o := runOpts{ref: ref}
	sp := drive(context.Background(), d, o, x, 1, 200*time.Millisecond, nil, nil)
	failed := 0
	for _, q := range sp.reqs {
		if q.failed != nil {
			failed++
		}
	}
	if len(sp.reqs) == 0 || failed != len(sp.reqs) {
		t.Fatalf("%d of %d requests failed; every response was broken", failed, len(sp.reqs))
	}
	if len(sp.errs) < failed {
		t.Fatalf("%d errors recorded for %d failed requests", len(sp.errs), failed)
	}
}

func kernelsOf(t *testing.T, names ...string) []*workloads.Workload {
	t.Helper()
	var out []*workloads.Workload
	for _, n := range names {
		w, err := workloads.Get(n)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, w)
	}
	return out
}
