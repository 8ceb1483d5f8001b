package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"aurora/internal/faultinject"
	"aurora/internal/harness"
	"aurora/internal/resultstore"
)

// newTestServer wires a server exactly as main does, against a store in
// dir (or none when dir is empty), and returns it with its HTTP front.
func newTestServer(t *testing.T, dir string) (*server, *httptest.Server) {
	t.Helper()
	runner := harness.NewRunner(2)
	if dir != "" {
		var err error
		runner.Store, err = resultstore.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
	}
	s := newServer(runner, 5_000, harness.Options{Budget: 2_000, SweepBudget: 1_000})
	ts := httptest.NewServer(s.handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// postSweep submits body and decodes the NDJSON stream into cells plus the
// terminating summary.
func postSweep(t *testing.T, ts *httptest.Server, body string) ([]sweepCell, sweepSummary) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("sweep returned %d: %s", resp.StatusCode, b)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q, want NDJSON", ct)
	}
	var cells []sweepCell
	var sum sweepSummary
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Bytes()
		var probe struct {
			Done bool `json:"done"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			t.Fatalf("bad stream line %q: %v", line, err)
		}
		if probe.Done {
			if err := json.Unmarshal(line, &sum); err != nil {
				t.Fatal(err)
			}
			continue
		}
		var c sweepCell
		if err := json.Unmarshal(line, &c); err != nil {
			t.Fatal(err)
		}
		cells = append(cells, c)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !sum.Done {
		t.Fatal("stream ended without a summary line")
	}
	return cells, sum
}

func TestSweepStreamsEveryCell(t *testing.T) {
	s, ts := newTestServer(t, "")
	cells, sum := postSweep(t, ts, `{"models":["small","baseline"],"workloads":["espresso","li"],"budget":2000}`)
	if len(cells) != 4 || sum.Cells != 4 {
		t.Fatalf("got %d cells (summary %d), want 4", len(cells), sum.Cells)
	}
	if sum.Faulted != 0 || sum.Errors != 0 {
		t.Fatalf("unexpected faults/errors in summary: %+v", sum)
	}
	seen := map[string]bool{}
	for _, c := range cells {
		seen[c.Model+"/"+c.Workload] = true
		if c.CPI <= 0 || c.Instructions == 0 || c.Cycles == 0 {
			t.Errorf("cell %s/%s incomplete: %+v", c.Model, c.Workload, c)
		}
		if c.Budget != 2000 {
			t.Errorf("cell budget = %d, want 2000", c.Budget)
		}
	}
	for _, key := range []string{"small/espresso", "small/li", "baseline/espresso", "baseline/li"} {
		if !seen[key] {
			t.Errorf("cell %s missing from stream", key)
		}
	}
	if st := s.runner.Stats(); st.Misses != 4 {
		t.Errorf("runner misses = %d, want 4", st.Misses)
	}
}

func TestSweepDefaultsAndValidation(t *testing.T) {
	_, ts := newTestServer(t, "")

	// An unknown model is rejected before any job is scheduled.
	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(`{"models":["warp9"]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown model returned %d, want 400", resp.StatusCode)
	}

	// GET is not a submission.
	resp, err = http.Get(ts.URL + "/v1/sweep")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET sweep returned %d, want 405", resp.StatusCode)
	}

	// Empty submission: paper models x integer suite at the default budget.
	cells, sum := postSweep(t, ts, `{"workloads":["li"]}`)
	if sum.Cells != 3 {
		t.Fatalf("default sweep produced %d cells, want 3 (small, baseline, large)", sum.Cells)
	}
	for _, c := range cells {
		if c.Budget != 5_000 {
			t.Errorf("cell budget = %d, want server default 5000", c.Budget)
		}
	}
}

// TestSweepSecondSubmissionHitsStore is the daemon-level cache check: the
// same grid submitted twice against a store-backed server simulates only
// once, and a fresh server over the same directory answers entirely from
// disk.
func TestSweepSecondSubmissionHitsStore(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, dir)
	const body = `{"models":["small"],"workloads":["espresso","li"],"budget":2000}`

	first, _ := postSweep(t, ts, body)
	st := s.runner.Stats()
	if st.Simulated != 2 || st.StoreMisses != 2 {
		t.Fatalf("cold sweep: %+v, want 2 simulated / 2 store misses", st)
	}

	second, _ := postSweep(t, ts, body)
	st = s.runner.Stats()
	if st.Simulated != 2 || st.Hits != 2 {
		t.Fatalf("warm sweep re-simulated: %+v", st)
	}

	// A fresh process (modelled by a fresh runner) over the same store
	// directory serves the whole grid from disk.
	s2, ts2 := newTestServer(t, dir)
	third, _ := postSweep(t, ts2, body)
	st = s2.runner.Stats()
	if st.Simulated != 0 || st.StoreHits != 2 {
		t.Fatalf("fresh server over warm store simulated: %+v", st)
	}

	byKey := func(cells []sweepCell) map[string]sweepCell {
		m := map[string]sweepCell{}
		for _, c := range cells {
			m[c.Model+"/"+c.Workload] = c
		}
		return m
	}
	a, b, c := byKey(first), byKey(second), byKey(third)
	for k := range a {
		if a[k] != b[k] || a[k] != c[k] {
			t.Errorf("cell %s differs across submissions: %+v / %+v / %+v", k, a[k], b[k], c[k])
		}
	}
}

// TestSweepFaultedCellWireShape checks a faulted cell streams the PR 4
// fault-cell shape — subsystem, cycle, FAULT(subsystem@cycle) — with no
// CPI (NaN is not JSON), and that the sweep still completes.
func TestSweepFaultedCellWireShape(t *testing.T) {
	faultinject.Arm(faultinject.LSUDispatch)
	defer faultinject.Reset()

	_, ts := newTestServer(t, "")
	cells, sum := postSweep(t, ts, `{"models":["small"],"workloads":["espresso"],"budget":2000}`)
	if sum.Cells != 1 || sum.Faulted != 1 {
		t.Fatalf("summary %+v, want 1 faulted cell", sum)
	}
	c := cells[0]
	if c.Fault == nil {
		t.Fatalf("cell carries no fault: %+v", c)
	}
	if c.Fault.Subsystem != "ipu" {
		t.Errorf("fault subsystem = %q, want ipu", c.Fault.Subsystem)
	}
	want := fmt.Sprintf("FAULT(%s@%d)", c.Fault.Subsystem, c.Fault.Cycle)
	if c.Fault.Cell != want {
		t.Errorf("fault cell = %q, want %q", c.Fault.Cell, want)
	}
	if c.CPI != 0 || c.Instructions != 0 {
		t.Errorf("faulted cell leaked report fields: %+v", c)
	}
}

// TestSweepFaultedSampledCells: a sampled submission with a hot-path site
// armed streams one fault object per cell, with no estimate fields, and the
// summary counts every cell as faulted.
func TestSweepFaultedSampledCells(t *testing.T) {
	faultinject.Arm(faultinject.LSUDispatch)
	defer faultinject.Reset()

	_, ts := newTestServer(t, "")
	cells, sum := postSweep(t, ts, `{"models":["small","baseline"],"workloads":["espresso"],"budget":120000,`+
		`"sampled":true,"sample":{"warm_up":20000,"interval":10000,"window":2000}}`)
	if sum.Cells != 2 || sum.Faulted != 2 || sum.Errors != 0 {
		t.Fatalf("summary %+v, want 2 faulted cells", sum)
	}
	for _, c := range cells {
		if c.Fault == nil || c.Fault.Subsystem != "ipu" || c.Fault.Cell != fmt.Sprintf("FAULT(ipu@%d)", c.Fault.Cycle) {
			t.Errorf("cell %+v, want an ipu fault object", c)
		}
		if c.CPI != 0 || c.CPIError != 0 || c.Windows != 0 || c.SampleKey != "" {
			t.Errorf("faulted sampled cell leaked estimate fields: %+v", c)
		}
	}
}

func TestFigureEndpointDeterministicAndCached(t *testing.T) {
	dir := t.TempDir()
	fetch := func(ts *httptest.Server, name string) (int, string) {
		resp, err := http.Get(ts.URL + "/v1/figures/" + name)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(b)
	}

	s, ts := newTestServer(t, dir)
	code, cold := fetch(ts, "table3")
	if code != http.StatusOK {
		t.Fatalf("table3 returned %d: %s", code, cold)
	}
	if !strings.Contains(cold, "espresso") {
		t.Fatalf("table3 body does not look like a rate table:\n%s", cold)
	}
	simulated := s.runner.Stats().Simulated

	// A fresh server over the same store renders byte-identical output
	// with zero simulation.
	s2, ts2 := newTestServer(t, dir)
	if _, warm := fetch(ts2, "table3"); warm != cold {
		t.Errorf("warm table3 differs from cold:\n--- cold ---\n%s--- warm ---\n%s", cold, warm)
	}
	if st := s2.runner.Stats(); st.Simulated != 0 || st.StoreHits != simulated {
		t.Errorf("warm render simulated: %+v (cold simulated %d)", st, simulated)
	}

	// Every registry artifact is served, and its body is byte-identical
	// on a second fetch.
	var names []string
	for _, a := range harness.Artifacts() {
		names = append(names, a.Name)
		code, first := fetch(ts, a.Name)
		if code != http.StatusOK || strings.Contains(first, "error:") {
			t.Errorf("%s returned %d:\n%s", a.Name, code, first)
			continue
		}
		if _, second := fetch(ts, a.Name); second != first {
			t.Errorf("%s body differs between fetches:\n--- first ---\n%s--- second ---\n%s", a.Name, first, second)
		}
	}

	code, body := fetch(ts, "fig99")
	if code != http.StatusNotFound || !strings.Contains(body, "unknown figure") {
		t.Errorf("unknown figure returned %d: %s", code, body)
	}
	if list := strings.Join(names, ", "); !strings.Contains(body, list) {
		t.Errorf("404 body does not list the figures in registry order (%s): %s", list, body)
	}
}

func TestHealthAndStats(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, dir)

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health["status"] != "ok" || health["store"] != dir {
		t.Fatalf("healthz = %v", health)
	}
	if v, ok := health["code_version"].(string); !ok || v == "" {
		t.Fatalf("healthz missing code_version: %v", health)
	}

	postSweep(t, ts, `{"models":["small"],"workloads":["li"],"budget":1000}`)
	resp, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Runner harness.RunnerStats `json:"runner"`
		Store  *resultstore.Stats  `json:"store"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Runner.Misses != 1 || stats.Runner.Simulated != 1 {
		t.Errorf("stats runner = %+v, want 1 miss / 1 simulated", stats.Runner)
	}
	if stats.Store == nil || stats.Store.Puts != 1 {
		t.Errorf("stats store = %+v, want 1 put", stats.Store)
	}
}

func TestModelAndWorkloadListings(t *testing.T) {
	_, ts := newTestServer(t, "")
	for path, field := range map[string]string{"/v1/models": "models", "/v1/workloads": "workloads"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		var body map[string][]string
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if len(body[field]) == 0 {
			t.Errorf("%s returned no %s", path, field)
		}
	}
}

// TestSweepStreamIsIncremental ensures cells are flushed as they land, not
// buffered until the sweep ends: the recorder must have seen a flush per
// line.
func TestSweepStreamIsIncremental(t *testing.T) {
	s, _ := newTestServer(t, "")
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/sweep",
		strings.NewReader(`{"models":["small"],"workloads":["li"],"budget":1000}`))
	s.handler().ServeHTTP(rec, req)
	if !rec.Flushed {
		t.Error("sweep stream never flushed")
	}
	if !bytes.Contains(rec.Body.Bytes(), []byte(`"done":true`)) {
		t.Errorf("stream missing summary: %s", rec.Body.String())
	}
}

// TestSweepSampledCells checks a sampled submission streams estimates with
// their confidence bounds and sampling key, that the estimates persist under
// sampled store keys (a fresh server answers from disk), and that the store
// never confuses a sampled estimate with an exact run of the same grid.
func TestSweepSampledCells(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, dir)
	const body = `{"models":["small"],"workloads":["espresso"],"budget":120000,` +
		`"sampled":true,"sample":{"warm_up":20000,"interval":10000,"window":2000}}`

	cells, sum := postSweep(t, ts, body)
	if sum.Cells != 1 || sum.Faulted != 0 || sum.Errors != 0 {
		t.Fatalf("summary %+v, want 1 healthy cell", sum)
	}
	c := cells[0]
	if c.CPI <= 0 || c.CPIError <= 0 || c.Windows < 2 || c.SampleKey == "" {
		t.Fatalf("sampled cell incomplete: %+v", c)
	}
	if st := s.runner.Stats(); st.Simulated != 1 || st.StoreMisses != 1 {
		t.Fatalf("cold sampled sweep: %+v", st)
	}

	// A fresh server over the same store serves the estimate from disk…
	s2, ts2 := newTestServer(t, dir)
	warm, _ := postSweep(t, ts2, body)
	if st := s2.runner.Stats(); st.Simulated != 0 || st.StoreHits != 1 {
		t.Fatalf("fresh server re-simulated the sampled cell: %+v", st)
	}
	if warm[0] != c {
		t.Errorf("sampled cell differs across servers: %+v / %+v", c, warm[0])
	}

	// …while the same grid submitted exactly is a store miss: sampled
	// estimates never answer exact submissions.
	exact, _ := postSweep(t, ts2, `{"models":["small"],"workloads":["espresso"],"budget":120000}`)
	if st := s2.runner.Stats(); st.Simulated != 1 {
		t.Fatalf("exact run after sampled run did not simulate: %+v", st)
	}
	if exact[0].CPIError != 0 || exact[0].SampleKey != "" {
		t.Errorf("exact cell carries sampled fields: %+v", exact[0])
	}
}

// TestSweepSampledRejectsScheduled: the §6 trace pass needs the full
// instruction stream the sampled mode never materialises.
func TestSweepSampledRejectsScheduled(t *testing.T) {
	_, ts := newTestServer(t, "")
	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json",
		strings.NewReader(`{"models":["small"],"workloads":["li"],"sampled":true,"scheduled":true}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("sampled+scheduled returned %d, want 400", resp.StatusCode)
	}
}

// TestSweepRejectsSampleParamsWithoutSampled is the regression test for the
// silent-ignore bug: populated sample parameters on an exact submission
// were dropped on the floor, so a caller who forgot sampled:true read exact
// cells as the estimates it asked for. The submission must be rejected.
func TestSweepRejectsSampleParamsWithoutSampled(t *testing.T) {
	_, ts := newTestServer(t, "")
	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json",
		strings.NewReader(`{"models":["small"],"workloads":["li"],"sample":{"warm_up":1000}}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("sample params without sampled:true returned %d, want 400", resp.StatusCode)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(e.Error, "sampled:true") {
		t.Errorf("rejection %q does not tell the caller the fix", e.Error)
	}
}

// postExplore submits an exploration and decodes the NDJSON stream into
// evaluation cells plus the terminating summary.
func postExplore(t *testing.T, ts *httptest.Server, body string) ([]exploreCell, exploreSummary) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/explore", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("explore returned %d: %s", resp.StatusCode, b)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q, want NDJSON", ct)
	}
	var cells []exploreCell
	var sum exploreSummary
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Bytes()
		var probe struct {
			Done bool `json:"done"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			t.Fatalf("bad stream line %q: %v", line, err)
		}
		if probe.Done {
			if err := json.Unmarshal(line, &sum); err != nil {
				t.Fatal(err)
			}
			continue
		}
		var c exploreCell
		if err := json.Unmarshal(line, &c); err != nil {
			t.Fatal(err)
		}
		cells = append(cells, c)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !sum.Done {
		t.Fatal("stream ended without a summary line")
	}
	return cells, sum
}

// TestExploreStream runs the tiny grid through the endpoint: one line per
// evaluation, the summary carries a non-empty deterministic frontier, and
// the cheapest candidate (which nothing can dominate) is on it.
func TestExploreStream(t *testing.T) {
	_, ts := newTestServer(t, "")
	cells, sum := postExplore(t, ts, `{"grid":"tiny","budget":8000}`)
	if sum.Error != "" {
		t.Fatalf("exploration errored: %s", sum.Error)
	}
	if sum.Candidates != 4 {
		t.Fatalf("tiny grid has %d candidates, want 4", sum.Candidates)
	}
	if len(cells) != sum.Evaluations || sum.Evaluations < sum.Candidates {
		t.Fatalf("%d cells streamed, summary says %d evaluations over %d candidates",
			len(cells), sum.Evaluations, sum.Candidates)
	}
	for _, c := range cells {
		if c.Label == "" || c.CostRBE == 0 || c.Budget == 0 {
			t.Errorf("evaluation cell incomplete: %+v", c)
		}
		if c.Fault == nil && c.CPI <= 0 {
			t.Errorf("healthy evaluation has no CPI: %+v", c)
		}
	}
	if len(sum.Frontier) == 0 {
		t.Fatal("summary carries no frontier")
	}
	cheapest := sum.Frontier[0]
	for i, p := range sum.Frontier {
		if p.CPI <= 0 || p.Label == "" {
			t.Errorf("frontier point incomplete: %+v", p)
		}
		if i > 0 && p.CostRBE < sum.Frontier[i-1].CostRBE {
			t.Errorf("frontier not cost-ascending at %s", p.Label)
		}
		if p.CostRBE < cheapest.CostRBE {
			cheapest = p
		}
	}
	if cheapest.Label != "i2-ic1K-wc2-rob6-mshr2-pf4" {
		t.Errorf("cheapest frontier point %q, want the tiny grid's 1K/wc2 anchor", cheapest.Label)
	}

	// The frontier is deterministic: a second submission reproduces it.
	_, sum2 := postExplore(t, ts, `{"grid":"tiny","budget":8000}`)
	if len(sum2.Frontier) != len(sum.Frontier) {
		t.Fatalf("repeat submission frontier size %d, want %d", len(sum2.Frontier), len(sum.Frontier))
	}
	for i := range sum.Frontier {
		if sum.Frontier[i] != sum2.Frontier[i] {
			t.Errorf("frontier point %d differs across submissions: %+v / %+v",
				i, sum.Frontier[i], sum2.Frontier[i])
		}
	}
}

// TestExploreFaultedCandidateWireShape: a faulted candidate streams the
// PR 4 fault-cell shape with no CPI (NaN is not JSON), is dropped from the
// frontier, and the search still terminates with a summary.
func TestExploreFaultedCandidateWireShape(t *testing.T) {
	faultinject.Arm(faultinject.LSUDispatch)
	defer faultinject.Reset()

	_, ts := newTestServer(t, "")
	cells, sum := postExplore(t, ts, `{"grid":"tiny","budget":8000}`)
	if sum.Error != "" {
		t.Fatalf("fully-faulted exploration errored: %s", sum.Error)
	}
	if sum.Faulted != sum.Candidates || len(sum.Frontier) != 0 {
		t.Fatalf("summary %+v, want every candidate faulted and no frontier", sum)
	}
	if len(cells) == 0 {
		t.Fatal("no evaluation cells streamed")
	}
	for _, c := range cells {
		if c.Fault == nil {
			t.Fatalf("cell carries no fault: %+v", c)
		}
		if c.Fault.Subsystem != "ipu" {
			t.Errorf("fault subsystem = %q, want ipu", c.Fault.Subsystem)
		}
		want := fmt.Sprintf("FAULT(%s@%d)", c.Fault.Subsystem, c.Fault.Cycle)
		if c.Fault.Cell != want {
			t.Errorf("fault cell = %q, want %q", c.Fault.Cell, want)
		}
		if c.CPI != 0 {
			t.Errorf("faulted cell leaked a CPI: %+v", c)
		}
	}
}

// TestExploreValidation: bad grids, workloads, methods and sample-without-
// sampled submissions are rejected before the stream starts.
func TestExploreValidation(t *testing.T) {
	_, ts := newTestServer(t, "")
	for _, body := range []string{
		`{"grid":"galactic"}`,
		`{"grid":"tiny","workload":"warp9"}`,
		`{"grid":"tiny","sample":{"warm_up":1000}}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/explore", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("submission %s returned %d, want 400", body, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/explore")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET explore returned %d, want 405", resp.StatusCode)
	}
}

// TestSweepRejectsShortSampledBudget: a sampled sweep whose budget cannot
// yield two windows used to answer 200 and then stream one error line per
// cell. It is a 400 naming the budget and what it falls short of, before
// the stream starts.
func TestSweepRejectsShortSampledBudget(t *testing.T) {
	_, ts := newTestServer(t, "")
	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json",
		strings.NewReader(`{"models":["small"],"workloads":["espresso"],"budget":20000,"sampled":true}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400 (body %s)", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "budget 20000 is below the 83000 instructions") {
		t.Errorf("body %q does not carry the budget and the instructions it needs", body)
	}
}

// TestExploreRejectsShortSampledScreens: a sampled exploration whose first
// screen cannot yield two windows — the tiny grid screens at 10k
// instructions, below the default 50k warm-up — is a 400 carrying
// ExploreSpecFor's message, before the stream starts.
func TestExploreRejectsShortSampledScreens(t *testing.T) {
	_, ts := newTestServer(t, "")
	resp, err := http.Post(ts.URL+"/v1/explore", "application/json",
		strings.NewReader(`{"grid":"tiny","sampled":true}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400 (body %s)", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "sampled screens need at least 2 windows: the first rung's budget 10000") {
		t.Errorf("body %q does not carry the rung budget and the windows it needs", body)
	}
}
