package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"sync"
	"syscall"
	"time"

	"aurora/internal/core"
	"aurora/internal/workloads"
)

// daemon is one aurora-serve process, started with one simulation worker
// over a persistent store.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://host:port
	pprof  string // http://host:port of the debug surface, "" without -pprof
	logged chan struct{}
	log    bytes.Buffer
}

var (
	listenLine = regexp.MustCompile(`aurora-serve \S+ on (http://\S+) `)
	debugLine  = regexp.MustCompile(`debug surface on (http://[^/\s]+)/debug/pprof`)
)

// startDaemon launches aurora-serve on a free localhost port and returns
// once /healthz answers.
func startDaemon(ctx context.Context, bin, storeDir string, withPprof bool) (*daemon, error) {
	args := []string{"-addr", "127.0.0.1:0", "-j", "1", "-store", storeDir}
	if withPprof {
		args = append(args, "-pprof", "127.0.0.1:0")
	}
	d := &daemon{cmd: exec.Command(bin, args...), logged: make(chan struct{})}
	// The daemon must not outlive a benchmark that is killed outright.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := d.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start aurora-serve: %w", err)
	}
	ready := make(chan struct{})
	var mu sync.Mutex
	go func() {
		defer close(d.logged)
		sc := bufio.NewScanner(stderr)
		signalled := false
		for sc.Scan() {
			line := sc.Text()
			mu.Lock()
			d.log.WriteString(line + "\n")
			if m := debugLine.FindStringSubmatch(line); m != nil {
				d.pprof = m[1]
			}
			if m := listenLine.FindStringSubmatch(line); m != nil && !signalled {
				d.base = m[1]
				signalled = true
				close(ready)
			}
			mu.Unlock()
		}
	}()
	select {
	case <-ready:
	case <-d.logged:
		d.cmd.Wait() //nolint:errcheck // reported through the log below
		return nil, fmt.Errorf("aurora-serve exited before listening: %s", d.log.String())
	case <-time.After(60 * time.Second):
		d.stop()
		return nil, errors.New("aurora-serve did not report its address within 60s")
	case <-ctx.Done():
		d.stop()
		return nil, ctx.Err()
	}
	mu.Lock()
	base := d.base
	mu.Unlock()
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // drained for reuse only
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("aurora-serve /healthz not ready: %v", err)
		}
	}
}

func (d *daemon) pid() string { return strconv.Itoa(d.cmd.Process.Pid) }

// stop terminates the daemon and waits for it and its log reader to end.
func (d *daemon) stop() {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		d.cmd.Process.Kill() //nolint:errcheck // best effort after a failed SIGTERM
	}
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill() //nolint:errcheck // it ignored SIGTERM
		<-done
	}
	<-d.logged
}

// getJSON fetches a JSON document from the daemon.
func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// runnerStats is the runner block of /v1/stats.
type runnerStats struct {
	Hits, Misses, Simulated, StoreHits, StoreMisses uint64
}

func (d *daemon) stats() (runnerStats, error) {
	var st struct {
		Runner runnerStats `json:"runner"`
	}
	err := getJSON(d.base+"/v1/stats", &st)
	return st.Runner, err
}

// sweepRequest is the /v1/sweep submission body.
type sweepRequest struct {
	Models    []string `json:"models"`
	Workloads []string `json:"workloads"`
	Budget    uint64   `json:"budget"`
}

// servedCell is one NDJSON line of a sweep response, cell or summary.
type servedCell struct {
	Model        string          `json:"model"`
	Workload     string          `json:"workload"`
	Budget       uint64          `json:"budget"`
	Instructions uint64          `json:"instructions"`
	Cycles       uint64          `json:"cycles"`
	Fault        json.RawMessage `json:"fault"`
	Error        string          `json:"error"`
	Done         bool            `json:"done"`
	Cells        int             `json:"cells"`
	Faulted      int             `json:"faulted"`
	Errors       int             `json:"errors"`
}

// reqClass is what a request should cost the daemon.
type reqClass int

const (
	classMemo  reqClass = iota // every cell already in the daemon's memo
	classStore                 // some cell touched for the first time: a store read
	classCold                  // a single cell nobody asked for before: a simulation
)

// request is one submission and what came of it.
type request struct {
	body   sweepRequest
	class  reqClass
	dur    time.Duration
	cal    time.Duration // the calibration before this request's slice (calib.go)
	end    time.Duration // completion, in the phase's time outside calibrations
	bytes  int
	instr  uint64 // instructions the returned cells stand for
	cells  int
	served bool // the daemon answered 200: the latency is real even if the content is wrong
	failed error
}

// post submits one sweep and reads its NDJSON stream to the summary line.
// Every cell is checked against the pins. A non-200 status, a stream that
// ends without the summary, a summary that disagrees with the cells read,
// a fault or error cell, or a cell differing from its pin fails the
// request.
func post(client *http.Client, base string, ref *reference, q *request) {
	want := len(q.body.Models) * len(q.body.Workloads)
	body, _ := json.Marshal(q.body) // strings and a number: cannot fail
	t := time.Now()
	defer func() { q.dur = time.Since(t) }()
	resp, err := client.Post(base+"/v1/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		q.failed = err
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		q.failed = fmt.Errorf("sweep: %s: %s", resp.Status, bytes.TrimSpace(b))
		return
	}
	q.served = true
	sc := bufio.NewScanner(resp.Body)
	done := false
	for sc.Scan() {
		line := sc.Bytes()
		q.bytes += len(line) + 1
		var c servedCell
		if err := json.Unmarshal(line, &c); err != nil {
			q.failed = fmt.Errorf("sweep: bad NDJSON line %q: %w", line, err)
			return
		}
		if c.Done {
			if c.Cells != q.cells || c.Faulted != 0 || c.Errors != 0 || q.cells != want {
				q.failed = fmt.Errorf("sweep: summary %d cells (%d faulted, %d errors), read %d of %d", c.Cells, c.Faulted, c.Errors, q.cells, want)
				return
			}
			done = true
			continue
		}
		if done {
			q.failed = errors.New("sweep: data after the summary line")
			return
		}
		q.cells++
		if c.Error != "" || len(c.Fault) > 0 {
			q.failed = fmt.Errorf("sweep: %s/%s failed: %s%s", c.Workload, c.Model, c.Error, c.Fault)
			return
		}
		if c.Budget != q.body.Budget {
			q.failed = fmt.Errorf("sweep: cell budget %d, asked %d", c.Budget, q.body.Budget)
			return
		}
		if err := ref.checkServed(c.Workload+"/"+c.Model, c.Budget, c.Instructions, c.Cycles); err != nil {
			q.failed = err
			return
		}
		q.instr += c.Instructions
	}
	if err := sc.Err(); err != nil {
		q.failed = fmt.Errorf("sweep: reading stream: %w", err)
		return
	}
	if !done {
		q.failed = fmt.Errorf("sweep: stream ended after %d cells without the summary line", q.cells)
	}
}

// Shape of the serve traffic mix.
const (
	// coldEvery: one in coldEvery requests, drawn at random, is a cold cell.
	// A tenth keeps simulation rare while putting the cold class well
	// past the 95th percentile with tens of samples beyond it.
	coldEvery = 10
	// Warm requests sweep warmModels x warmKernels cells of the warm grid:
	// on serve, all 24 of them. A request's fixed cost, a loopback round
	// trip with a wake-up at each end, moves with the shared host's load;
	// it was 60% of a 6-cell request's time, and serve's sips moved by
	// 10-25% within half an hour while the sweeps' moved under 1%. At 24
	// cells it is about a quarter of the request.
	warmModels  = 4
	warmKernels = 6
	// sliceRequests requests follow each calibration: about a tenth of a
	// second of traffic per 7 ms calibration.
	sliceRequests = 200
)

// mix generates the serve workload's requests from the seed: warm sweeps
// over random subsets of the warm grid (pinned exact cells, filled into
// the store at set-up) and cold single cells drawn without replacement
// from the permuted cold pool.
type mix struct {
	kernels []*workloads.Workload
	models  []core.Config
	cold    []coldCell
	next    int             // next unused cold-pool index
	touched map[string]bool // warm cells requested so far
}

type coldCell struct {
	c      cell
	budget uint64
}

func newMix(warm []*workloads.Workload, ms []core.Config, cold []*workloads.Workload, poolPerCell int, seed int64) *mix {
	x := &mix{kernels: warm, models: ms, touched: map[string]bool{}}
	for _, c := range grid(cold, ms) {
		for j := 0; j < poolPerCell; j++ {
			x.cold = append(x.cold, coldCell{c, coldBudget(j)})
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(x.cold), func(i, j int) { x.cold[i], x.cold[j] = x.cold[j], x.cold[i] })
	return x
}

// coldRequest takes the next cold cell; ok is false once the pool is spent.
func (x *mix) coldRequest() (request, bool) {
	if x.next >= len(x.cold) {
		return request{}, false
	}
	cc := x.cold[x.next]
	x.next++
	return request{class: classCold, body: sweepRequest{
		Models: []string{cc.c.model.Name}, Workloads: []string{cc.c.kernel.Name}, Budget: cc.budget,
	}}, true
}

// resetTouched forgets which warm cells were requested, for a fresh daemon.
func (x *mix) resetTouched() {
	x.touched = map[string]bool{}
}

// untouched counts the warm cells not requested yet.
func (x *mix) untouched() int {
	return len(x.kernels)*len(x.models) - len(x.touched)
}

// warmRequest picks a warm sweep and classifies it by whether it touches
// a cell for the first time.
func (x *mix) warmRequest(rng *rand.Rand) request {
	q := request{class: classMemo, body: sweepRequest{Budget: exactBudget}}
	for _, i := range rng.Perm(len(x.models))[:min(warmModels, len(x.models))] {
		q.body.Models = append(q.body.Models, x.models[i].Name)
	}
	for _, i := range rng.Perm(len(x.kernels))[:min(warmKernels, len(x.kernels))] {
		q.body.Workloads = append(q.body.Workloads, x.kernels[i].Name)
	}
	for _, m := range q.body.Models {
		for _, k := range q.body.Workloads {
			if !x.touched[k+"/"+m] {
				x.touched[k+"/"+m] = true
				q.class = classStore
			}
		}
	}
	return q
}

// traffic drives the daemon with one closed-loop client for d: it sends
// its next request only when the previous one has completed. A second
// client, with the daemon's handler and simulation worker, put more busy
// threads than cores on the two-core host, and its runs measured the
// scheduler. traffic returns the completed requests and whether the cold
// pool ran out (which ends the phase early rather than changing the mix).
// With cal, every sliceRequests requests are preceded by a calibration,
// whose time counts neither in d nor in the returned wall time.
func traffic(ctx context.Context, base string, ref *reference, x *mix, seed int64, d time.Duration, rec *recorder, cal *calibration) (reqs []request, wall time.Duration, exhausted bool) {
	rng := rand.New(rand.NewSource(seed * 1_000_003))
	hc := &http.Client{Timeout: 60 * time.Second}
	start := time.Now()
	var paused time.Duration
	elapsed := func() time.Duration { return time.Since(start) - paused }
	var calTime time.Duration
	for n := 0; elapsed() < d && ctx.Err() == nil; n++ {
		if cal != nil && n%sliceRequests == 0 {
			t := time.Now()
			calTime = cal.run()
			paused += time.Since(t)
		}
		var q request
		if rng.Intn(coldEvery) == 0 {
			var ok bool
			if q, ok = x.coldRequest(); !ok {
				return reqs, elapsed(), true
			}
		} else {
			q = x.warmRequest(rng)
		}
		id := rec.id()
		t := time.Now()
		post(hc, base, ref, &q)
		q.end = elapsed()
		q.cal = calTime
		rec.add(span{ID: id, Op: id, Name: className[q.class], Layer: "aurora-serve"}, t, q.dur)
		reqs = append(reqs, q)
	}
	return reqs, elapsed(), false
}

var className = map[reqClass]string{classMemo: "memo-hit sweep", classStore: "store-hit sweep", classCold: "cold cell"}
