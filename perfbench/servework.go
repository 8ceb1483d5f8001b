package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"aurora/internal/resultstore"
)

// fillStore is serve's set-up work before the daemon starts: a fresh
// store filled with the warm grid by simulating it through a store-backed
// runner (every cell checked against its pin).
func fillStore(ctx context.Context, sw *sweeper, dir string) (pass, error) {
	if err := os.RemoveAll(dir); err != nil {
		return pass{}, err
	}
	st, err := resultstore.Open(dir)
	if err != nil {
		return pass{}, err
	}
	sw.store = st
	defer func() { sw.store = nil }()
	return sw.run(ctx, nil, nil), nil
}

// openDaemon starts aurora-serve on dir and checks that it keys the store
// with this process's code version — otherwise every warm cell would miss
// the store and simulate.
func openDaemon(ctx context.Context, o runOpts, dir string, withPprof bool) (*daemon, error) {
	d, err := startDaemon(ctx, o.serveBin, dir, withPprof)
	if err != nil {
		return nil, err
	}
	var h struct {
		CodeVersion string `json:"code_version"`
	}
	if err := getJSON(d.base+"/healthz", &h); err != nil || h.CodeVersion != resultstore.CodeVersion() {
		d.stop()
		return nil, fmt.Errorf("aurora-serve code version %q (err %v), benchmark %q", h.CodeVersion, err, resultstore.CodeVersion())
	}
	return d, nil
}

// servePhase is one stretch of traffic against one daemon.
type servePhase struct {
	reqs      []request
	wall      time.Duration
	exhausted bool
	before    runnerStats
	after     runnerStats
	cold      int
	instr     uint64
	errs      []error
}

func (sp servePhase) latencies(classes ...reqClass) []float64 {
	var out []float64
	for _, q := range sp.reqs {
		if !q.served {
			continue
		}
		for _, c := range classes {
			if q.class == c {
				out = append(out, ms(q.dur))
			}
		}
	}
	return out
}

// drive runs the mix against d for dur and checks the daemon's own
// accounting: the runner must have simulated exactly the cold cells
// issued, so no warm cell ever re-simulates.
func drive(ctx context.Context, d *daemon, o runOpts, x *mix, seed int64, dur time.Duration, rec *recorder, cal *calibration) servePhase {
	var sp servePhase
	var err error
	if sp.before, err = d.stats(); err != nil {
		sp.errs = append(sp.errs, err)
	}
	sp.reqs, sp.wall, sp.exhausted = traffic(ctx, d.base, o.ref, x, seed, dur, rec, cal)
	if sp.after, err = d.stats(); err != nil {
		sp.errs = append(sp.errs, err)
	}
	for _, q := range sp.reqs {
		if q.class == classCold {
			sp.cold++
		}
		if q.failed != nil {
			sp.errs = append(sp.errs, q.failed)
			continue
		}
		sp.instr += q.instr
	}
	if sim := sp.after.Simulated - sp.before.Simulated; sim != uint64(sp.cold) {
		sp.errs = append(sp.errs, fmt.Errorf("serve: daemon simulated %d cells, %d cold cells were issued", sim, sp.cold))
	}
	return sp
}

// window is one whole second of a phase's time outside calibrations.
type window struct {
	instr uint64
	dur   time.Duration // the served requests' host time
	cals  []time.Duration
	reqs  []request
}

// windows splits the phase's served requests by the second they ended in
// and gives each second the calibration factor of the slices that ran in
// it (1 without calibration).
func (sp servePhase) windows() ([]window, []float64) {
	n := max(int(sp.wall/time.Second), 1)
	w := make([]window, n)
	for _, q := range sp.reqs {
		if !q.served {
			continue
		}
		i := min(int(q.end/time.Second), n-1)
		w[i].reqs = append(w[i].reqs, q)
		if q.failed == nil {
			w[i].instr += q.instr
			w[i].dur += q.dur
		}
		if q.cal > 0 {
			w[i].cals = append(w[i].cals, q.cal)
		}
	}
	scale := make([]float64, n)
	for i := range w {
		scale[i] = 1
		if len(w[i].cals) > 0 {
			scale[i] = factor(w[i].cals)
		}
	}
	return w, scale
}

// sips is the median over the phase's whole seconds of the instructions
// the cells answered in that second stand for, per reference-host second
// of their requests, so neither a burst of contention inside the run nor
// a slower host moves it.
func (sp servePhase) sips() float64 {
	w, scale := sp.windows()
	var rates []float64
	for i := range w {
		if w[i].dur > 0 {
			rates = append(rates, float64(w[i].instr)/(w[i].dur.Seconds()*scale[i]))
		}
	}
	return median(rates)
}

// scaledP50 is the median request time in reference-host ms, and
// scaleP50 the median calibration factor the requests were scaled by.
func (sp servePhase) scaledP50() (p50, scaleP50 float64) {
	w, scale := sp.windows()
	var lat, sc []float64
	for i := range w {
		for _, q := range w[i].reqs {
			lat = append(lat, ms(q.dur)*scale[i])
			sc = append(sc, scale[i])
		}
	}
	return median(lat), median(sc)
}

// serveValues are the serve-layer metrics of a phase.
func (sp servePhase) serveValues() map[string]float64 {
	var kb []float64
	for _, q := range sp.reqs {
		if q.failed == nil {
			kb = append(kb, float64(q.bytes)/1024)
		}
	}
	all := sp.latencies(classMemo, classStore, classCold)
	return map[string]float64{
		"serve.memo_hit_ms_p50":  median(sp.latencies(classMemo)),
		"serve.store_hit_ms_p50": median(sp.latencies(classStore)),
		"serve.cold_ms_p50":      median(sp.latencies(classCold)),
		"serve.req_p99_ms":       percentile(all, 99),
		"serve.resp_kb_p50":      median(kb),
		"serve.cold_cells":       float64(sp.cold),
	}
}

// runServe measures the serve workload.
func runServe(ctx context.Context, s spec, o runOpts) (*outcome, error) {
	res := newOutcome()
	kernels := o.scale.kernelsOf(s)
	models := o.scale.models()
	sw := &sweeper{kind: exactSweep, cells: grid(kernels, models), ref: o.ref, rng: rand.New(rand.NewSource(o.seed))}
	x := newMix(kernels, models, kernels, coldBudgets, o.seed)
	cal := newCalibration()

	// Set-up: fill a fresh store, start a fresh daemon on it, wait for
	// /healthz, in reference-host seconds (calibrated just before and
	// after each repetition). Repeated, and the median reported; the last daemon
	// serves.
	var setup []float64
	var d *daemon
	var fill pass
	for i := 0; i < o.scale.setupReps; i++ {
		if d != nil {
			d.stop() // replaced by the next repetition's daemon
		}
		before := []time.Duration{cal.run(), cal.run(), cal.run()}
		t := time.Now()
		dir := filepath.Join(o.out, "serve-store-"+strconv.Itoa(i))
		var err error
		if fill, err = fillStore(ctx, sw, dir); err != nil {
			return nil, err
		}
		res.attempted += fill.ops
		res.fail(fill.errs...)
		if d, err = openDaemon(ctx, o, dir, o.traced); err != nil {
			return nil, err
		}
		setup = append(setup, time.Since(t).Seconds()*factor(append(before, cal.run(), cal.run(), cal.run())))
	}
	res.detail["setup_s_reps"] = setup
	storeDir := filepath.Join(o.out, "serve-store-"+strconv.Itoa(o.scale.setupReps-1))

	if !o.traced {
		sp := drive(ctx, d, o, x, o.seed, time.Duration(o.seconds*float64(time.Second)), nil, cal)
		rss, err := peakRSSMB(d.pid())
		d.stop()
		res.fail(err)
		res.attempted += len(sp.reqs)
		res.fail(sp.errs...)
		all := sp.latencies(classMemo, classStore, classCold)
		p50, scale := sp.scaledP50()
		res.merge(map[string]float64{
			"setup_s":     median(setup),
			"sips":        sp.sips(),
			"op_p50_ms":   p50,
			"peak_rss_mb": rss,
		})
		res.detail["ops"] = len(sp.reqs)
		res.detail["cold_cells"] = sp.cold
		res.detail["cold_pool_exhausted"] = sp.exhausted
		res.detail["measured_s"] = sp.wall.Seconds()
		res.detail["op_p50_host_ms"] = median(all)
		res.detail["op_p95_host_ms"] = percentile(all, 95)
		res.detail["op_p99_host_ms"] = percentile(all, 99)
		res.detail["host_scale_p50"] = scale
		res.detail["ops_beyond_p99"] = beyond(all, percentile(all, 99))
		return res, nil
	}

	// Traced: an untraced phase on the set-up daemon, then a traced phase
	// on a fresh daemon (empty memo again) with its CPU profile taken
	// through -pprof while the traffic runs.
	base := drive(ctx, d, o, x, o.seed, halves(o.seconds), nil, cal)
	d.stop()
	res.attempted += len(base.reqs)
	res.fail(base.errs...)
	x.resetTouched()
	d, err := openDaemon(ctx, o, storeDir, true)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	rec := newRecorder()
	profPath := filepath.Join(o.out, fmt.Sprintf("cpu-%s-seed%d.pprof", s.Name, o.seed))
	profDone := make(chan error, 1)
	go func() {
		secs := int(halves(o.seconds) / time.Second)
		profDone <- fetchFile(fmt.Sprintf("%s/debug/pprof/profile?seconds=%d", d.pprof, secs), profPath)
	}()
	m0, err0 := d.memStats()
	tr := drive(ctx, d, o, x, o.seed+1, halves(o.seconds), rec, cal)
	m1, err1 := d.memStats()
	res.fail(err0, err1, <-profDone)
	res.attempted += len(tr.reqs)
	res.fail(tr.errs...)
	res.merge(tr.serveValues())
	res.merge(map[string]float64{
		"harness.cell_ms_max": maxOf(tr.latencies(classMemo, classStore, classCold)),
		"harness.simulated":   float64(tr.after.Simulated - tr.before.Simulated),
		"harness.memo_hits":   float64(tr.after.Hits - tr.before.Hits),
		"harness.store_hits":  float64(tr.after.StoreHits - tr.before.StoreHits),
		"go.gc_cycles":        float64((m1.NumGC - m1.NumForcedGC) - (m0.NumGC - m0.NumForcedGC)),
		"go.alloc_mb":         float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20),
		"go.allocs_per_instr": float64(m1.Mallocs-m0.Mallocs) / float64(max(tr.instr, 1)),
		"trace.overhead_pct":  (median(tr.latencies(classMemo, classStore, classCold))/median(base.latencies(classMemo, classStore, classCold)) - 1) * 100,
	})
	res.detail["cold_cells_issued"] = tr.cold

	p := &panel{kernels: kernels, models: models, ref: o.ref, rec: rec, dir: o.out}
	res.merge(coreMetrics(fill.cells))
	res.merge(p.vm(exactBudget))
	res.merge(p.sampled(ctx, false))
	storeVals, _ := p.store(reportsOf(fill.cells))
	res.merge(storeVals)
	res.attempted += p.ops
	res.fail(p.errs...)

	shares, err := profileShares(profPath, o.root, o.out)
	if err != nil {
		return nil, err
	}
	for b, v := range shares {
		res.values["prof."+b+"_pct"] = v
	}
	return res, finishTrace(res, rec, o, s)
}

// serveProbe is the serve layer's panel entry for the sweep workloads: a
// daemon over the panel's store (holding the workload's grid), driven by
// one client through every warm cell once (store reads), then memo-hit
// sweeps and cold cells from serve's pool.
func (p *panel) serveProbe(ctx context.Context, o runOpts, storeDir string) map[string]float64 {
	d, err := openDaemon(ctx, o, storeDir, false)
	if err != nil {
		p.fail(err)
		return nil
	}
	defer d.stop()
	serve, _ := specByName("serve")
	x := newMix(p.kernels, p.models, o.scale.kernelsOf(serve), coldBudgets, o.seed)
	var sp servePhase
	sp.before, err = d.stats()
	p.fail(err)
	rng := rand.New(rand.NewSource(o.seed))
	hc := &http.Client{Timeout: 60 * time.Second}
	issue := func(q request) {
		id := p.rec.id()
		t := time.Now()
		post(hc, d.base, o.ref, &q)
		p.rec.add(span{ID: id, Op: id, Name: className[q.class], Layer: "aurora-serve"}, t, q.dur)
		p.ops++
		p.fail(q.failed)
		if q.class == classCold {
			sp.cold++
		}
		sp.reqs = append(sp.reqs, q)
	}
	for i := 0; i < 100 && x.untouched() > 0; i++ {
		issue(x.warmRequest(rng))
	}
	for i := 0; i < 40; i++ {
		issue(x.warmRequest(rng))
	}
	for i := 0; i < 8; i++ {
		q, ok := x.coldRequest()
		if !ok {
			break
		}
		issue(q)
	}
	sp.after, err = d.stats()
	p.fail(err)
	if sim := sp.after.Simulated - sp.before.Simulated; sim != uint64(sp.cold) {
		p.fail(fmt.Errorf("serve probe: daemon simulated %d cells, %d cold cells were issued", sim, sp.cold))
	}
	return sp.serveValues()
}

// fetchFile downloads url into path.
func fetchFile(url, path string) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := io.Copy(f, resp.Body); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// memStats is the Go runtime's memstats block of the daemon's /debug/vars.
type memStats struct {
	NumGC, NumForcedGC  uint32
	TotalAlloc, Mallocs uint64
}

func (d *daemon) memStats() (memStats, error) {
	var v struct {
		MemStats memStats `json:"memstats"`
	}
	err := getJSON(d.pprof+"/debug/vars", &v)
	return v.MemStats, err
}
