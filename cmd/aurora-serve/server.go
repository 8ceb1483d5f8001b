package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"

	"aurora/internal/bpred"
	"aurora/internal/core"
	"aurora/internal/harness"
	"aurora/internal/resultstore"
	"aurora/internal/sample"
	"aurora/internal/workloads"
)

// server is the aurora-serve request surface: one shared Runner (worker
// pool + memo table) optionally backed by one shared result store
// (runner.Store, nil when serving without persistence), so
// every request — sweep submission or figure fetch — resolves memory →
// disk → simulate. Under heavy repeated traffic almost everything becomes
// a store or memo hit, which is the point.
type server struct {
	runner *harness.Runner

	// defaultBudget bounds a sweep cell whose submission leaves the
	// budget unset. Figure endpoints use figureOpts wholesale; its BPred,
	// the -bpred flag, is also the predictor of sweep submissions that do
	// not name one (zero keeps the paper's branch-folding front end).
	defaultBudget uint64
	figureOpts    harness.Options
}

func newServer(runner *harness.Runner, defaultBudget uint64, figureOpts harness.Options) *server {
	return &server{
		runner:        runner,
		defaultBudget: defaultBudget,
		figureOpts:    figureOpts,
	}
}

// handler builds the API mux. The debug surface (pprof/expvar) is not
// mounted here — harness.ServeDebug owns the default mux for that.
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealth)
	mux.HandleFunc("/v1/stats", s.handleStats)
	mux.HandleFunc("/v1/models", s.handleModels)
	mux.HandleFunc("/v1/workloads", s.handleWorkloads)
	mux.HandleFunc("/v1/sweep", s.handleSweep)
	mux.HandleFunc("/v1/explore", s.handleExplore)
	mux.HandleFunc("/v1/figures/", s.handleFigure)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // client gone; nothing to do
}

func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	h := map[string]any{
		"status":       "ok",
		"code_version": resultstore.CodeVersion(),
		"workers":      s.runner.Workers(),
	}
	if st := s.runner.Store; st != nil {
		h["store"] = st.Dir()
		h["store_read_only"] = st.ReadOnly()
	}
	writeJSON(w, http.StatusOK, h)
}

func (s *server) handleStats(w http.ResponseWriter, _ *http.Request) {
	st := map[string]any{"runner": s.runner.Stats()}
	if s.runner.Store != nil {
		st["store"] = s.runner.Store.Stats()
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *server) handleModels(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"models": harness.ModelNames})
}

func (s *server) handleWorkloads(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"workloads": workloads.Names()})
}

// sweepRequest is one submission: the cross product models × workloads at
// one budget. Empty models selects the paper's Table 1 models; empty
// workloads selects the integer suite. Sampled submissions estimate each
// cell from periodic detailed windows instead of simulating every
// instruction; Sample overrides the sampling parameters (zero fields keep
// the defaults — see docs/SIMULATION-MODES.md).
type sweepRequest struct {
	Models    []string      `json:"models"`
	Workloads []string      `json:"workloads"`
	Budget    uint64        `json:"budget"`
	Scheduled bool          `json:"scheduled"`
	Sampled   bool          `json:"sampled"`
	Sample    sample.Params `json:"sample"`
	// BPred selects a branch predictor for every cell of the submission,
	// in -bpred flag syntax (e.g. "gshare:entries=4096,hist=12"). Empty
	// uses the daemon's -bpred default; "folding" forces the paper's
	// front end even when the daemon default is a predictor.
	BPred string `json:"bpred"`
}

// sweepCell is one streamed result line. Healthy cells carry the headline
// numbers; faulted cells reuse the keep-going wire shape partial tables
// print — FAULT(subsystem@cycle) plus the coordinates. Errors that are not
// typed faults (VM faults, cancellation) render as a plain error string.
type sweepCell struct {
	Model        string  `json:"model"`
	Workload     string  `json:"workload"`
	Budget       uint64  `json:"budget"`
	Scheduled    bool    `json:"scheduled,omitempty"`
	CPI          float64 `json:"cpi,omitempty"`
	Instructions uint64  `json:"instructions,omitempty"`
	Cycles       uint64  `json:"cycles,omitempty"`
	// Sampled cells: the confidence bound on CPI, the window count behind
	// it, and the sampling discriminator that keys the estimate in the
	// store (never aliasing an exact run). Cycles is then the estimate
	// CPI x Instructions, not a simulated count.
	CPIError  float64 `json:"cpi_err,omitempty"`
	Windows   int     `json:"windows,omitempty"`
	SampleKey string  `json:"sample_key,omitempty"`
	// BPred is the canonical predictor key when the cell ran with a
	// branch predictor instead of the paper's folding front end.
	BPred string     `json:"bpred,omitempty"`
	Fault *wireFault `json:"fault,omitempty"`
	Error string     `json:"error,omitempty"`
}

// wireFault is the PR 4 fault-cell shape: subsystem, simulated cycle, and
// the compact cell annotation.
type wireFault struct {
	Subsystem string `json:"subsystem"`
	Cycle     uint64 `json:"cycle"`
	Cell      string `json:"cell"`
}

// sweepSummary terminates the stream.
type sweepSummary struct {
	Done    bool `json:"done"`
	Cells   int  `json:"cells"`
	Faulted int  `json:"faulted"`
	Errors  int  `json:"errors"`
}

// resolveSweep validates a submission against the model and workload
// registries before any job is scheduled.
func resolveSweep(req *sweepRequest, defaultBudget uint64) ([]core.Config, []*workloads.Workload, error) {
	if len(req.Models) == 0 {
		req.Models = []string{"small", "baseline", "large"}
	}
	cfgs := make([]core.Config, 0, len(req.Models))
	for _, name := range req.Models {
		cfg, err := harness.ModelByName(name)
		if err != nil {
			return nil, nil, err
		}
		cfgs = append(cfgs, cfg)
	}
	var ws []*workloads.Workload
	if len(req.Workloads) == 0 {
		ws = workloads.Integer()
	} else {
		for _, name := range req.Workloads {
			w, err := workloads.Get(name)
			if err != nil {
				return nil, nil, err
			}
			ws = append(ws, w)
		}
	}
	if req.Budget == 0 {
		req.Budget = defaultBudget
	}
	return cfgs, ws, nil
}

// handleSweep runs the submitted grid on the shared runner and streams one
// NDJSON line per cell as it lands, then a summary line. Cells arrive in
// completion order — each line is self-describing — while the results
// themselves are deterministic: any cell's content is a pure function of
// its key, whatever order the pool schedules.
func (s *server) handleSweep(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST a sweep submission")
		return
	}
	var req sweepRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad submission: %v", err)
		return
	}
	cfgs, ws, err := resolveSweep(&req, s.defaultBudget)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if req.Sampled && req.Scheduled {
		httpError(w, http.StatusBadRequest, "sampled sweeps do not support the scheduled trace pass")
		return
	}
	if !req.Sampled && req.Sample != (sample.Params{}) {
		// Rejected, never silently ignored: sampling parameters on an
		// exact submission would otherwise be dropped on the floor and the
		// caller would read exact cells as the estimates it asked for.
		httpError(w, http.StatusBadRequest, "sample parameters require a sampled submission (set sampled:true)")
		return
	}
	// The submission's predictor wins over the daemon default; an explicit
	// "folding" parses to the zero config and so forces the paper's front
	// end either way.
	reqBPred := s.figureOpts.BPred
	if req.BPred != "" {
		bp, err := bpred.Parse(req.BPred)
		if err != nil {
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
		reqBPred = bp
	}

	var sp *sample.Params
	if req.Sampled {
		if err := req.Sample.CheckBudget(req.Budget); err != nil {
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
		sp = &req.Sample
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	// One goroutine per cell: the runner's semaphore bounds actual
	// simulation, and the store/memo answer most cells without a slot.
	opts := harness.Options{Budget: req.Budget, Scheduled: req.Scheduled, BPred: reqBPred}
	cells := make(chan sweepCell)
	var wg sync.WaitGroup
	for _, cfg := range cfgs {
		for _, wl := range ws {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c, err := s.runner.Cell(r.Context(), cfg, wl, opts, sp)
				select {
				case cells <- wireCell(cfg.Name, wl.Name, opts, c, err):
				case <-r.Context().Done():
				}
			}()
		}
	}
	go func() {
		wg.Wait()
		close(cells)
	}()

	enc := json.NewEncoder(w)
	sum := sweepSummary{Done: true}
	for cell := range cells {
		sum.Cells++
		if cell.Fault != nil {
			sum.Faulted++
		}
		if cell.Error != "" {
			sum.Errors++
		}
		if enc.Encode(cell) != nil {
			return // client hung up; jobs drain via r.Context()
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
	enc.Encode(sum) //nolint:errcheck // stream end; client may be gone
}

// wireCell renders one Runner.Cell outcome as its stream line: the
// headline numbers of an exact run or a sampled estimate, the fault object
// of a faulted cell, or the text of any other error.
func wireCell(model, workload string, opts harness.Options, c harness.BenchCPI, err error) sweepCell {
	cell := sweepCell{Model: model, Workload: workload, Budget: opts.Budget, Scheduled: opts.Scheduled}
	if !opts.BPred.IsDefault() {
		cell.BPred = opts.BPred.Normalize().Key()
	}
	switch {
	case err != nil:
		cell.Error = err.Error()
	case c.Fault != nil:
		cell.Fault = &wireFault{Subsystem: c.Fault.Subsystem, Cycle: c.Fault.Cycle, Cell: c.Fault.Cell()}
	case c.Sampled != nil:
		cell.CPI, cell.CPIError = c.CPI, c.CPIError
		cell.Instructions = c.Sampled.Instructions
		cell.Cycles = c.Sampled.EstimatedCycles
		cell.Windows = c.Sampled.Windows
		cell.SampleKey = c.Sampled.SampleKey
	default:
		cell.CPI = c.CPI
		cell.Instructions = c.Report.Instructions
		cell.Cycles = c.Report.Cycles
	}
	return cell
}

// exploreRequest is one design-space exploration submission. Grid selects
// a candidate preset ("default" or "tiny"); the remaining fields overlay
// the preset, with zero values keeping its defaults (see docs/EXPLORER.md).
type exploreRequest struct {
	Workload   string        `json:"workload"`
	Grid       string        `json:"grid"`
	Budget     uint64        `json:"budget"`
	Rungs      int           `json:"rungs"`
	Halve      uint64        `json:"halve"`
	Slack      float64       `json:"slack"`
	MaxCostRBE int           `json:"max_cost_rbe"`
	Sampled    bool          `json:"sampled"`
	Sample     sample.Params `json:"sample"`
}

// exploreCell is one streamed evaluation line: which candidate ran at which
// rung and what it measured. Faulted evaluations reuse the sweep's
// wire-fault shape and omit the CPI; the search drops them and goes on.
type exploreCell struct {
	Rung     int        `json:"rung"`
	Budget   uint64     `json:"budget"`
	Sampled  bool       `json:"sampled,omitempty"`
	Label    string     `json:"label"`
	CostRBE  int        `json:"cost_rbe"`
	CPI      float64    `json:"cpi,omitempty"`
	CPIError float64    `json:"cpi_err,omitempty"`
	Fault    *wireFault `json:"fault,omitempty"`
}

// explorePoint is one frontier member of the terminating summary.
type explorePoint struct {
	Label   string  `json:"label"`
	CostRBE int     `json:"cost_rbe"`
	CPI     float64 `json:"cpi"`
	Budget  uint64  `json:"budget"`
	BPred   string  `json:"bpred,omitempty"`
}

// exploreSummary terminates the exploration stream.
type exploreSummary struct {
	Done        bool           `json:"done"`
	Candidates  int            `json:"candidates"`
	CostPruned  int            `json:"cost_pruned,omitempty"`
	Evaluations int            `json:"evaluations"`
	Faulted     int            `json:"faulted"`
	Frontier    []explorePoint `json:"frontier"`
	Error       string         `json:"error,omitempty"`
}

// handleExplore runs an adaptive Pareto-frontier search on the shared
// runner and streams one NDJSON line per candidate evaluation as it lands,
// then a summary carrying the frontier. Like the sweep, lines arrive in
// completion order while the frontier itself is deterministic.
func (s *server) handleExplore(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST an exploration submission")
		return
	}
	var req exploreRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad submission: %v", err)
		return
	}
	// Resolve up front: once the stream starts the status is spent.
	spec, err := harness.ExploreSpecFor(req.Grid, harness.ExploreSpec{
		Workload: req.Workload, FullBudget: req.Budget, Rungs: req.Rungs, Halve: req.Halve,
		Slack: req.Slack, MaxCostRBE: req.MaxCostRBE, Sampled: req.Sampled, Sample: req.Sample,
	})
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	cells := make(chan exploreCell)
	ex := &harness.Explorer{
		Runner: s.runner,
		Spec:   spec,
		Observe: func(ev harness.ExploreEvent) {
			cell := exploreCell{
				Rung: ev.Rung, Budget: ev.Budget, Sampled: ev.Sampled,
				Label: ev.Label, CostRBE: ev.CostRBE,
			}
			if ev.Fault != nil {
				// The CPI is NaN here, which encoding/json cannot carry;
				// the fault object is the value.
				cell.Fault = &wireFault{Subsystem: ev.Fault.Subsystem, Cycle: ev.Fault.Cycle, Cell: ev.Fault.Cell()}
			} else {
				cell.CPI = ev.CPI
				cell.CPIError = ev.CPIError
			}
			select {
			case cells <- cell:
			case <-r.Context().Done():
			}
		},
	}
	type outcome struct {
		res *harness.ExploreResult
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := ex.Run(r.Context())
		done <- outcome{res, err}
		close(cells)
	}()

	enc := json.NewEncoder(w)
	for cell := range cells {
		if enc.Encode(cell) != nil {
			return // client hung up; Run unwinds via r.Context()
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
	out := <-done
	sum := exploreSummary{Done: true}
	if out.err != nil {
		sum.Error = out.err.Error()
	} else {
		sum.Candidates = out.res.Candidates
		sum.CostPruned = out.res.CostPruned
		sum.Evaluations = out.res.Evaluations()
		sum.Faulted = len(out.res.Faults)
		sum.Frontier = make([]explorePoint, 0, len(out.res.Frontier))
		for _, p := range out.res.Frontier {
			sum.Frontier = append(sum.Frontier, explorePoint{
				Label: p.Label, CostRBE: p.CostRBE, CPI: p.CPI,
				Budget: p.Budget, BPred: p.BPred,
			})
		}
	}
	enc.Encode(sum) //nolint:errcheck // stream end; client may be gone
	if flusher != nil {
		flusher.Flush()
	}
}

// handleFigure renders one registry artifact as text. The render assembles
// its cells in input order, so — unlike the sweep stream — the body is
// byte-identical on every request, hot or cold.
func (s *server) handleFigure(w http.ResponseWriter, r *http.Request) {
	name := strings.TrimPrefix(r.URL.Path, "/v1/figures/")
	art, ok := harness.ArtifactNamed(name)
	if !ok {
		var names []string
		for _, a := range harness.Artifacts() {
			names = append(names, a.Name)
		}
		httpError(w, http.StatusNotFound, "unknown figure %q (%s)", name, strings.Join(names, ", "))
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if err := harness.Render(r.Context(), w, s.runner, s.figureOpts, []harness.Artifact{art}, nil); err != nil {
		// Headers are gone; append the error to the body.
		fmt.Fprintf(w, "\nerror: %v\n", err)
	}
}
