// Command aurora-serve is a long-lived HTTP/JSON daemon over the sweep
// infrastructure: it accepts sweep submissions, shards the cells across a
// shared worker pool, streams per-cell results as NDJSON while they land,
// and renders the paper's figures and tables on demand. Pointed at a
// persistent result store (-store), repeated submissions and figure
// fetches are answered from disk without re-simulation.
//
// Endpoints:
//
//	GET  /healthz             liveness + code version + store binding
//	GET  /v1/stats            runner and store counters (JSON)
//	GET  /v1/models           resolvable machine models
//	GET  /v1/workloads        available workloads
//	POST /v1/sweep            submit {models, workloads, budget, scheduled};
//	                          streams one NDJSON cell per result, then a
//	                          {"done":true,...} summary line
//	POST /v1/explore          submit a design-space exploration; streams
//	                          one NDJSON line per candidate evaluation
//	GET  /v1/figures/{name}   any harness artifact as text: fig1..fig9latencies,
//	                          table3..table6, traffic, the extension studies
//	                          and bpred (a bad name lists them all)
//
// With -pprof, the standard debug surface (pprof, expvar with the
// aurora_runner and aurora_store keys) is served on a second listener.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"runtime"
	"time"

	"aurora/internal/bpred"
	"aurora/internal/harness"
	"aurora/internal/resultstore"
)

func main() {
	var (
		addr          = flag.String("addr", "localhost:8577", "HTTP listen address")
		storeDir      = flag.String("store", "", "persistent result store directory (empty: in-memory memo only)")
		storeReadOnly = flag.Bool("store-readonly", false, "serve store hits but never write new entries")
		workers       = flag.Int("j", runtime.GOMAXPROCS(0), "parallel simulation jobs")
		jobTimeout    = flag.Duration("job-timeout", 0, "per-simulation wall-clock deadline (0: none)")
		budget        = flag.Uint64("budget", 200_000, "default instruction budget for submissions that omit one")
		quick         = flag.Bool("quick", false, "render figure endpoints at reduced budgets")
		bpredSpec     = flag.String("bpred", "", "default branch predictor applied to sweeps and figures that do not name one (e.g. gshare:entries=4096,hist=12; see docs/BRANCH-PREDICTION.md)")
		pprofAddr     = flag.String("pprof", "", "serve /debug/pprof and /debug/vars on this address (empty: off)")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "unexpected arguments: %v\n", flag.Args())
		flag.Usage()
		os.Exit(2)
	}

	runner := harness.NewRunner(*workers)
	runner.JobTimeout = *jobTimeout

	if *storeDir != "" {
		st, err := resultstore.OpenMode(*storeDir, *storeReadOnly)
		if err != nil {
			log.Fatalf("aurora-serve: open store: %v", err)
		}
		runner.Store = st
		log.Printf("store %s (version %s, read-only %v)", st.Dir(), st.Version(), st.ReadOnly())
	}

	figureOpts := harness.Options{}
	if *quick {
		figureOpts.Budget = 40_000
		figureOpts.SweepBudget = 8_000
	}
	if *bpredSpec != "" {
		bp, err := bpred.Parse(*bpredSpec)
		if err != nil {
			log.Fatalf("aurora-serve: -bpred: %v", err)
		}
		figureOpts.BPred = bp
	}

	if *pprofAddr != "" {
		dbg, err := harness.ServeDebug(*pprofAddr, runner)
		if err != nil {
			log.Fatalf("aurora-serve: debug listener: %v", err)
		}
		log.Printf("debug surface on http://%s/debug/pprof (vars: /debug/vars)", dbg)
	}

	srv := newServer(runner, *budget, figureOpts)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("aurora-serve: listen: %v", err)
	}
	log.Printf("aurora-serve %s on http://%s (%d workers)", resultstore.CodeVersion(), ln.Addr(), runner.Workers())
	httpSrv := &http.Server{Handler: srv.handler(), ReadHeaderTimeout: 10 * time.Second}
	if err := httpSrv.Serve(ln); err != nil {
		log.Fatalf("aurora-serve: %v", err)
	}
}
