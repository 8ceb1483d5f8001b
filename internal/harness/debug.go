package harness

import (
	"expvar"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/* on the default mux
	"sync"
	"sync/atomic"
)

// Live-profiling support for long sweeps: ServeDebug exposes the standard
// net/http/pprof endpoints plus runner memo-table and store counters over
// expvar, so a running experiment batch can be profiled (`go tool pprof
// http://addr/debug/pprof/profile`) and watched (/debug/vars) without
// instrumenting the experiment code.

// expvar keys can be published only once per process, but ServeDebug may
// be called more than once with different runners — aurora-serve builds a
// fresh runner per store configuration, and tests spin up several. The
// published function therefore reads an atomically swappable pointer to
// the most recent runner; the earlier design captured the first runner
// ever passed in a package-level sync.Once and silently published its
// (stale) stats forever after.
var (
	debugRunner atomic.Pointer[Runner]
	publishOnce sync.Once
)

// ServeDebug starts an HTTP server on addr (e.g. "localhost:6060") serving
// /debug/pprof/* and /debug/vars. The runner's memo-table and store
// statistics are published under the expvar key "aurora_runner"; a later
// call with a different runner repoints the key at the new runner's live
// counters. It returns the bound address (useful with a ":0" addr) once
// the listener is up; the server itself runs in a background goroutine for
// the life of the process.
func ServeDebug(addr string, r *Runner) (string, error) {
	debugRunner.Store(r)
	publishOnce.Do(func() {
		expvar.Publish("aurora_runner", expvar.Func(func() any {
			r := debugRunner.Load()
			if r == nil {
				return RunnerStats{}
			}
			s := r.Stats()
			return map[string]any{
				"workers":              r.Workers(),
				"hits":                 s.Hits,
				"misses":               s.Misses,
				"simulated":            s.Simulated,
				"store_hits":           s.StoreHits,
				"store_misses":         s.StoreMisses,
				"memo_evictions":       s.MemoEvictions,
				"checkpoint_evictions": s.CheckpointEvictions,
			}
		}))
	})
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	go http.Serve(ln, nil) //nolint:errcheck // debug server lives with the process
	return ln.Addr().String(), nil
}
