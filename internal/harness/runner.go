package harness

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"time"

	"aurora/internal/core"
	"aurora/internal/obs"
	"aurora/internal/resultstore"
	"aurora/internal/sample"
	"aurora/internal/simfault"
	"aurora/internal/workloads"
)

// Runner is the parallel experiment engine. It schedules (config, workload,
// budget, scheduled) simulation jobs onto a bounded worker pool and memoizes
// completed runs by a canonical job key, so experiments that share a
// configuration — Figure 4's dual-issue points, Tables 3-5, Figure 6 and the
// write-traffic study all run the Table 1 models on the integer suite —
// simulate each distinct job exactly once.
//
// Every figure assembles its results in input order, so output is
// byte-identical regardless of the worker count: each job is a deterministic
// function of its key, and scheduling only changes when a job runs, never
// what it computes.
//
// The runner is also the fault boundary: a panic inside the timing core
// fails that job with a typed *simfault.Fault — never the process, and
// never the memo table — and a job that exceeds JobTimeout fails the same
// way. Cancelling the context passed to Run stops queued jobs before they
// are scheduled and interrupts running ones within a few thousand simulated
// cycles; cancelled attempts are not memoized, so a later sweep retries
// them under its own context.
//
// When Store is set, a persistent layer sits under the memo table and
// requests resolve memory → disk → simulate: the goroutine that owns a
// key's memo entry consults the store before paying for a simulation, and
// writes the result back after one, so single-flight semantics hold across
// both layers — concurrent requesters of one key trigger at most one disk
// lookup and at most one simulation per process.
type Runner struct {
	sem chan struct{} // bounds concurrently simulating jobs

	// Store, when non-nil, is the persistent result layer (see
	// internal/resultstore). Lookups and writes happen only on memo
	// misses, outside the worker-pool semaphore (they are cheap file
	// I/O, not simulation); a read-only store serves hits but is never
	// written back. Set it before submitting jobs.
	Store *resultstore.Store

	// Observe, when non-nil, supplies a per-job observability sink (see
	// internal/obs) for every distinct exact job the runner simulates. It
	// is called exactly once per memo entry — on the miss, never on hits —
	// so a sweep that revisits a job yields one time series per distinct
	// simulation no matter how many experiments requested it or how many
	// workers ran them. A nil return leaves that job unobserved. Set it
	// before submitting jobs; it must be safe for concurrent calls.
	Observe func(job JobInfo) obs.Sink

	// JobTimeout bounds each distinct job's wall-clock time; 0 means no
	// per-job deadline. An expired job fails with a *simfault.Fault whose
	// Subsystem is "deadline", and the fault is memoized like any other
	// property of the job. Set it before submitting jobs.
	JobTimeout time.Duration

	mu          sync.Mutex
	memo        map[resultstore.Key]*memoEntry
	checkpoints *sample.CheckpointCache // shared by every sampled job
	hits        uint64
	misses      uint64
	simulated   uint64
	storeHits   uint64
	storeMisses uint64
}

// JobInfo describes one distinct simulation job to an Observe factory.
type JobInfo struct {
	ConfigName  string
	Fingerprint string // core.Config.Fingerprint(): canonical config identity
	Workload    string
	Budget      uint64 // effective instruction budget (defaults resolved)
	Scheduled   bool
}

// memoEntry holds one job's result, exact or sampled. The goroutine that
// inserts the entry computes it and closes done; later requesters wait on
// done (or their own cancellation) and share the result. A panicking job
// completes its entry with the recovered *simfault.Fault — the earlier
// sync.Once design counted a panicking computation as returned, so every
// later hit of that key read a poisoned nil, nil entry. A computation
// aborted by its own caller's cancellation is withdrawn from the table
// instead, so the next requester retries under a live context.
type memoEntry struct {
	done chan struct{}
	res  resultstore.Result // Report or Sampled; never Fault (that is err)
	err  error
}

// NewRunner returns a runner with the given worker-pool size;
// workers <= 0 selects runtime.GOMAXPROCS(0).
func NewRunner(workers int) *Runner {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Runner{
		sem:         make(chan struct{}, workers),
		memo:        map[resultstore.Key]*memoEntry{},
		checkpoints: sample.NewCheckpointCache(),
	}
}

// Workers returns the worker-pool size.
func (r *Runner) Workers() int { return cap(r.sem) }

// RunnerStats reports memo-table and store behaviour. Hits counts requests
// answered from (or coalesced onto) an existing memo entry; Misses counts
// memo entries created. Each Run or RunSampled call increments at most one
// of the two — a request that waits on an entry later withdrawn by
// cancellation and then retries counts only its final disposition — so for
// any set of completed, uncancelled requests Hits+Misses equals the
// request count.
//
// With a Store attached, a memo miss resolves against the disk before
// simulating: StoreHits counts entries served from disk, StoreMisses the
// lookups that fell through, and Simulated the jobs actually run. A sweep
// answered entirely from a warm store reports Simulated == 0.
//
// CheckpointEvictions counts sampled checkpoints dropped from the runner's
// byte-bounded checkpoint cache; a sampled job that needs one again
// recaptures it.
type RunnerStats struct {
	Hits                uint64
	Misses              uint64
	Simulated           uint64
	StoreHits           uint64
	StoreMisses         uint64
	CheckpointEvictions uint64
}

// Stats returns a snapshot of the memo-table counters.
func (r *Runner) Stats() RunnerStats {
	evictions := r.checkpoints.Stats().Evictions
	r.mu.Lock()
	defer r.mu.Unlock()
	return RunnerStats{
		Hits:                r.hits,
		Misses:              r.misses,
		Simulated:           r.simulated,
		StoreHits:           r.storeHits,
		StoreMisses:         r.storeMisses,
		CheckpointEvictions: evictions,
	}
}

// canceled reports whether err is a context cancellation or deadline error —
// a property of the requesting sweep, not of the job, so never memoized.
// (A job's own JobTimeout expiry is converted to a *simfault.Fault before
// it reaches this check.)
func canceled(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Run executes one workload on one configuration under the worker pool,
// returning the memoized report when an identical job has already run.
// Reports are shared between hits and must be treated as read-only.
//
// A job that panics in the timing core returns a *simfault.Fault (match
// with errors.As); hits of the same key return the identical fault. ctx
// cancellation returns ctx.Err() without publishing anything.
func (r *Runner) Run(ctx context.Context, cfg core.Config, w *workloads.Workload, opts Options) (*core.Report, error) {
	cfg = applyBPred(cfg, opts)
	opts.Budget = effectiveBudget(w, opts)
	j := job{key: r.key(cfg, w, opts, ""), config: cfg.Name}
	j.compute = func(ctx context.Context) (resultstore.Result, uint64, error) {
		var sink obs.Sink
		if r.Observe != nil {
			sink = r.Observe(JobInfo{
				ConfigName:  cfg.Name,
				Fingerprint: j.key.Fingerprint,
				Workload:    w.Name,
				Budget:      opts.Budget,
				Scheduled:   opts.Scheduled,
			})
		}
		sim, err := NewSimulation(ctx, cfg, w, opts, sink)
		if err != nil {
			return resultstore.Result{}, 0, err
		}
		rep, err := sim.Run()
		return resultstore.Result{Report: rep}, sim.Cycles(), err
	}
	res, err := r.do(ctx, j)
	return res.Report, err
}

// job is one request on the shared path, whatever its mode: the identity
// it is memoized and stored under, the configuration name its faults
// carry, and the computation that answers it when neither layer can.
// compute runs under the job's own context (pool slot held, deadline
// armed) and reports how many cycles it got through, for deadline-fault
// annotation.
type job struct {
	key     resultstore.Key
	config  string
	compute func(ctx context.Context) (resultstore.Result, uint64, error)
}

// fault is the identity the job's faults carry.
func (j job) fault() simfault.Job {
	return simfault.Job{
		Config:      j.config,
		Fingerprint: j.key.Fingerprint,
		Workload:    j.key.Workload,
		Scheduled:   j.key.Scheduled,
	}
}

// key is the one identity a job has, in memory and on disk: the memo is
// keyed by exactly the resultstore.Key the store would address, so the two
// layers can never disagree about what a job is. sampleKey is empty for
// exact runs and sample.Params.Key() for sampled estimates.
func (r *Runner) key(cfg core.Config, w *workloads.Workload, opts Options, sampleKey string) resultstore.Key {
	k := resultstore.Key{
		Fingerprint: cfg.Fingerprint(),
		Workload:    w.Name,
		Budget:      opts.Budget,
		Scheduled:   opts.Scheduled,
		Sample:      sampleKey,
	}
	if r.Store != nil {
		k.CodeVersion = r.Store.Version()
	}
	return k
}

// do is the single-flight memo loop every job goes through, exact or
// sampled.
func (r *Runner) do(ctx context.Context, j job) (resultstore.Result, error) {
	k := j.key
	for {
		if err := ctx.Err(); err != nil {
			return resultstore.Result{}, err
		}
		r.mu.Lock()
		e, ok := r.memo[k]
		if !ok {
			e = &memoEntry{done: make(chan struct{})}
			r.memo[k] = e
			r.misses++
			r.mu.Unlock()
			e.res, e.err = r.resolve(ctx, j)
			if canceled(e.err) {
				// The attempt died with its caller, not on its own merits:
				// withdraw the entry so the next requester retries.
				r.mu.Lock()
				if r.memo[k] == e {
					delete(r.memo, k)
				}
				r.mu.Unlock()
			}
			close(e.done)
			return e.res, e.err
		}
		r.mu.Unlock()
		select {
		case <-e.done:
			if !canceled(e.err) {
				// Counted here — on the answer — not when the wait began:
				// a requester that waits on an entry later withdrawn by
				// cancellation retries and is counted once, by whichever
				// branch finally answers it, instead of as a hit plus a
				// hit-or-miss again.
				r.mu.Lock()
				r.hits++
				r.mu.Unlock()
				return e.res, e.err
			}
			// The computing caller was cancelled; loop and retry under our
			// own context (the withdrawn entry no longer blocks the key).
		case <-ctx.Done():
			return resultstore.Result{}, ctx.Err()
		}
	}
}

// resolve answers one memo miss: disk first when a store is attached, then
// simulation, writing persistable results back. It runs inside the key's
// memo entry, so both layers inherit the memo's single-flight guarantee.
func (r *Runner) resolve(ctx context.Context, j job) (resultstore.Result, error) {
	if r.Store != nil {
		res, ok := r.Store.Read(j.key)
		r.mu.Lock()
		if ok {
			r.storeHits++
		} else {
			r.storeMisses++
		}
		r.mu.Unlock()
		if ok {
			if res.Fault != nil {
				return resultstore.Result{}, res.Fault
			}
			return res, nil
		}
	}
	res, err := r.simulate(ctx, j)
	if r.Store != nil && !r.Store.ReadOnly() {
		r.persist(j.key, res, err)
	}
	return res, err
}

// persist writes a finished job back to the store when its outcome is a
// deterministic property of the job: a healthy result, or an invariant-
// panic fault. Deadline faults depend on host load and plain errors
// (VM faults, I/O, cancellation) have no canonical serialized form, so
// neither is written — they are recomputed by each process instead. A
// failed write never fails the job; the store's own counters record it.
func (r *Runner) persist(k resultstore.Key, res resultstore.Result, err error) {
	if err != nil {
		var f *simfault.Fault
		if !errors.As(err, &f) || !f.Persistable() {
			return
		}
		res = resultstore.Result{Fault: f}
	}
	//aurora:allow(fault, a failed persist must fail neither job nor sweep; the store counts it in Stats.PutErrors)
	_ = r.Store.Write(k, res)
}

// simulate computes one distinct job: pool admission, the per-job
// deadline, and the Simulated count around the mode's own computation.
func (r *Runner) simulate(ctx context.Context, j job) (resultstore.Result, error) {
	// Admission: a queued job waits for a pool slot unless the sweep is
	// cancelled first — this is where fail-fast studies stop scheduling
	// work that has not started yet.
	select {
	case r.sem <- struct{}{}:
	case <-ctx.Done():
		return resultstore.Result{}, ctx.Err()
	}
	defer func() { <-r.sem }()

	jctx := ctx
	if r.JobTimeout > 0 {
		var cancel context.CancelFunc
		jctx, cancel = context.WithTimeout(ctx, r.JobTimeout)
		defer cancel()
	}
	r.mu.Lock()
	r.simulated++
	r.mu.Unlock()
	res, cycles, err := j.compute(jctx)
	if err != nil && errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil {
		// The job's own wall-clock budget expired while the surrounding
		// sweep is still live: a property of the job, recorded as a typed
		// fault and memoized like any other bad design point.
		return resultstore.Result{}, simfault.Deadline(j.fault(), cycles, r.JobTimeout)
	}
	return res, err
}

// each runs fn(0) .. fn(n-1) concurrently and collects the results in input
// order. Goroutines are cheap and the runner's semaphore bounds the actual
// simulation work, so callers fan out one goroutine per job regardless of
// pool size.
//
// Under opts.FailFast the first failure cancels the context the remaining
// fn calls receive, so jobs that have not been scheduled yet stop at the
// pool-admission gate; the default keep-going mode lets every job run to
// its own conclusion. The first error in input order wins, except that the
// secondary cancellations fail-fast induces never mask the failure that
// triggered them.
func each[T any](ctx context.Context, opts Options, n int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	ectx := ctx
	var cancel context.CancelFunc
	if opts.FailFast {
		ectx, cancel = context.WithCancel(ctx)
		defer cancel()
	}
	out := make([]T, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			out[i], errs[i] = fn(ectx, i)
			if errs[i] != nil && cancel != nil {
				cancel()
			}
		}(i)
	}
	wg.Wait()
	var first error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if !canceled(err) {
			return nil, err
		}
		if first == nil {
			first = err
		}
	}
	if first != nil {
		return nil, first
	}
	return out, nil
}
