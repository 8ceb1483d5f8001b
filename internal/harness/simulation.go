package harness

import (
	"context"
	"fmt"
	"runtime/debug"

	"aurora/internal/core"
	"aurora/internal/obs"
	"aurora/internal/simfault"
	"aurora/internal/trace"
	"aurora/internal/vm"
	"aurora/internal/workloads"
)

// Simulation is one exact timing run: a workload's functional VM (or a
// given trace) feeding the timing core. Runner.Run drives one to
// completion per distinct job; the root API also exposes it one tick at a
// time, so benchmarks can warm a processor up and then time the
// steady-state cycle loop in isolation.
type Simulation struct {
	p   *core.Processor
	src trace.Stream // what the processor consumes
	vm  *vm.Stream   // the functional VM behind src; nil for RunTrace
	job simfault.Job

	ctx  context.Context
	done <-chan struct{} // nil without a cancellable context
	err  error
}

// NewSimulation builds the machine for one exact job: the workload's
// functional VM feeding the timing core, through the §6 scheduling pass
// when opts.Scheduled, with sink attached (nil keeps the zero-cost path).
// The effective opts.Budget bounds the dynamic instruction count. Once ctx
// is cancelled, Run returns its error and Step stops within a few thousand
// cycles.
func NewSimulation(ctx context.Context, cfg core.Config, w *workloads.Workload, opts Options, sink obs.Sink) (*Simulation, error) {
	cfg = applyBPred(cfg, opts)
	s := newSimulation(ctx, cfg, w.Name, opts.Scheduled)
	err := guard(s.job, s.Cycles, func() error {
		m, err := w.NewMachine()
		if err != nil {
			return err
		}
		s.vm = m.Stream(effectiveBudget(w, opts))
		var src trace.Stream = s.vm
		if opts.Scheduled {
			src = trace.NewReschedule(src)
		}
		return s.build(cfg, src, sink)
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// RunTrace runs the timing model over an arbitrary trace stream (a
// pre-recorded trace or a synthetic one) under the same fault boundary as
// every other exact run; its faults name the workload "trace".
func RunTrace(ctx context.Context, cfg core.Config, src trace.Stream) (*core.Report, error) {
	s := newSimulation(ctx, cfg, "trace", false)
	if err := guard(s.job, s.Cycles, func() error { return s.build(cfg, src, nil) }); err != nil {
		return nil, err
	}
	return s.Run()
}

func newSimulation(ctx context.Context, cfg core.Config, workload string, scheduled bool) *Simulation {
	return &Simulation{
		job: simfault.Job{
			Config:      cfg.Name,
			Fingerprint: cfg.Fingerprint(),
			Workload:    workload,
			Scheduled:   scheduled,
		},
		ctx:  ctx,
		done: ctx.Done(),
	}
}

func (s *Simulation) build(cfg core.Config, src trace.Stream, sink obs.Sink) error {
	p, err := core.NewProcessor(cfg, src)
	if err != nil {
		return err
	}
	if sink != nil {
		p.Attach(sink)
	}
	s.p, s.src = p, src
	return nil
}

// guard is the one fault boundary every job runs behind, exact or
// sampled: fn (machine construction, the cycle loop, or a sampled capture
// and replay) runs with any panic recovered into a typed *simfault.Fault
// carrying the job identity, the simulated cycle it fired at (cycles, read
// after the panic) and the stack. The job fails; the process and every
// other job survive.
func guard(job simfault.Job, cycles func() uint64, fn func() error) (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = simfault.FromPanic(rec, job, cycles(), debug.Stack())
		}
	}()
	return fn()
}

// Run simulates to the end of the stream. A stream that ended because the
// VM faulted fails the run, so a truncated trace never reports a plausible
// but wrong CPI.
func (s *Simulation) Run() (*core.Report, error) {
	var rep *core.Report
	err := guard(s.job, s.Cycles, func() (err error) {
		rep, err = s.p.RunContext(s.ctx)
		if err != nil {
			err = fmt.Errorf("harness: %s on %s: %w", s.job.Workload, s.job.Config, err)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return rep, nil
}

// Step runs the machine's next tick, reporting whether work remains. Like
// core.Processor.Step it may first jump the clock over quiet cycles, so
// Cycles can advance by more than one. It polls the context whenever the
// clock crosses a core.PollInterval boundary.
func (s *Simulation) Step() bool {
	from := s.p.Cycles()
	if !s.p.Step() {
		return false
	}
	if s.done != nil && core.PollDue(from, s.p.Cycles()) {
		select {
		case <-s.done:
			s.err = s.ctx.Err()
			return false
		default:
		}
	}
	return true
}

// Err reports why stepping stopped: the context's error after a
// cancellation, or the stream's error when the VM faulted and cut the
// trace short. nil means the run reached its natural end.
func (s *Simulation) Err() error {
	if s.err != nil {
		return s.err
	}
	return s.src.Err()
}

// Cycles returns the cycles simulated so far (0 before the processor is
// built).
func (s *Simulation) Cycles() uint64 {
	if s.p == nil {
		return 0
	}
	return s.p.Cycles()
}

// Instructions returns the instructions retired so far.
func (s *Simulation) Instructions() uint64 { return s.p.Instructions() }

// FastForward advances the simulation n dynamic instructions at functional
// (VM) speed, warming only the machine's cache contents — no cycles pass,
// no statistics are counted. Detailed stepping picks up from the warmed
// state: this is the fast-forward mode, for skipping initialisation phases
// a study does not want to pay cycle-accurate time for. The skipped
// instructions count against the simulation's instruction budget.
// It returns the number of instructions actually skipped (the kernel may
// halt or exhaust the budget first).
func (s *Simulation) FastForward(n uint64) (uint64, error) {
	var buf [256]trace.Record
	var skipped uint64
	for skipped < n {
		k := s.vm.NextBatch(buf[:min(n-skipped, uint64(len(buf)))])
		if k == 0 {
			if err := s.vm.Err(); err != nil {
				return skipped, fmt.Errorf("harness: fast-forward execution fault: %w", err)
			}
			break
		}
		skipped += uint64(k)
		for _, rec := range buf[:k] {
			s.p.WarmAccess(core.WarmFetch, rec.PC)
			if rec.SI.Class.IsMem() {
				s.p.WarmAccess(core.WarmKindOf(rec.SI.Class), rec.MemAddr)
			}
		}
		if s.done != nil {
			select {
			case <-s.done:
				s.err = s.ctx.Err()
				return skipped, s.err
			default:
			}
		}
	}
	s.p.Reopen()
	return skipped, nil
}
