package vm

import (
	"errors"

	"aurora/internal/trace"
)

// Stream is a trace.Stream over a running machine: the one loop that steps
// a machine into trace records, so the timing simulator, the sampled
// capture, the trace recorder and Run all replay execution without
// materialising the whole trace. A clean halt or the budget ends the
// stream with a nil Err; an execution fault ends it with the fault as Err.
type Stream struct {
	m      *Machine
	budget uint64
	n      uint64
	err    error
}

// Stream returns a stream of the next budget instructions the machine
// executes (0 = until the program halts).
func (m *Machine) Stream(budget uint64) *Stream { return &Stream{m: m, budget: budget} }

// NextBatch steps the machine to fill buf, each step writing its record
// straight into its slot, keeping the step loop on concrete types and
// amortising the stream interface dispatch across the batch.
func (s *Stream) NextBatch(buf []trace.Record) int {
	n := 0
	for n < len(buf) {
		if s.err != nil || s.m.Halted() || (s.budget > 0 && s.n >= s.budget) {
			break
		}
		if err := s.m.step(&buf[n]); err != nil {
			// A clean halt ends the stream; a fault is kept so the run
			// fails instead of reporting a truncated trace's CPI. step
			// marks the machine halted on faults too, so the clean end is
			// told apart by the error, not by Halted().
			if !errors.Is(err, errHaltReturn) {
				s.err = err
			}
			break
		}
		s.n++
		n++
	}
	return n
}

// Err reports the execution fault that ended the stream, if any.
func (s *Stream) Err() error { return s.err }

// Count returns the number of records delivered so far.
func (s *Stream) Count() uint64 { return s.n }
