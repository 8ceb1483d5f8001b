package vm

import (
	"fmt"
	"testing"

	"aurora/internal/asm"
	"aurora/internal/trace"
)

// TestStream: a stream ends after exactly its budget, at a clean halt (nil
// Err; budget 0 runs to the halt), or at an execution fault (latched in Err,
// every later NextBatch delivering nothing), and Run reports the same count
// and error.
func TestStream(t *testing.T) {
	const (
		loop  = "main:\n li $t0, 0\nloop:\n addiu $t0, $t0, 1\n j loop\n nop\n"
		halt  = "main:\n li $t0, 1\n li $t1, 2\n addu $t2, $t0, $t1\n" + exitSeq
		fault = "main:\n li $t0, 3\n lw $t1, 0($t0)\n" + exitSeq
	)
	cases := []struct {
		name   string
		src    string
		budget uint64
		want   uint64
		halted bool
		fault  bool
	}{
		{"budget", loop, 1000, 1000, false, false},
		{"halt", halt, 1000, 5, true, false},
		{"halt/unbounded", halt, 0, 5, true, false},
		{"fault", fault, 1000, 1, true, true},
	}
	machine := func(t *testing.T, src string) *Machine {
		p, err := asm.Assemble("t.s", src)
		if err != nil {
			t.Fatal(err)
		}
		m, err := New(p)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := machine(t, c.src)
			s := m.Stream(c.budget)
			buf := make([]trace.Record, 7)
			var n uint64
			for k := s.NextBatch(buf); k > 0; k = s.NextBatch(buf) {
				n += uint64(k)
			}
			if n != c.want || s.Count() != n || m.Steps() != n {
				t.Errorf("delivered %d records (Count %d, Steps %d), want %d", n, s.Count(), m.Steps(), c.want)
			}
			if m.Halted() != c.halted {
				t.Errorf("Halted() = %v, want %v", m.Halted(), c.halted)
			}
			if (s.Err() != nil) != c.fault {
				t.Errorf("Err() = %v, want fault %v", s.Err(), c.fault)
			}
			for i := 0; i < 2; i++ {
				if k := s.NextBatch(buf); k != 0 {
					t.Errorf("NextBatch after the end delivered %d records", k)
				}
			}

			rn, rerr := machine(t, c.src).Run(c.budget, nil)
			if rn != n || fmt.Sprint(rerr) != fmt.Sprint(s.Err()) {
				t.Errorf("Run = (%d, %v), stream gave (%d, %v)", rn, rerr, n, s.Err())
			}
		})
	}
}
