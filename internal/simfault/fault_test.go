package simfault

import (
	"errors"
	"strings"
	"testing"
	"time"
)

// TestFaultErrorFormat checks every coordinate a sweep report needs appears
// in the one-line rendering: the cause, the subsystem, the simulated cycle,
// the workload and the config fingerprint.
func TestFaultErrorFormat(t *testing.T) {
	job := Job{
		Config:      "baseline",
		Fingerprint: "i2f1-rob32-mshr4",
		Workload:    "espresso",
	}
	cases := []struct {
		name      string
		fault     *Fault
		subsystem string
		want      []string
	}{
		{
			name:      "core panic",
			fault:     FromPanic("core: ROB overflow — alloc past capacity", job, 1234, []byte("stack")),
			subsystem: "core",
			want: []string{
				"core: ROB overflow",
				"subsystem core",
				"cycle 1234",
				"workload espresso",
				"config baseline i2f1-rob32-mshr4",
			},
		},
		{
			name:      "fpu panic as error value",
			fault:     FromPanic(errors.New("fpu: instruction queue overflow"), job, 9, nil),
			subsystem: "fpu",
			want:      []string{"subsystem fpu", "cycle 9"},
		},
		{
			name:      "panic without subsystem prefix",
			fault:     FromPanic("index out of range", job, 0, nil),
			subsystem: "unknown",
			want:      []string{"subsystem unknown", "cycle 0"},
		},
		{
			name:      "non-string panic value",
			fault:     FromPanic(42, job, 7, nil),
			subsystem: "unknown",
			want:      []string{"42", "subsystem unknown"},
		},
		{
			name:      "deadline",
			fault:     Deadline(job, 500, 2*time.Second),
			subsystem: "deadline",
			want:      []string{"2s wall-clock deadline", "subsystem deadline", "cycle 500"},
		},
		{
			name: "scheduled job",
			fault: FromPanic("core: x", Job{
				Config: "large", Fingerprint: "fp", Workload: "ora", Scheduled: true,
			}, 1, nil),
			subsystem: "core",
			want:      []string{"workload ora", "scheduled"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.fault.Subsystem != tc.subsystem {
				t.Errorf("subsystem = %q, want %q", tc.fault.Subsystem, tc.subsystem)
			}
			msg := tc.fault.Error()
			for _, w := range tc.want {
				if !strings.Contains(msg, w) {
					t.Errorf("Error() = %q, missing %q", msg, w)
				}
			}
		})
	}
}

// TestFaultCell: the compact cell annotation carries subsystem and cycle.
func TestFaultCell(t *testing.T) {
	f := FromPanic("fpu: store queue overflow", Job{Workload: "ear"}, 88, nil)
	if got := f.Cell(); got != "FAULT(fpu@88)" {
		t.Errorf("Cell() = %q, want FAULT(fpu@88)", got)
	}
}

// TestFaultPersistable: invariant panics are deterministic properties of the
// job and may enter a persistent result store; deadline faults depend on host
// wall-clock load and must never be persisted.
func TestFaultPersistable(t *testing.T) {
	job := Job{Config: "baseline", Workload: "espresso"}
	if f := FromPanic("core: ROB overflow", job, 12, nil); !f.Persistable() {
		t.Error("invariant-panic fault reported not persistable")
	}
	if f := FromPanic("index out of range", job, 0, nil); !f.Persistable() {
		t.Error("unknown-subsystem panic fault reported not persistable")
	}
	if f := Deadline(job, 500, 2*time.Second); f.Persistable() {
		t.Error("deadline fault reported persistable; a slow host would poison the store")
	}
}

// TestFaultErrorsAs: a Fault wrapped like any job error unwraps with
// errors.As, which is how Runner.Cell classifies keep-going cells.
func TestFaultErrorsAs(t *testing.T) {
	orig := FromPanic("cache: unbalanced MSHR release", Job{Workload: "tiny"}, 3, nil)
	var f *Fault
	if !errors.As(error(orig), &f) || f != orig {
		t.Fatal("errors.As failed to recover the fault")
	}
}
