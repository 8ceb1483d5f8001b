package aurora

import (
	"context"
	"strings"
	"testing"
)

// Direct tests of the public API surface (the integration tests exercise it
// end to end; these pin the contract details).

func TestModelByName(t *testing.T) {
	for name, icache := range map[string]int{
		"small": 1024, "baseline": 2048, "base": 2048,
		"large": 4096, "pointE": 4096, "e": 4096,
	} {
		cfg, err := ModelByName(name)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if cfg.ICacheBytes != icache {
			t.Errorf("%s: icache %d want %d", name, cfg.ICacheBytes, icache)
		}
	}
	if _, err := ModelByName("huge"); err == nil {
		t.Error("unknown model accepted")
	}
}

func TestWorkloadAccessors(t *testing.T) {
	names := WorkloadNames()
	if len(names) != 15 {
		t.Fatalf("%d workloads", len(names))
	}
	for _, n := range names {
		w, err := GetWorkload(n)
		if err != nil {
			t.Fatal(err)
		}
		if w.Name != n {
			t.Errorf("name mismatch %q vs %q", w.Name, n)
		}
	}
	if len(IntegerSuite()) != 6 || len(FPSuite()) != 9 {
		t.Error("suite sizes wrong")
	}
	if IntegerSuite()[0].Name != "espresso" || FPSuite()[0].Name != "alvinn" {
		t.Error("paper table ordering broken")
	}
}

func TestCostAPI(t *testing.T) {
	b, err := Cost(Baseline())
	if err != nil || b != 73084 {
		t.Errorf("baseline cost %d, %v", b, err)
	}
	bad := Baseline()
	bad.ICacheBytes = 999
	if _, err := Cost(bad); err == nil {
		t.Error("invalid icache size accepted")
	}
	if c := FPUCost(DefaultFPU()); c != 14613 {
		t.Errorf("recommended FPU cost %d want 14613", c)
	}
}

func TestDefaultConfigs(t *testing.T) {
	f := DefaultFPU()
	if f.InstrQueue != 5 || f.LoadQueue != 2 || f.ReorderBuffer != 6 ||
		f.AddLatency != 3 || f.MulLatency != 5 || f.DivLatency != 19 {
		t.Errorf("§5.11 FPU defaults wrong: %+v", f)
	}
	m := DefaultMMU()
	if m.TLBEntries != 64 || m.L2Bytes != 512<<10 {
		t.Errorf("MMU defaults wrong: %+v", m)
	}
}

func TestRunScheduledSmoke(t *testing.T) {
	w, err := GetWorkload("sc")
	if err != nil {
		t.Fatal(err)
	}
	base, err := Run(context.Background(), Baseline(), w, RunOptions{Budget: 150_000})
	if err != nil {
		t.Fatal(err)
	}
	sched, err := Run(context.Background(), Baseline(), w, RunOptions{Budget: 150_000, Scheduled: true})
	if err != nil {
		t.Fatal(err)
	}
	if sched.Instructions != base.Instructions {
		t.Errorf("scheduling changed instruction count: %d vs %d",
			sched.Instructions, base.Instructions)
	}
	if float64(sched.Cycles) > 1.05*float64(base.Cycles) {
		t.Errorf("scheduling slowed sc down: %d vs %d cycles", sched.Cycles, base.Cycles)
	}
}

func TestRunUnknownWorkloadPath(t *testing.T) {
	if _, err := GetWorkload("no-such-kernel"); err == nil ||
		!strings.Contains(err.Error(), "unknown workload") {
		t.Errorf("error %v", err)
	}
}

func TestReportExtras(t *testing.T) {
	w, _ := GetWorkload("espresso")
	rep, err := Run(context.Background(), Baseline(), w, RunOptions{Budget: 200_000})
	if err != nil {
		t.Fatal(err)
	}
	// §2.3 write validation: the micro-TLB should validate the vast
	// majority of stores for free (hot pages stay resident).
	if rep.WriteValidationRate() < 0.5 {
		t.Errorf("write validation rate %.2f too low", rep.WriteValidationRate())
	}
	if rep.DualIssueRate() <= 0 || rep.DualIssueRate() > 1 {
		t.Errorf("dual issue rate %f", rep.DualIssueRate())
	}
}

// unalignedWorkload is a kernel whose second instruction is an unaligned
// lw, the canonical VM fault.
func unalignedWorkload() *Workload {
	return &Workload{
		Name:          "unaligned",
		DefaultBudget: 1_000,
		Description:   "test kernel: faults on an unaligned word load",
		Source: `
		.text
main:
		li $t0, 3
		lw $t1, 0($t0)
		li $v0, 10
		syscall
`,
	}
}

// TestSimulationErrReportsVMFault: a stepped simulation whose VM faults
// must not read as a natural end. Run fails on the truncated trace, and
// Step + Err has to agree with it.
func TestSimulationErrReportsVMFault(t *testing.T) {
	ctx := context.Background()
	if _, err := Run(ctx, Baseline(), unalignedWorkload(), RunOptions{}); err == nil ||
		!strings.Contains(err.Error(), "unaligned lw") {
		t.Fatalf("Run error = %v, want the unaligned lw fault", err)
	}
	sim, err := NewSimulation(ctx, Baseline(), unalignedWorkload(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for sim.Step() {
	}
	if err := sim.Err(); err == nil || !strings.Contains(err.Error(), "unaligned lw") {
		t.Fatalf("Err() after stepping a faulted run = %v, want the unaligned lw fault", err)
	}
}
