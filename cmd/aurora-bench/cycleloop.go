package main

import (
	"context"
	"runtime"
	"runtime/debug"
	"time"

	"aurora"
)

// runCycleLoop measures the steady-state per-cycle simulation step: a
// representative workload is warmed up past its cold-cache and pool-growth
// phase, then a fixed span of cycles is stepped with the collector off and
// allocations counted exactly. In steady state the cycle loop must not
// allocate at all — AllocsPerOp is asserted on by CI.
func runCycleLoop() *CycleLoop {
	const (
		workload = "espresso"
		budget   = 300_000
		warmup   = 20_000
		span     = 200_000
	)
	w, err := aurora.GetWorkload(workload)
	if err != nil {
		return nil
	}
	sim, err := aurora.NewSimulation(context.Background(), aurora.Baseline().WithBPred(benchBPred), w, aurora.RunOptions{Budget: budget})
	if err != nil {
		return nil
	}
	for i := 0; i < warmup; i++ {
		if !sim.Step() {
			return nil
		}
	}

	// Disable the collector during the measured span so ReadMemStats sees
	// exact allocation counts (a concurrent GC would not change Mallocs,
	// but this also keeps the timing undisturbed).
	prev := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(prev)
	runtime.GC()

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	steps := uint64(0)
	for steps < span && sim.Step() {
		steps++
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	if steps == 0 {
		return nil
	}
	return &CycleLoop{
		Workload:    workload,
		Cycles:      steps,
		NsPerCycle:  float64(elapsed.Nanoseconds()) / float64(steps),
		AllocsPerOp: float64(m1.Mallocs-m0.Mallocs) / float64(steps),
		BytesPerOp:  float64(m1.TotalAlloc-m0.TotalAlloc) / float64(steps),
	}
}
