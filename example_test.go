package aurora_test

import (
	"context"
	"fmt"
	"log"

	"aurora"
)

// ExampleRun simulates one benchmark on the paper's baseline machine and
// prints the headline metrics.
func ExampleRun() {
	w, err := aurora.GetWorkload("espresso")
	if err != nil {
		log.Fatal(err)
	}

	cfg := aurora.Baseline() // Table 1: 2K icache, 32K dcache, 4-line WC,
	// 6-entry ROB, 4 stream buffers, 2 MSHRs, dual issue, 17-cycle memory.

	// Budget 0 would run the kernel to completion; 200k instructions
	// keeps the example quick.
	rep, err := aurora.Run(context.Background(), cfg, w, aurora.RunOptions{Budget: 200_000})
	if err != nil {
		log.Fatal(err)
	}

	cost, _ := aurora.Cost(cfg)
	fmt.Printf("%s on the %s model (%d RBE):\n", w.Name, cfg.Name, cost)
	fmt.Printf("  %d instructions in %d cycles → CPI %.3f\n",
		rep.Instructions, rep.Cycles, rep.CPI())
	fmt.Printf("  instruction cache hit %.2f%%, data cache hit %.2f%%\n",
		100*rep.ICacheHitRate(), 100*rep.DCacheHitRate())
	fmt.Printf("  stream buffers caught %.1f%% of I misses, %.1f%% of D misses\n",
		100*rep.IPrefetchHitRate(), 100*rep.DPrefetchHitRate())
	fmt.Printf("  write cache: %.1f%% hits, %.2f store transactions per store\n",
		100*rep.WriteCacheHitRate(), rep.WriteTrafficRatio())

	fmt.Println("where the cycles went (CPI contributions):")
	for c := aurora.StallCause(0); c < aurora.NumStallCauses; c++ {
		if v := rep.StallCPI(c); v > 0.001 {
			fmt.Printf("  %-9s %.3f\n", c, v)
		}
	}
	// Output:
	// espresso on the baseline model (73084 RBE):
	//   200000 instructions in 273209 cycles → CPI 1.366
	//   instruction cache hit 99.97%, data cache hit 93.19%
	//   stream buffers caught 80.6% of I misses, 99.0% of D misses
	//   write cache: 28.7% hits, 0.12 store transactions per store
	// where the cycles went (CPI contributions):
	//   Load      0.433
	//   ROB-full  0.003
	//   LSU-busy  0.035
	//   Other     0.015
}
