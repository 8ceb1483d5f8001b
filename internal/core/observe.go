package core

import "aurora/internal/obs"

// This file is the core's side of the observability layer (internal/obs):
// Attach wires a sink through every modelled resource, and emitSample
// produces the fixed per-interval metric batch the interval sampler turns
// into a time series. With no sink attached every hook reduces to one
// predictable branch — the simulator's hot loop is unchanged.

// stallMetricNames are the per-cause counter column names, precomputed so
// sampling never builds strings.
var stallMetricNames = [NumStallCauses]string{
	StallICache:  "stall_icache",
	StallLoad:    "stall_load",
	StallROBFull: "stall_rob_full",
	StallLSUBusy: "stall_lsu_busy",
	StallFPU:     "stall_fpu",
	StallOther:   "stall_other",
}

// sampleSnap holds the cumulative counters of the previous sample batch,
// for per-interval gauge computation (interval CPI, interval hit rates,
// mean occupancies).
type sampleSnap struct {
	cycles   uint64
	instr    uint64
	icAcc    uint64
	icMiss   uint64
	dcAcc    uint64
	dcMiss   uint64
	mshrInt  uint64
	fpOccSum uint64
}

// Attach connects an observability sink to the processor and distributes
// the probe to every modelled resource (BIU, prefetch unit, IFU and its
// instruction cache, LSU and its data cache / MSHR file / write cache /
// victim cache, FPU). Call it after NewProcessor and before Run; attaching
// nil (or not attaching) keeps the simulator on its zero-cost path.
//
// The sink's SampleInterval sets the cadence of metric batches; 0 disables
// sampling while still delivering timeline events.
func (p *Processor) Attach(sink obs.Sink) {
	pr := obs.NewProbe(sink, &p.now)
	p.probe = pr
	if pr == nil {
		p.sampleEvery = 0
		return
	}
	p.sampleEvery = sink.SampleInterval()
	p.nextSampleAt = p.sampleEvery
	p.biu.SetProbe(pr)
	p.pfu.SetProbe(pr)
	p.ifu.SetProbe(pr)
	p.lsu.SetProbe(pr)
	p.fp.SetProbe(pr)
}

// emitSample emits one metric batch stamped with the current cycle: first
// the per-interval gauges, then the cumulative counters. The final batch of
// a run may repeat the cycle of the last interval boundary (a run ending
// exactly on a boundary, re-sampled after the write-cache flush); gauges
// are then left at their boundary values and only the counters are
// refreshed, so the closed row reconciles with the end-of-run Report.
//
//aurora:hotpath
func (p *Processor) emitSample() {
	pr := p.probe
	if pr == nil {
		return
	}
	ic := p.ifu.ICache()
	dc := p.lsu.DCache()
	wc := p.lsu.WriteCache()
	ms := p.lsu.MSHR()
	vc := p.lsu.Victim()
	fps := p.fp.Stats(p.now)
	bs := p.biu.Stats()

	if p.now != p.lastSampleAt || !p.sampledAny {
		dCycles := p.now - p.prevSamp.cycles
		dInstr := p.instructions - p.prevSamp.instr
		cpi := 0.0
		if dInstr != 0 {
			cpi = float64(dCycles) / float64(dInstr)
		}
		pr.Sample("cpi", obs.KindGauge, cpi)
		pr.Sample("icache_hit_rate", obs.KindGauge,
			intervalHitRate(ic.Accesses()-p.prevSamp.icAcc, ic.Misses()-p.prevSamp.icMiss))
		pr.Sample("dcache_hit_rate", obs.KindGauge,
			intervalHitRate(dc.Accesses()-p.prevSamp.dcAcc, dc.Misses()-p.prevSamp.dcMiss))
		pr.Sample("mshr_occupancy", obs.KindGauge, float64(ms.InUse()))
		pr.Sample("mshr_util", obs.KindGauge,
			meanOverCycles(ms.OccupancyIntegral()-p.prevSamp.mshrInt, dCycles))
		pr.Sample("rob_occupancy", obs.KindGauge, float64(p.robUsed))
		pr.Sample("fpq_occupancy", obs.KindGauge, float64(p.fp.QueueLen()))
		pr.Sample("fpq_util", obs.KindGauge,
			meanOverCycles(fps.OccupancySum-p.prevSamp.fpOccSum, dCycles))
		p.prevSamp = sampleSnap{
			cycles: p.now, instr: p.instructions,
			icAcc: ic.Accesses(), icMiss: ic.Misses(),
			dcAcc: dc.Accesses(), dcMiss: dc.Misses(),
			mshrInt: ms.OccupancyIntegral(), fpOccSum: fps.OccupancySum,
		}
	}

	pr.Sample("instructions", obs.KindCounter, float64(p.instructions))
	pr.Sample("dual_issues", obs.KindCounter, float64(p.dualIssues))
	for c := StallCause(0); c < NumStallCauses; c++ {
		pr.Sample(stallMetricNames[c], obs.KindCounter, float64(p.stalls[c]))
	}
	pr.Sample("icache_accesses", obs.KindCounter, float64(ic.Accesses()))
	pr.Sample("icache_misses", obs.KindCounter, float64(ic.Misses()))
	pr.Sample("dcache_accesses", obs.KindCounter, float64(dc.Accesses()))
	pr.Sample("dcache_misses", obs.KindCounter, float64(dc.Misses()))
	pr.Sample("iprefetch_probes", obs.KindCounter, float64(p.ifu.Stats().IPrefetchProbes))
	pr.Sample("iprefetch_hits", obs.KindCounter, float64(p.ifu.Stats().IPrefetchHits))
	pr.Sample("dprefetch_probes", obs.KindCounter, float64(p.lsu.Stats().DPrefetchProbes))
	pr.Sample("dprefetch_hits", obs.KindCounter, float64(p.lsu.Stats().DPrefetchHits))
	pr.Sample("wc_accesses", obs.KindCounter, float64(wc.Accesses()))
	pr.Sample("wc_hits", obs.KindCounter, float64(wc.Hits()))
	pr.Sample("wc_stores", obs.KindCounter, float64(wc.Stores()))
	pr.Sample("wc_transactions", obs.KindCounter, float64(wc.Transactions()))
	pr.Sample("wc_page_matches", obs.KindCounter, float64(wc.PageMatches()))
	pr.Sample("wc_page_miss_checks", obs.KindCounter, float64(wc.PageMissChecks()))
	pr.Sample("victim_probes", obs.KindCounter, float64(vc.Probes()))
	pr.Sample("victim_hits", obs.KindCounter, float64(vc.Hits()))
	pr.Sample("biu_reads", obs.KindCounter, float64(bs.Reads))
	pr.Sample("biu_writes", obs.KindCounter, float64(bs.Writes))
	pr.Sample("fpu_dispatched", obs.KindCounter, float64(fps.Dispatched))
	pr.Sample("fpu_issued", obs.KindCounter, float64(fps.Issued))
	pr.Sample("fpu_retired", obs.KindCounter, float64(fps.Retired))

	p.lastSampleAt = p.now
	p.sampledAny = true
}

// intervalHitRate returns 1 - misses/accesses over an interval's deltas
// (1.0 for an idle interval, matching Report's convention).
//
//aurora:hotpath
func intervalHitRate(acc, miss uint64) float64 {
	if acc == 0 {
		return 1
	}
	return 1 - float64(miss)/float64(acc)
}

// meanOverCycles divides an occupancy-integral delta by the interval length.
//
//aurora:hotpath
func meanOverCycles(integral, cycles uint64) float64 {
	if cycles == 0 {
		return 0
	}
	return float64(integral) / float64(cycles)
}
