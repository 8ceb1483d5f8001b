package main

import (
	"fmt"

	"aurora/internal/core"
	"aurora/internal/workloads"
)

// Budgets of the benchmark's cells, in simulated instructions.
const (
	// exactBudget bounds every exact cell: the aurora-bench budget, large
	// enough that a cell takes tens of milliseconds of host time.
	exactBudget = 300_000
	// sampledBudget bounds every sampled cell. Replays at 300k took only
	// 4-40 ms and their host time spread by a third from run to run; at
	// 2M sampling pays (a tenth of the instructions run in detail) and
	// one pass takes seconds.
	sampledBudget = 2_000_000
)

type kind int

const (
	exactSweep kind = iota
	sampledSweep
	serveMix
)

// spec is one benchmark workload.
type spec struct {
	Name    string
	Why     string
	Kind    kind
	Kernels []*workloads.Workload
}

// models are the Table 1 models plus the recommended point E, the grid
// every workload crosses its kernels with.
func models() []core.Config { return append(core.Models(), core.RecommendedE()) }

var specs = []spec{
	{
		Name:    "exact-int",
		Why:     "cold exact sweep of the 6 integer kernels x 4 models: VM, fetch, issue, caches, prefetch and BIU do the work while the FPU idles",
		Kind:    exactSweep,
		Kernels: workloads.Integer(),
	},
	{
		Name:    "exact-fp",
		Why:     "the same sweep over the 9 FP kernels: FPU queue and result bus busy, long memory stalls; shows a cost to FP code",
		Kind:    exactSweep,
		Kernels: workloads.FP(),
	},
	{
		Name:    "sampled",
		Why:     "cold sampled sweep of all 15 kernels x 4 models at 2M instructions: VM capture and window replay, no exact trace stream",
		Kind:    sampledSweep,
		Kernels: append(workloads.Integer(), workloads.FP()...),
	},
	{
		Name:    "serve",
		Why:     "aurora-serve over HTTP, 1 closed-loop client: warm sweeps served from store then memo, a tenth cold single cells",
		Kind:    serveMix,
		Kernels: workloads.Integer(),
	},
}

func specByName(name string) (spec, error) {
	for _, s := range specs {
		if s.Name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// cell is one (kernel, model) coordinate of a grid.
type cell struct {
	kernel *workloads.Workload
	model  core.Config
}

func (c cell) key() string { return c.kernel.Name + "/" + c.model.Name }

// grid crosses kernels with models, kernel-major.
func grid(kernels []*workloads.Workload, ms []core.Config) []cell {
	var out []cell
	for _, k := range kernels {
		for _, m := range ms {
			out = append(out, cell{k, m})
		}
	}
	return out
}

// scale sizes a run. The full scale is the benchmark proper; the tiny
// scale (tests) keeps the same coordinates — so the same pinned digests
// apply — but fewer of them, one set-up and short phases.
type scale struct {
	kernels   int // 0: all of the workload's kernels
	nModels   int // 0: all four
	setupReps int
}

var (
	fullScale = scale{setupReps: 3}
	tinyScale = scale{kernels: 1, nModels: 2, setupReps: 1}
)

func (sc scale) kernelsOf(s spec) []*workloads.Workload {
	if sc.kernels > 0 && sc.kernels < len(s.Kernels) {
		return s.Kernels[:sc.kernels]
	}
	return s.Kernels
}

func (sc scale) models() []core.Config {
	ms := models()
	if sc.nModels > 0 && sc.nModels < len(ms) {
		return ms[:sc.nModels]
	}
	return ms
}
