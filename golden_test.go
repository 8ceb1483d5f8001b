package aurora

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The golden regression net: every kernel's timing report, down to the last
// counter, is pinned against a checked-in fingerprint captured from the
// pre-optimisation simulator. A hot-path refactor that silently perturbs any
// modelled event — one extra stall, one lost write-cache hit — fails here.
//
// Regenerate (only when a *modelling* change is intended and reviewed):
//
//	go test -run TestGoldenReports -update-golden .

var updateGolden = flag.Bool("update-golden", false, "rewrite golden report fingerprints")

// goldenBudget keeps the full 3-model × 15-kernel matrix under a second.
const goldenBudget = 80_000

func goldenModels() []Config {
	return []Config{Small(), Baseline(), Large()}
}

// reportFingerprint renders every counter of a report exactly — no rounding
// that could mask a perturbation.
func reportFingerprint(rep *Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "model=%s issue=%d latency=%d\n", rep.Config.Name, rep.Config.IssueWidth, rep.Config.Memory.Latency)
	fmt.Fprintf(&b, " instr=%d cycles=%d dual=%d\n", rep.Instructions, rep.Cycles, rep.DualIssues)
	fmt.Fprintf(&b, " stalls=%v\n", rep.Stalls)
	fmt.Fprintf(&b, " icache=%d/%d dcache=%d/%d\n", rep.ICacheMisses, rep.ICacheAccesses, rep.DCacheMisses, rep.DCacheAccesses)
	fmt.Fprintf(&b, " ipf=%d/%d dpf=%d/%d\n", rep.IPrefetchHits, rep.IPrefetchProbes, rep.DPrefetchHits, rep.DPrefetchProbes)
	fmt.Fprintf(&b, " wc=%d/%d stores=%d tx=%d pages=%d/%d\n",
		rep.WCHits, rep.WCAccesses, rep.WCStores, rep.WCTransactions, rep.WCPageMatches, rep.WCPageMissChecks)
	fmt.Fprintf(&b, " mshr=%.9f victim=%d/%d slots=%d\n",
		rep.MSHRUtilisation, rep.VictimHits, rep.VictimProbes, rep.DelaySlotCrossings)
	fmt.Fprintf(&b, " biu{r=%d w=%d busy=%d lat=%d peak=%d}\n",
		rep.BIU.Reads, rep.BIU.Writes, rep.BIU.BusBusy, rep.BIU.ReadLatency, rep.BIU.PeakInflight)
	fmt.Fprintf(&b, " fpu{disp=%d iss=%d dual=%d ret=%d rob=%d unit=%d bus=%d src=%d empty=%d loads=%d occ=%d}\n",
		rep.FPU.Dispatched, rep.FPU.Issued, rep.FPU.DualIssues, rep.FPU.Retired,
		rep.FPU.ROBFullStall, rep.FPU.UnitBusy, rep.FPU.BusConflict, rep.FPU.SrcNotReady,
		rep.FPU.QueueEmpty, rep.FPU.LoadsWritten, rep.FPU.OccupancySum)
	return b.String()
}

// goldenCorpus renders the full fingerprint corpus: all kernels on the three
// Table 1 models at a fixed budget.
func goldenCorpus(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	for _, cfg := range goldenModels() {
		for _, name := range WorkloadNames() {
			w, err := GetWorkload(name)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := Run(context.Background(), cfg, w, RunOptions{Budget: goldenBudget})
			if err != nil {
				t.Fatalf("%s on %s: %v", name, cfg.Name, err)
			}
			fmt.Fprintf(&b, "== %s/%s\n%s", cfg.Name, name, reportFingerprint(rep))
		}
	}
	return b.String()
}

// TestGoldenReports pins every counter of every kernel's report on the three
// Table 1 machine models. The optimised hot path must be report-for-report
// identical to the recorded pre-optimisation behaviour.
func TestGoldenReports(t *testing.T) {
	if testing.Short() {
		t.Skip("full golden matrix skipped in -short mode (covered by TestGoldenHeadlines)")
	}
	checkGolden(t, filepath.Join("testdata", "golden_reports.txt"), goldenCorpus(t))
}

// ringConfigs are the odd queue sizes the Table 1 models never use: every
// ring in the fetch queue, the IPU reorder buffer and the FPU's instruction,
// store and reorder queues wraps at a size that is neither a power of two
// nor the default, under each FPU issue policy, plus a gshare front end so
// the predictor's scan over the fetch queue wraps too. The last rows pin the
// fetch unit's control-flow scan itself: folding disabled with and without a
// predictor, and a TAGE front end.
func ringConfigs() []Config {
	var out []Config
	add := func(name string, edit func(*Config)) {
		c := Baseline()
		c.Name = name
		edit(&c)
		out = append(out, c.Normalize())
	}
	for _, n := range []int{2, 3, 5} {
		add(fmt.Sprintf("fq%d", n), func(c *Config) { c.FetchQueue = n })
	}
	for _, n := range []int{1, 3} {
		add(fmt.Sprintf("rob%d", n), func(c *Config) { c.ReorderBuffer = n })
	}
	for _, fp := range []struct {
		tag string
		pol FPUPolicy
	}{{"inorder", FPUInOrder}, {"ooo1", FPUOOOSingle}, {"ooo2", FPUOOODual}} {
		tag, pol := fp.tag, fp.pol
		add(tag+"-iq1", func(c *Config) { c.FPU.Policy, c.FPU.InstrQueue = pol, 1 })
		add(tag+"-iq3", func(c *Config) { c.FPU.Policy, c.FPU.InstrQueue = pol, 3 })
		add(tag+"-sq1-rob1", func(c *Config) {
			c.FPU.Policy, c.FPU.StoreQueue, c.FPU.ReorderBuffer = pol, 1, 1
		})
	}
	add("gshare-fq3", func(c *Config) {
		c.BPred = BPredConfig{Kind: BPredGShare}
		c.FetchQueue = 3
	})
	add("nofold", func(c *Config) { c.DisableBranchFolding = true })
	add("nofold-gshare", func(c *Config) {
		c.DisableBranchFolding = true
		c.BPred = BPredConfig{Kind: BPredGShare}
	})
	add("tage", func(c *Config) { c.BPred = BPredConfig{Kind: BPredTAGE} })
	return out
}

// ringKernels are two integer kernels and the four FP kernels that keep the
// FPU busiest within the golden budget.
var ringKernels = []string{"espresso", "li", "doduc", "mdljdp2", "nasa7", "ora"}

// TestGoldenRingSizes pins every counter of the report under ringConfigs, so
// a change to how any ring index wraps that moves a single modelled event
// fails here. Regenerate only for a reviewed modelling change:
//
//	go test -run TestGoldenRingSizes -update-golden .
func TestGoldenRingSizes(t *testing.T) {
	if testing.Short() {
		t.Skip("ring-size golden matrix skipped in -short mode")
	}
	var b strings.Builder
	for _, cfg := range ringConfigs() {
		for _, name := range ringKernels {
			w, err := GetWorkload(name)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := Run(context.Background(), cfg, w, RunOptions{Budget: goldenBudget})
			if err != nil {
				t.Fatalf("%s on %s: %v", name, cfg.Name, err)
			}
			fmt.Fprintf(&b, "== %s/%s\n%s", cfg.Name, name, reportFingerprint(rep))
		}
	}
	checkGolden(t, filepath.Join("testdata", "golden_rings.txt"), b.String())
}

// checkGolden compares got with the golden file at path, or rewrites the
// file under -update-golden.
func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-golden to create): %v", err)
	}
	if got != string(want) {
		t.Fatalf("timing reports diverged from golden fingerprints:\n%s",
			firstDiff(string(want), got))
	}
}

// firstDiff locates the first diverging line for a readable failure.
func firstDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	n := len(wl)
	if len(gl) < n {
		n = len(gl)
	}
	ctx := "(start)"
	for i := 0; i < n; i++ {
		if strings.HasPrefix(wl[i], "== ") {
			ctx = wl[i]
		}
		if wl[i] != gl[i] {
			return fmt.Sprintf("first diff at line %d under %s:\n  golden: %s\n  got:    %s", i+1, ctx, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("line counts differ: golden %d, got %d", len(wl), len(gl))
}
