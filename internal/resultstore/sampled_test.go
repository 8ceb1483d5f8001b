package resultstore

import (
	"strings"
	"testing"

	"aurora/internal/core"
	"aurora/internal/sample"
)

func testSampledReport() *sample.Report {
	p := sample.Params{WarmUp: 20_000, Interval: 10_000, Window: 2_000}.Normalize()
	return &sample.Report{
		Workload:             "espresso",
		Config:               "baseline",
		SampleKey:            p.Key(),
		Params:               p,
		Budget:               250_000,
		Instructions:         250_000,
		DetailedInstructions: 46_000,
		DetailedCycles:       52_000,
		MeasuredInstructions: 23_000,
		MeasuredCycles:       26_000,
		Windows:              23,
		WindowCPI:            []float64{1.1, 1.2, 1.15},
		CPI:                  1.15,
		CPIError:             0.12,
		Confidence:           0.99,
		EstimatedCycles:      287_500,
	}
}

// sampledKey is the store key of a sampled estimate at these coordinates.
func sampledKey(fp string, budget uint64, sampleKey, version string) Key {
	return Key{Fingerprint: fp, Workload: "espresso", Budget: budget, Sample: sampleKey, CodeVersion: version}
}

func TestSampledRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, "v-test")
	want := testSampledReport()
	k := sampledKey(core.Baseline().Fingerprint(), 250_000, want.SampleKey, "v-test")

	if _, ok := s.Read(k); ok {
		t.Fatal("empty store reported a sampled hit")
	}
	if err := s.Write(k, Result{Sampled: want}); err != nil {
		t.Fatal(err)
	}

	res, ok := mustOpen(t, dir, "v-test").Read(k)
	if !ok || res.Fault != nil || res.Report != nil {
		t.Fatalf("Read after Write: ok=%v result=%+v", ok, res)
	}
	got := res.Sampled
	if got.CPI != want.CPI || got.CPIError != want.CPIError || got.Windows != want.Windows ||
		got.SampleKey != want.SampleKey || len(got.WindowCPI) != len(want.WindowCPI) {
		t.Errorf("round-tripped sampled report differs:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestSampledNeverAliasesExact is the key-separation contract: the same
// (config, workload, budget) stored both exactly and sampled stays two
// distinct entries, and each read only ever returns its own kind.
func TestSampledNeverAliasesExact(t *testing.T) {
	s := mustOpen(t, t.TempDir(), "v-test")
	fp := core.Baseline().Fingerprint()
	exactKey := Key{Fingerprint: fp, Workload: "espresso", Budget: 250_000, CodeVersion: "v-test"}
	srep := testSampledReport()
	sk := sampledKey(fp, 250_000, srep.SampleKey, "v-test")

	// Only the sampled entry exists: the exact lookup must miss.
	if err := s.Write(sk, Result{Sampled: srep}); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := s.Get(exactKey); ok {
		t.Fatal("exact Get returned a sampled entry")
	}
	if _, ok := s.Read(exactKey); ok {
		t.Fatal("exact Read returned a sampled entry")
	}

	// Both exist: each lookup returns its own kind.
	if err := s.Put(exactKey, testReport(), nil); err != nil {
		t.Fatal(err)
	}
	rep, _, ok := s.Get(exactKey)
	if !ok || rep == nil || rep.Instructions != testReport().Instructions {
		t.Fatalf("exact Get after both writes: ok=%v rep=%+v", ok, rep)
	}
	res, ok := s.Read(sk)
	if !ok || res.Report != nil || res.Sampled == nil || res.Sampled.CPI != srep.CPI {
		t.Fatalf("sampled Read after both writes: ok=%v result=%+v", ok, res)
	}
	if _, _, ok := s.Get(sk); ok {
		t.Fatal("exact Get answered a sampled key")
	}

	// Distinct sampling parameters are distinct entries too.
	other := sample.Params{WarmUp: 30_000, Interval: 10_000, Window: 2_000}.Normalize()
	if _, ok := s.Read(sampledKey(fp, 250_000, other.Key(), "v-test")); ok {
		t.Fatal("different sampling parameters hit the same entry")
	}
}

// TestSampledKeyRequiredOnBothPaths: an exact report is refused under a
// sampled key and a sampled estimate under an exact key, so a coding
// mistake cannot cross the streams silently.
func TestSampledKeyRequiredOnBothPaths(t *testing.T) {
	s := mustOpen(t, t.TempDir(), "v-test")
	srep := testSampledReport()

	sk := sampledKey("fp", 1, srep.SampleKey, "v-test")
	if err := s.Put(sk, testReport(), nil); err == nil {
		t.Error("Put accepted a key with a Sample discriminator")
	} else if !strings.Contains(err.Error(), "sampled key") {
		t.Errorf("Put error %q does not explain the key kind", err)
	}

	exactKey := Key{Fingerprint: "fp", Workload: "espresso", Budget: 1, CodeVersion: "v-test"}
	for name, res := range map[string]Result{
		"sampled under an exact key": {Sampled: srep},
		"sampled and a fault":        {Sampled: srep, Fault: panicFault()},
		"report and sampled":         {Report: testReport(), Sampled: srep},
		"no payload":                 {},
	} {
		k := sk
		if name == "sampled under an exact key" {
			k = exactKey
		}
		if err := s.Write(k, res); err == nil {
			t.Errorf("Write accepted %s", name)
		}
	}
	if st := s.Stats(); st.Puts != 0 || st.PutErrors != 5 {
		t.Errorf("stats %+v, want every refused write counted", st)
	}
}

// TestSampledFaultRoundTrip: persistable faults store and return under
// sampled keys like exact ones.
func TestSampledFaultRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, "v-test")
	f := panicFault()
	k := sampledKey("fp", 1_000, testSampledReport().SampleKey, "v-test")

	if err := s.Write(k, Result{Fault: f}); err != nil {
		t.Fatal(err)
	}
	res, ok := mustOpen(t, dir, "v-test").Read(k)
	if !ok || res.Sampled != nil || res.Fault == nil {
		t.Fatalf("fault lookup: ok=%v result=%+v", ok, res)
	}
	if got := res.Fault; got.Subsystem != f.Subsystem || got.Cycle != f.Cycle {
		t.Errorf("round-tripped fault differs: %+v vs %+v", got, f)
	}
}

// TestSampledCodeVersionInvalidates: sampled entries are keyed by code
// version like exact ones — a new simulator build re-estimates.
func TestSampledCodeVersionInvalidates(t *testing.T) {
	dir := t.TempDir()
	old := mustOpen(t, dir, "v-old")
	srep := testSampledReport()
	if err := old.Write(sampledKey("fp", 1_000, srep.SampleKey, "v-old"), Result{Sampled: srep}); err != nil {
		t.Fatal(err)
	}
	if _, ok := mustOpen(t, dir, "v-new").Read(sampledKey("fp", 1_000, srep.SampleKey, "v-new")); ok {
		t.Fatal("sampled entry survived a code-version change")
	}
}
