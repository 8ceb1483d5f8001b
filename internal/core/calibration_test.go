package core

import (
	"testing"

	"aurora/internal/trace"
	"aurora/internal/workloads"
)

func fullTrace(t testing.TB, name string) *trace.SliceStream {
	w, err := workloads.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	m, err := w.NewMachine()
	if err != nil {
		t.Fatal(err)
	}
	var recs []trace.Record
	if _, err := m.Run(4_000_000, func(r trace.Record) { recs = append(recs, r) }); err != nil {
		t.Fatal(err)
	}
	return &trace.SliceStream{Records: recs}
}

func TestCalibrationTable(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration dump")
	}
	names := []string{"espresso", "li", "eqntott", "compress", "sc", "gcc",
		"alvinn", "doduc", "ear", "hydro2d", "mdljdp2", "nasa7", "ora", "spice2g6", "su2cor"}
	for _, model := range []Config{Small(), Baseline(), Large()} {
		t.Logf("=== model %s ===", model.Name)
		for _, n := range names {
			st := fullTrace(t, n)
			p, _ := NewProcessor(model, st)
			r, err := p.Run()
			if err != nil {
				t.Fatalf("%s/%s: %v", model.Name, n, err)
			}
			t.Logf("%-9s CPI=%.3f ihit=%.2f dhit=%.2f ipf=%.1f dpf=%.1f wch=%.1f wtr=%.2f stall[IC=%.2f L=%.2f ROB=%.2f LSU=%.2f FPU=%.2f O=%.2f]",
				n, r.CPI(), 100*r.ICacheHitRate(), 100*r.DCacheHitRate(),
				100*r.IPrefetchHitRate(), 100*r.DPrefetchHitRate(),
				100*r.WriteCacheHitRate(), r.WriteTrafficRatio(),
				r.StallCPI(StallICache), r.StallCPI(StallLoad), r.StallCPI(StallROBFull),
				r.StallCPI(StallLSUBusy), r.StallCPI(StallFPU), r.StallCPI(StallOther))
		}
	}
}
