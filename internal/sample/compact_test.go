package sample

import (
	"context"
	"encoding/json"
	"testing"

	"aurora/internal/asm"
	"aurora/internal/core"
	"aurora/internal/isa"
	"aurora/internal/trace"
	"aurora/internal/workloads"
)

// readStream drains s in batches of batch records.
func readStream(s trace.Stream, batch int) []trace.Record {
	var out []trace.Record
	buf := make([]trace.Record, batch)
	for {
		n := s.NextBatch(buf)
		if n == 0 {
			return out
		}
		out = append(out, buf[:n]...)
	}
}

// sameRecord reports whether two records agree field for field, comparing
// the static instructions they point at by value (the two records may come
// from different machines' text tables).
func sameRecord(a, b *trace.Record) bool {
	x, y := *a, *b
	x.SI, y.SI = nil, nil
	return x == y && *a.SI == *b.SI
}

// TestWindowRecordsRoundTrip: on every kernel, each window a checkpoint
// decodes is, record for record and field for field, what a second
// machine's vm.Stream yields at the same point of the same layout.
func TestWindowRecordsRoundTrip(t *testing.T) {
	ctx := context.Background()
	p := testParams()
	const budget = 60_000
	for _, name := range workloads.Names() {
		t.Run(name, func(t *testing.T) {
			w := getWorkload(t, name)
			cp, err := NewCheckpoint(ctx, w, budget, p)
			if err != nil {
				t.Fatal(err)
			}
			m, err := w.NewMachine()
			if err != nil {
				t.Fatal(err)
			}
			skip := func(n uint64) {
				if budget-m.Steps() < n {
					n = budget - m.Steps()
				}
				readStream(m.Stream(n), captureBatch)
			}
			skip(p.WarmUp)
			windows := 0
			for i, seg := range cp.segs {
				if i > 0 {
					skip(p.Interval - p.Window)
				}
				if len(seg.win) == 0 {
					continue
				}
				windows++
				ws := &windowStream{static: cp.static}
				ws.recs = seg.win
				got := readStream(ws, 7)
				want := readStream(m.Stream(uint64(len(seg.win))), captureBatch)
				if len(got) != len(want) {
					t.Fatalf("segment %d: decoded %d records, want %d", i, len(got), len(want))
				}
				for j := range got {
					if !sameRecord(&got[j], &want[j]) {
						t.Fatalf("segment %d record %d: decoded %+v (SI %+v), want %+v (SI %+v)",
							i, j, got[j], *got[j].SI, want[j], *want[j].SI)
					}
				}
			}
			if windows < 2 {
				t.Fatalf("only %d windows compared", windows)
			}
			if m.Steps() != cp.Executed {
				t.Errorf("layout replay executed %d instructions, checkpoint %d", m.Steps(), cp.Executed)
			}
		})
	}
}

// TestEncodeRecordRejects: a record the decoder could not give back exactly
// fails the encoding instead of being stored wrong.
func TestEncodeRecordRejects(t *testing.T) {
	static := []trace.StaticInstr{
		trace.NewStatic(isa.Instruction{Op: isa.OpLW, Rt: 8, Rs: 29}),
		trace.NewStatic(isa.Instruction{Op: isa.OpJ, Target: 4}),
		trace.NewStatic(isa.Instruction{Op: isa.OpADDU, Rd: 3, Rs: 4, Rt: 5}),
	}
	lw, j, addu := &static[0], &static[1], &static[2]
	const pc = asm.TextBase
	stray := trace.NewStatic(isa.Instruction{Op: isa.OpLW, Rt: 8, Rs: 29})

	for _, tc := range []struct {
		name string
		rec  trace.Record
	}{
		{"mem op with a target", trace.Record{SI: lw, PC: pc, MemAddr: 0x1000_0040, Target: 0x40_0010}},
		{"mem op marked taken", trace.Record{SI: lw, PC: pc, MemAddr: 0x1000_0040, Taken: true}},
		{"taken jump to an odd target", trace.Record{SI: j, PC: pc + 4, Target: 0x40_0011, Taken: true}},
		{"untaken transfer to an odd target", trace.Record{SI: j, PC: pc + 4, Target: 0x40_0011}},
		{"non-mem op with an address", trace.Record{SI: addu, PC: pc + 8, MemAddr: 0x1000_0040}},
		{"SI outside the table", trace.Record{SI: &stray, PC: pc}},
		{"SI of another pc", trace.Record{SI: lw, PC: pc + 8}},
		{"pc below the text", trace.Record{SI: lw, PC: pc - 4}},
		{"pc past the text", trace.Record{SI: lw, PC: pc + 12}},
		{"misaligned pc", trace.Record{SI: lw, PC: pc + 1}},
	} {
		if r, err := encodeRecord(static, &tc.rec); err == nil {
			t.Errorf("%s: encoded as %+v, want an error", tc.name, r)
		}
	}

	// Every well-formed shape round-trips.
	valid := []trace.Record{
		{SI: lw, PC: pc, MemAddr: 0x1000_0043},
		{SI: j, PC: pc + 4, Target: 0x40_0010, Taken: true},
		{SI: j, PC: pc + 4, Target: 0x40_0010},
		{SI: addu, PC: pc + 8},
	}
	recs := make([]winRec, len(valid))
	for i := range valid {
		r, err := encodeRecord(static, &valid[i])
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		recs[i] = r
	}
	ws := &windowStream{static: static}
	ws.recs = recs
	got := readStream(ws, 3)
	if len(got) != len(valid) {
		t.Fatalf("decoded %d records, want %d", len(got), len(valid))
	}
	for i := range got {
		if got[i] != valid[i] {
			t.Errorf("record %d: decoded %+v, want %+v", i, got[i], valid[i])
		}
	}
}

// TestWarmEntryPacking: an entry keeps its kind and the 16-byte block of
// its address, the only part of the address a cache line of 16 bytes or
// more can see.
func TestWarmEntryPacking(t *testing.T) {
	for _, kind := range []core.WarmKind{core.WarmFetch, core.WarmLoad, core.WarmStore} {
		for _, addr := range []uint32{0, 0x40_0004, 0x1000_fffe, 0xffff_ffff} {
			e := packWarm(kind, addr)
			if e.kind() != kind || e.addr() != addr&^(warmDedupBlock-1) {
				t.Errorf("packWarm(%d, %#x) unpacks to (%d, %#x)", kind, addr, e.kind(), e.addr())
			}
		}
	}
}

// TestWarmRingTruncation: a ring capped at 8 entries keeps the newest 8 in
// order and says so; a capture under that cap logs, per segment, the
// newest 8 entries of the uncapped capture's log, sets Truncated, and
// replays the same windows.
func TestWarmRingTruncation(t *testing.T) {
	const ringCap = 8
	r := &warmRing{max: ringCap}
	for i := 0; i < 20; i++ {
		r.push(warmEntry(i << 4))
	}
	got := r.log()
	if len(got) != ringCap || !r.truncated {
		t.Fatalf("ring of 20 pushes under cap %d: %d entries, truncated %v", ringCap, len(got), r.truncated)
	}
	for i, e := range got {
		if want := warmEntry((12 + i) << 4); e != want {
			t.Errorf("entry %d = %#x, want %#x", i, e, want)
		}
	}
	r.reset()
	r.push(1 << 4)
	if got := r.log(); len(got) != 1 || got[0] != 1<<4 || r.truncated {
		t.Errorf("after reset: log %v, truncated %v", got, r.truncated)
	}

	ctx := context.Background()
	w := getWorkload(t, "espresso")
	p := testParams()
	const budget = 60_000
	full, err := NewCheckpoint(ctx, w, budget, p)
	if err != nil {
		t.Fatal(err)
	}
	capped, err := newCheckpoint(ctx, w, budget, p, ringCap)
	if err != nil {
		t.Fatal(err)
	}
	if full.Truncated {
		t.Error("uncapped capture reports Truncated")
	}
	if !capped.Truncated {
		t.Error("capture under an 8-entry cap does not report Truncated")
	}
	if len(capped.segs) != len(full.segs) {
		t.Fatalf("%d segments under the cap, %d without", len(capped.segs), len(full.segs))
	}
	for i := range full.segs {
		fw, cw := full.segs[i].warm, capped.segs[i].warm
		want := fw[len(fw)-min(len(fw), ringCap):]
		if len(cw) != len(want) {
			t.Fatalf("segment %d: %d entries under the cap, want %d", i, len(cw), len(want))
		}
		for j := range cw {
			if cw[j] != want[j] {
				t.Errorf("segment %d entry %d = %#x, want %#x", i, j, cw[j], want[j])
			}
		}
		if len(capped.segs[i].win) != len(full.segs[i].win) {
			t.Errorf("segment %d: window of %d records under the cap, %d without",
				i, len(capped.segs[i].win), len(full.segs[i].win))
		}
	}
}

// TestReplayZeroAlloc mirrors TestCycleLoopZeroAlloc for the sampled
// replay path: on every kernel, a processor fed by the compact window
// stream, once warm, runs 5k cycles without allocating.
func TestReplayZeroAlloc(t *testing.T) {
	ctx := context.Background()
	// One window long enough that no measured span drains it.
	p := Params{WarmUp: 20_000, Interval: 300_000, Window: 300_000}
	for _, name := range workloads.Names() {
		t.Run(name, func(t *testing.T) {
			cp, err := NewCheckpoint(ctx, getWorkload(t, name), p.WarmUp+p.Window, p)
			if err != nil {
				t.Fatal(err)
			}
			stream := &windowStream{static: cp.static}
			proc, err := core.NewProcessor(core.Baseline(), stream)
			if err != nil {
				t.Fatal(err)
			}
			seg := cp.segs[0]
			for _, e := range seg.warm {
				proc.WarmAccess(e.kind(), e.addr())
			}
			stream.recs = seg.win
			for i := 0; i < 5_000; i++ {
				if !proc.Step() {
					t.Fatal("drained during warm-up")
				}
			}
			avg := testing.AllocsPerRun(20, func() {
				for i := 0; i < 5_000; i++ {
					proc.Step()
				}
			})
			if avg != 0 {
				t.Fatalf("window replay allocates: %.2f allocs per 5k-cycle run, want 0", avg)
			}
			if !proc.Step() {
				t.Fatal("drained before the measured span ended")
			}
		})
	}
}

// TestCheckpointCacheEvictsOldest: with a budget that holds two of three
// checkpoints, the least recently requested one is dropped, a request for
// it rebuilds (and is counted), and the rebuilt checkpoint replays to a
// byte-identical report.
func TestCheckpointCacheEvictsOldest(t *testing.T) {
	ctx := context.Background()
	p := testParams()
	li, espresso := getWorkload(t, "li"), getWorkload(t, "espresso")
	type req struct {
		w      *workloads.Workload
		budget uint64
	}
	a, b, c := req{li, 60_000}, req{li, 90_000}, req{espresso, 60_000}

	var sizes []int64
	for _, r := range []req{a, b, c} {
		cp, err := NewCheckpoint(ctx, r.w, r.budget, p)
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, cp.size())
	}
	budget := sizes[0] + sizes[1] + sizes[2] - min(sizes[0], sizes[1], sizes[2])
	cache := newCheckpointCache(budget)
	get := func(r req) *Checkpoint {
		t.Helper()
		cp, err := cache.Get(ctx, r.w, r.budget, p)
		if err != nil {
			t.Fatal(err)
		}
		return cp
	}
	has := func(r req) bool {
		cache.mu.Lock()
		defer cache.mu.Unlock()
		_, ok := cache.m[cpKey{workload: r.w.Name, warmUp: p.WarmUp, interval: p.Interval, window: p.Window, budget: r.budget}]
		return ok
	}

	first := get(a)
	get(b)
	if get(a) != first {
		t.Fatal("a cached checkpoint was rebuilt within the budget")
	}
	get(c) // over budget: b is now the least recently requested
	if st := cache.Stats(); st.Builds != 3 || st.Evictions != 1 {
		t.Errorf("after three keys: %+v, want 3 builds and 1 eviction", st)
	}
	if !has(a) || has(b) || !has(c) {
		t.Errorf("cached after evicting: a %v, b %v, c %v; want a and c", has(a), has(b), has(c))
	}

	get(b) // rebuilds b and drops a, now the oldest
	if st := cache.Stats(); st.Builds != 4 || st.Evictions != 2 {
		t.Errorf("after the rebuild: %+v, want 4 builds and 2 evictions", st)
	}
	rebuilt := get(a)
	if rebuilt == first {
		t.Fatal("the evicted checkpoint was served again instead of rebuilt")
	}
	if st := cache.Stats(); st.Builds != 5 || st.Evictions != 3 {
		t.Errorf("after rebuilding a: %+v, want 5 builds and 3 evictions", st)
	}
	// The job still holding the evicted checkpoint replays it unchanged.
	want, err := first.Run(ctx, core.Baseline(), a.budget, p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := rebuilt.Run(ctx, core.Baseline(), a.budget, p)
	if err != nil {
		t.Fatal(err)
	}
	wj, _ := json.Marshal(want)
	gj, _ := json.Marshal(got)
	if string(gj) != string(wj) {
		t.Errorf("rebuilt checkpoint's report differs:\nrebuilt:  %s\noriginal: %s", gj, wj)
	}
}

// TestCheckpointCacheKeepsInFlight: eviction passes over a build in flight,
// however old its request.
func TestCheckpointCacheKeepsInFlight(t *testing.T) {
	cache := newCheckpointCache(1)
	building := cpKey{workload: "building"}
	cache.m[building] = &cpEntry{done: make(chan struct{})}
	if _, err := cache.Get(context.Background(), getWorkload(t, "li"), 60_000, testParams()); err != nil {
		t.Fatal(err)
	}
	if _, ok := cache.m[building]; !ok {
		t.Error("an in-flight build was evicted")
	}
	if st := cache.Stats(); st.Evictions != 1 || len(cache.m) != 1 {
		t.Errorf("%+v with %d entries left; want the one completed entry evicted", st, len(cache.m))
	}
}

// TestCheckpointCacheConcurrentEviction: requesters racing over more keys
// than the budget holds each get the checkpoint of the key they asked for,
// while builds, hits and evictions interleave. Run it under -race.
func TestCheckpointCacheConcurrentEviction(t *testing.T) {
	ctx := context.Background()
	p := testParams()
	w := getWorkload(t, "li")
	one, err := NewCheckpoint(ctx, w, 40_000, p)
	if err != nil {
		t.Fatal(err)
	}
	cache := newCheckpointCache(2 * one.size())
	budgets := []uint64{40_000, 45_000, 50_000, 55_000}
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 12; i++ {
				b := budgets[(g+i)%len(budgets)]
				cp, err := cache.Get(ctx, w, b, p)
				if err != nil {
					t.Error(err)
					return
				}
				if !cp.Matches(w.Name, b, p) {
					t.Errorf("requested budget %d, got a checkpoint of budget %d", b, cp.Budget)
				}
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	if st := cache.Stats(); st.Evictions == 0 || st.Builds < uint64(len(budgets)) {
		t.Errorf("%+v: want every key built and some evicted", st)
	}
}
