package resultstore

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"aurora/internal/core"
	"aurora/internal/simfault"
)

// testReport builds a plausible, fully-populated report so round-trip tests
// exercise nested configs, counters and the float field.
func testReport() *core.Report {
	return &core.Report{
		Config:          core.Baseline(),
		Instructions:    250_000,
		Cycles:          412_345,
		DualIssues:      61_000,
		Stalls:          [core.NumStallCauses]uint64{10, 20, 30, 40, 50, 60},
		ICacheAccesses:  250_000,
		ICacheMisses:    9_000,
		MSHRUtilisation: 0.375,
	}
}

func testKey(version string) Key {
	return Key{
		Fingerprint: core.Baseline().Fingerprint(),
		Workload:    "espresso",
		Budget:      250_000,
		Scheduled:   false,
		CodeVersion: version,
	}
}

func panicFault() *simfault.Fault {
	return simfault.FromPanic("ipu: reorder buffer overflow", simfault.Job{
		Config: "baseline", Fingerprint: "fp", Workload: "espresso",
	}, 1234, []byte("goroutine 1 [running]"))
}

// mustOpen opens a writable store with a fixed version so tests do not
// depend on the working tree's hash.
func mustOpen(t *testing.T, dir, version string) *Store {
	t.Helper()
	s, err := open(dir, version, false)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPutGetRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, "v-test")
	k := testKey("v-test")
	want := testReport()

	if _, _, ok := s.Get(k); ok {
		t.Fatal("empty store reported a hit")
	}
	if err := s.Put(k, want, nil); err != nil {
		t.Fatal(err)
	}

	// A fresh handle on the same directory models a fresh process.
	s2 := mustOpen(t, dir, "v-test")
	got, f, ok := s2.Get(k)
	if !ok || f != nil {
		t.Fatalf("Get after Put: ok=%v fault=%v", ok, f)
	}
	if *got != *want {
		t.Errorf("round-tripped report differs:\ngot  %+v\nwant %+v", got, want)
	}
	if st := s2.Stats(); st.Hits != 1 || st.Misses != 0 || st.Corrupt != 0 {
		t.Errorf("fresh-handle stats %+v, want exactly one hit", st)
	}
	if st := s.Stats(); st.Puts != 1 || st.Misses != 1 {
		t.Errorf("writer stats %+v, want 1 put / 1 miss", st)
	}
}

func TestCodeVersionInvalidatesEntries(t *testing.T) {
	dir := t.TempDir()
	old := mustOpen(t, dir, "v-old")
	key := func(version string) Key {
		return Key{Fingerprint: "fp", Workload: "espresso", Budget: 1000, CodeVersion: version}
	}
	if err := old.Put(key(old.Version()), testReport(), nil); err != nil {
		t.Fatal(err)
	}

	cur := mustOpen(t, dir, "v-new")
	if _, _, ok := cur.Get(key(cur.Version())); ok {
		t.Fatal("entry written under an old code version served to a new build")
	}
	// The stale entry is a plain miss, not corruption: the old build's file
	// is untouched and still serves the old version.
	if st := cur.Stats(); st.Corrupt != 0 {
		t.Errorf("stale version counted as corruption: %+v", st)
	}
	if _, _, ok := old.Get(key(old.Version())); !ok {
		t.Error("old-version handle lost its own entry")
	}
}

func TestKeySeparation(t *testing.T) {
	s := mustOpen(t, t.TempDir(), "v")
	base := testKey("v")
	if err := s.Put(base, testReport(), nil); err != nil {
		t.Fatal(err)
	}
	for name, k := range map[string]Key{
		"workload":  {Fingerprint: base.Fingerprint, Workload: "li", Budget: base.Budget, CodeVersion: "v"},
		"budget":    {Fingerprint: base.Fingerprint, Workload: base.Workload, Budget: base.Budget + 1, CodeVersion: "v"},
		"scheduled": {Fingerprint: base.Fingerprint, Workload: base.Workload, Budget: base.Budget, Scheduled: true, CodeVersion: "v"},
		"config":    {Fingerprint: "other", Workload: base.Workload, Budget: base.Budget, CodeVersion: "v"},
	} {
		if _, _, ok := s.Get(k); ok {
			t.Errorf("key differing in %s hit the base entry", name)
		}
	}
}

func TestPersistableFaultRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, "v")
	k := testKey("v")
	orig := panicFault()
	if err := s.Put(k, nil, orig); err != nil {
		t.Fatal(err)
	}

	rep, f, ok := mustOpen(t, dir, "v").Get(k)
	if !ok || rep != nil || f == nil {
		t.Fatalf("fault entry: ok=%v rep=%v fault=%v", ok, rep, f)
	}
	if f.Subsystem != orig.Subsystem || f.Cycle != orig.Cycle || f.Workload != orig.Workload {
		t.Errorf("fault lost coordinates: got %+v want %+v", f, orig)
	}
	if !strings.Contains(f.Error(), "reorder buffer overflow") {
		t.Errorf("fault lost its cause: %v", f)
	}
	if f.Cell() != orig.Cell() {
		t.Errorf("wire cell %q != original %q", f.Cell(), orig.Cell())
	}
}

func TestDeadlineFaultRefused(t *testing.T) {
	s := mustOpen(t, t.TempDir(), "v")
	dl := simfault.Deadline(simfault.Job{Workload: "espresso"}, 500, time.Second)
	if err := s.Put(testKey("v"), nil, dl); !errors.Is(err, ErrNotPersistable) {
		t.Fatalf("Put(deadline fault) = %v, want ErrNotPersistable", err)
	}
	if _, _, ok := s.Get(testKey("v")); ok {
		t.Fatal("refused put still produced an entry")
	}
	if st := s.Stats(); st.PutErrors != 1 {
		t.Errorf("stats %+v, want the refused put counted", st)
	}
}

// TestDeadlineFaultEntryQuarantined covers the defensive read path: an
// entry containing an environment-dependent fault (written by a buggy or
// hostile producer — its checksum is valid) must not be served.
func TestDeadlineFaultEntryQuarantined(t *testing.T) {
	s := mustOpen(t, t.TempDir(), "v")
	k := testKey("v")
	e := entry{Key: k, Fault: &FaultRecord{
		Workload: "espresso", Subsystem: simfault.SubsystemDeadline,
		Cycle: 500, Panic: "job exceeded its 1s wall-clock deadline",
	}}
	writeRawEntry(t, s, k, e)

	if _, _, ok := s.Get(k); ok {
		t.Fatal("environment-dependent fault served from the store")
	}
	if st := s.Stats(); st.Corrupt != 1 {
		t.Errorf("stats %+v, want the entry quarantined as corrupt", st)
	}
	assertQuarantined(t, s, k)
}

// writeRawEntry writes an entry with a freshly computed (valid) checksum,
// bypassing Put's validation — the tool for crafting hostile files.
func writeRawEntry(t *testing.T, s *Store, k Key, e entry) {
	t.Helper()
	sum, err := e.sum()
	if err != nil {
		t.Fatal(err)
	}
	e.Sum = sum
	data, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	path := s.path(k)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func assertQuarantined(t *testing.T, s *Store, k Key) {
	t.Helper()
	if _, err := os.Stat(s.path(k) + ".corrupt"); err != nil {
		t.Errorf("corrupt entry not quarantined: %v", err)
	}
	if _, err := os.Stat(s.path(k)); !os.IsNotExist(err) {
		t.Errorf("corrupt entry still in place: %v", err)
	}
}

func TestTruncatedEntryDegradesToMiss(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, "v")
	k := testKey("v")
	if err := s.Put(k, testReport(), nil); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(s.path(k))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.path(k), data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	if _, _, ok := s.Get(k); ok {
		t.Fatal("truncated entry served as a hit")
	}
	assertQuarantined(t, s, k)

	// Recompute-and-rewrite proceeds normally over the quarantined file.
	if err := s.Put(k, testReport(), nil); err != nil {
		t.Fatalf("rewrite after quarantine: %v", err)
	}
	if _, _, ok := s.Get(k); !ok {
		t.Fatal("rewritten entry missed")
	}
}

func TestBitFlippedEntryDegradesToMiss(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, "v")
	k := testKey("v")
	if err := s.Put(k, testReport(), nil); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(s.path(k))
	if err != nil {
		t.Fatal(err)
	}
	// Flip one bit inside the report payload (clear of the JSON framing:
	// flip a digit of the cycle count), leaving the document well-formed
	// but wrong — only the checksum can catch this.
	i := strings.Index(string(data), "412345")
	if i < 0 {
		t.Fatal("cycle count not found in encoded entry")
	}
	data[i] ^= 0x01 // '4' -> '5'
	if err := os.WriteFile(s.path(k), data, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, _, ok := s.Get(k); ok {
		t.Fatal("bit-flipped entry passed checksum verification")
	}
	if st := s.Stats(); st.Corrupt != 1 {
		t.Errorf("stats %+v, want 1 corrupt", st)
	}
	assertQuarantined(t, s, k)
}

// TestKeyMismatchQuarantined: a verified entry copied under the wrong
// content address answers a different question and must be rejected.
func TestKeyMismatchQuarantined(t *testing.T) {
	s := mustOpen(t, t.TempDir(), "v")
	k := testKey("v")
	other := k
	other.Workload = "li"
	e := entry{Key: other, Report: testReport()}
	writeRawEntry(t, s, k, e) // filed under k, claims to answer `other`

	if _, _, ok := s.Get(k); ok {
		t.Fatal("entry with mismatched embedded key served")
	}
	assertQuarantined(t, s, k)
}

// TestConcurrentWritersSameKey races writers and readers on one key under
// -race: every reader sees either a miss or a fully verified entry, never
// a torn write, and exactly one entry file remains.
func TestConcurrentWritersSameKey(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, "v")
	k := testKey("v")
	rep := testReport()

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				if err := s.Put(k, rep, nil); err != nil {
					t.Errorf("concurrent Put: %v", err)
					return
				}
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				if got, _, ok := s.Get(k); ok && got.Cycles != rep.Cycles {
					t.Errorf("reader saw torn entry: %+v", got)
					return
				}
			}
		}()
	}
	wg.Wait()

	if st := s.Stats(); st.Corrupt != 0 {
		t.Errorf("racing identical writers produced corruption: %+v", st)
	}
	if _, _, ok := s.Get(k); !ok {
		t.Fatal("entry missing after the race")
	}
	files, err := filepath.Glob(filepath.Join(filepath.Dir(s.path(k)), "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 {
		t.Errorf("entry directory holds %d files after the race, want 1: %v", len(files), files)
	}
}

func TestReadOnlyStoreRefusesWrites(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir, "v")
	k := testKey("v")
	if err := w.Put(k, testReport(), nil); err != nil {
		t.Fatal(err)
	}

	ro, err := open(dir, "v", true)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := ro.Get(k); !ok {
		t.Fatal("read-only store missed an existing entry")
	}
	if err := ro.Put(k, testReport(), nil); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("read-only Put = %v, want ErrReadOnly", err)
	}
}

// TestUnwritableStoreDegrades: when the store root cannot be created (here
// it collides with a regular file — the chmod route is useless under root),
// Open of a writable store fails cleanly, and a store whose entry
// directory creation fails degrades Put to a counted error, not a crash.
func TestUnwritableStoreDegrades(t *testing.T) {
	parent := t.TempDir()
	blocked := filepath.Join(parent, "not-a-dir")
	if err := os.WriteFile(blocked, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := open(filepath.Join(blocked, "store"), "v", false); err == nil {
		t.Fatal("Open under a regular file succeeded")
	}

	// A store opened successfully whose tree later becomes unwritable:
	// simulate by replacing the v1 fan-out path with a file.
	dir := t.TempDir()
	s := mustOpen(t, dir, "v")
	if err := os.WriteFile(filepath.Join(dir, "v1"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	k := testKey("v")
	if err := s.Put(k, testReport(), nil); err == nil {
		t.Fatal("Put into an unwritable tree reported success")
	}
	if st := s.Stats(); st.PutErrors != 1 {
		t.Errorf("stats %+v, want the failed put counted", st)
	}
	if _, _, ok := s.Get(k); ok {
		t.Fatal("failed put produced a readable entry")
	}
}

func TestCodeVersionDeterministic(t *testing.T) {
	v1 := CodeVersion()
	v2 := CodeVersion()
	if v1 == "" || v1 == "unversioned" {
		t.Skipf("no code version derivable in this environment: %q", v1)
	}
	if v1 != v2 {
		t.Errorf("CodeVersion unstable within a process: %q vs %q", v1, v2)
	}
	if !strings.HasPrefix(v1, "src-") && !strings.HasPrefix(v1, "vcs-") && BuildVersion == "" {
		t.Errorf("unexpected code version shape %q", v1)
	}
}

// TestHashSimSourcesSensitivity: the source hash must cover file content —
// two hashes of the tree agree, and the helper fails loudly (falling back)
// when the sources are absent rather than returning a constant.
func TestHashSimSourcesStable(t *testing.T) {
	a, err := hashSimSources()
	if err != nil {
		t.Skipf("sim sources unavailable: %v", err)
	}
	b, err := hashSimSources()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("source hash unstable: %q vs %q", a, b)
	}
	if !strings.HasPrefix(a, "src-") || len(a) != len("src-")+16 {
		t.Errorf("source hash shape %q", a)
	}
}
