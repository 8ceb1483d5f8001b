package lint_test

import (
	"testing"

	"aurora/internal/lint"
	"aurora/internal/lint/linttest"
)

// TestWaiver runs the waiver-grammar analyzer over the waive fixture:
// reasonless waivers, unknown tokens and malformed directives are named;
// the legal forms stay silent.
func TestWaiver(t *testing.T) {
	linttest.Run(t, "testdata", lint.Waiver, "waive/a")
}

// TestWaiverInventory pins the waiver population of the shipped tree: which
// files opt out of which invariant, and how many times. Adding a waiver is
// a reviewed decision — update the table here with the new entry. Removing
// one (an invariant regained) updates it too, downward.
func TestWaiverInventory(t *testing.T) {
	entries, err := lint.WaiverInventory("../..")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{
		"internal/cache/cache.go|panic":      1, // construction-time validation
		"internal/cache/writecache.go|panic": 1, // construction-time validation
		"internal/core/config.go|identity":   1, // Config.Name labels, never keys
		"internal/harness/runner.go|fault":   1, // persist failures counted in Stats.PutErrors
		"internal/mem/biu.go|alloc":          2, // steady-state buffers
	}
	got := map[string]int{}
	for _, e := range entries {
		got[e.File+"|"+e.Token]++
		if e.Reason == "" {
			t.Errorf("%s:%d: waiver without a reason", e.File, e.Line)
		}
	}
	for k, n := range want {
		if got[k] != n {
			t.Errorf("waivers at %s: got %d, want %d", k, got[k], n)
		}
	}
	for k, n := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("unpinned waivers at %s (%d): add them to the table with a review", k, n)
		}
	}
	if len(entries) != 6 {
		t.Errorf("total waivers = %d, want 6", len(entries))
	}
}
