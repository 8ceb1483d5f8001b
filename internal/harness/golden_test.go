package harness

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The artifact goldens pin the rendered bytes of real runs: every registry
// artifact's text and CSV files, the exploration's frontier, the faulted
// render and the sampled grid, each under testdata/. Regenerate only when a
// change to the output is intended and reviewed:
//
//	go test ./internal/harness/ -run 'TestRenderParallelMatchesSerial|TestExploreDeterminismAcrossWorkers|TestKeepGoingMarksEveryRow|TestSampledSweepGrid' -update-golden

var updateGolden = flag.Bool("update-golden", false, "rewrite the artifact goldens under testdata/")

// checkGolden compares got with testdata/name, or rewrites the file under
// -update-golden.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
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
		t.Errorf("render diverged from %s:\n%s", path, firstDiff(string(want), got))
	}
}

// csvSection frames one CSV file in a golden after the text it follows.
func csvSection(name, body string) string {
	return fmt.Sprintf("==> %s.csv <==\n%s", name, body)
}

// firstDiff locates the first diverging line for a readable failure.
func firstDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if wl[i] != gl[i] {
			return fmt.Sprintf("first diff at line %d:\n  golden: %q\n  got:    %q", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("line counts differ: golden %d, got %d", len(wl), len(gl))
}
