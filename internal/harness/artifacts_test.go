package harness

import "testing"

// TestArtifactRegistryUnique: every artifact name and every CSV file name
// is declared once, so /v1/figures lookups and -csv files never collide,
// and the kinds come in print order (paper sections, then extensions, then
// standalone entries), which Render's dividers assume.
func TestArtifactRegistryUnique(t *testing.T) {
	names, files := map[string]bool{}, map[string]bool{}
	last := PaperArtifact
	for _, a := range Artifacts() {
		if names[a.Name] {
			t.Errorf("artifact %q declared twice", a.Name)
		}
		names[a.Name] = true
		for _, f := range a.CSV {
			if files[f] {
				t.Errorf("CSV file %q declared twice", f)
			}
			files[f] = true
		}
		if a.Kind < last {
			t.Errorf("artifact %q (kind %d) follows kind %d", a.Name, a.Kind, last)
		}
		last = a.Kind
		if got, ok := ArtifactNamed(a.Name); !ok || got.Name != a.Name {
			t.Errorf("ArtifactNamed(%q) = %q, %v", a.Name, got.Name, ok)
		}
	}
	if _, ok := ArtifactNamed("fig99"); ok {
		t.Error("ArtifactNamed found an undeclared name")
	}
}
