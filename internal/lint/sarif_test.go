package lint_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"aurora/internal/lint"
)

// vetStream is a captured `go vet -json` stderr stream: comment lines,
// two concatenated per-package objects, multiple analyzers.
const vetStream = "# aurora/internal/harness\n" +
	"# [aurora/internal/harness]\n" +
	`{
	"aurora/internal/harness": {
		"faultpath": [
			{
				"posn": "/repo/internal/harness/runner.go:281:2",
				"message": "faultpath: error from Write is discarded (assigned to _)"
			},
			{
				"posn": "/repo/internal/harness/runner.go:286:2",
				"message": "faultpath: error from Put is discarded (assigned to _)"
			}
		]
	}
}
` + "# aurora/internal/core\n" + `{
	"aurora/internal/core": {
		"keyflow": [
			{
				"posn": "/repo/internal/core/config.go:30:2",
				"message": "keyflow: field Config.New does not reach identity method Fingerprint"
			}
		]
	}
}
`

func TestParseVetJSON(t *testing.T) {
	got, err := lint.ParseVetJSON(strings.NewReader(vetStream))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("got %d results, want 3: %+v", len(got), got)
	}
	// Sorted by file: core/config.go first.
	first := got[0]
	if first.Analyzer != "keyflow" || first.File != "/repo/internal/core/config.go" ||
		first.Line != 30 || first.Column != 2 || first.Package != "aurora/internal/core" {
		t.Errorf("first result = %+v", first)
	}
	if got[1].Line != 281 || got[2].Line != 286 {
		t.Errorf("harness results out of order: %+v", got[1:])
	}
}

func TestParseVetJSONEmpty(t *testing.T) {
	got, err := lint.ParseVetJSON(strings.NewReader("# pkg\n# [pkg]\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("got %d results, want 0", len(got))
	}
}

func TestWriteSARIF(t *testing.T) {
	results, err := lint.ParseVetJSON(strings.NewReader(vetStream))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := lint.WriteSARIF(&buf, results, "/repo"); err != nil {
		t.Fatal(err)
	}

	// The log must be valid JSON with the SARIF 2.1.0 envelope.
	var log struct {
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID    string `json:"ruleId"`
				Level     string `json:"level"`
				Message   struct{ Text string }
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine int `json:"startLine"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(buf.Bytes(), &log); err != nil {
		t.Fatalf("invalid SARIF JSON: %v\n%s", err, buf.String())
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 {
		t.Fatalf("bad envelope: version=%q runs=%d", log.Version, len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "aurora-lint" {
		t.Errorf("driver name = %q", run.Tool.Driver.Name)
	}
	if len(run.Results) != 3 {
		t.Fatalf("got %d results, want 3", len(run.Results))
	}
	// Paths are rewritten relative to root.
	uri := run.Results[0].Locations[0].PhysicalLocation.ArtifactLocation.URI
	if uri != "internal/core/config.go" {
		t.Errorf("uri = %q, want internal/core/config.go", uri)
	}
	if run.Results[0].RuleID != "keyflow" || run.Results[0].Level != "error" {
		t.Errorf("result[0] = %+v", run.Results[0])
	}
	if run.Results[0].Locations[0].PhysicalLocation.Region.StartLine != 30 {
		t.Errorf("startLine = %d", run.Results[0].Locations[0].PhysicalLocation.Region.StartLine)
	}
	// Both rule IDs present in the rule table, with the aurora analyzer's
	// real doc line.
	ids := map[string]bool{}
	for _, r := range run.Tool.Driver.Rules {
		ids[r.ID] = true
	}
	if !ids["keyflow"] || !ids["faultpath"] {
		t.Errorf("rules = %+v", run.Tool.Driver.Rules)
	}
}

// TestWriteSARIFEmpty: an all-clean run still produces a valid log with an
// empty (non-null) results array — the upload step runs unconditionally.
func TestWriteSARIFEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := lint.WriteSARIF(&buf, nil, ""); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"results": []`) {
		t.Errorf("empty results not rendered as []:\n%s", buf.String())
	}
}
