package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeModule materializes a throwaway module for driver tests. files maps
// module-relative paths to contents; a go.mod is added automatically.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	files["go.mod"] = "module tmpmod\n\ngo 1.24\n"
	for rel, content := range files {
		path := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// errSource is a stand-in for the repository's parse surface: the analyzers
// match packages by import-path suffix, so tmpmod/internal/sjson counts as
// an error source without importing the real module.
const errSource = `package sjson

import "errors"

func Parse(s string) error {
	if s == "" {
		return errors.New("empty")
	}
	return nil
}
`

func TestDriverCleanTree(t *testing.T) {
	root := writeModule(t, map[string]string{
		"internal/sjson/sjson.go": errSource,
		"ok/ok.go": `package ok

import "tmpmod/internal/sjson"

func Use(s string) error { return sjson.Parse(s) }
`,
	})
	var stdout, stderr bytes.Buffer
	code := run([]string{"-C", root, "-json", "./..."}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit = %d, want 0; stderr: %s", code, stderr.String())
	}
	var res struct {
		Diagnostics []map[string]any `json:"diagnostics"`
		Count       int              `json:"count"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &res); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, stdout.String())
	}
	if res.Count != 0 || res.Diagnostics == nil || len(res.Diagnostics) != 0 {
		t.Fatalf("clean tree reported %d diagnostics: %s", res.Count, stdout.String())
	}
	if !strings.Contains(stdout.String(), `"diagnostics": [`) {
		t.Fatalf("diagnostics must serialize as an array, not null: %s", stdout.String())
	}
}

func TestDriverFindings(t *testing.T) {
	root := writeModule(t, map[string]string{
		"internal/sjson/sjson.go": errSource,
		"bad/bad.go": `package bad

import "tmpmod/internal/sjson"

func Leak() {
	sjson.Parse("x")
}
`,
	})
	var stdout, stderr bytes.Buffer
	code := run([]string{"-C", root, "-json", "./..."}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit = %d, want 1; stderr: %s", code, stderr.String())
	}
	var res struct {
		Diagnostics []struct {
			Analyzer string `json:"analyzer"`
			File     string `json:"file"`
			Line     int    `json:"line"`
			Col      int    `json:"col"`
			Message  string `json:"message"`
		} `json:"diagnostics"`
		Count int `json:"count"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &res); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, stdout.String())
	}
	if res.Count != 1 || len(res.Diagnostics) != 1 {
		t.Fatalf("want exactly one finding, got %d: %s", res.Count, stdout.String())
	}
	d := res.Diagnostics[0]
	if d.Analyzer != "errdiscard" || !strings.HasSuffix(d.File, "bad.go") ||
		d.Line != 6 || d.Col == 0 || !strings.Contains(d.Message, "bare call") {
		t.Fatalf("unexpected diagnostic shape: %+v", d)
	}
}

func TestDriverLoadError(t *testing.T) {
	root := writeModule(t, map[string]string{
		"broken/broken.go": `package broken

func f() { undefinedIdent() }
`,
	})
	var stdout, stderr bytes.Buffer
	code := run([]string{"-C", root, "./..."}, &stdout, &stderr)
	if code != 2 {
		t.Fatalf("exit = %d, want 2; stdout: %s", code, stdout.String())
	}
	if !strings.Contains(stderr.String(), "maxson-vet:") {
		t.Fatalf("load error not reported on stderr: %q", stderr.String())
	}
}

func TestDriverTextOutputAndRunSelection(t *testing.T) {
	root := writeModule(t, map[string]string{
		"internal/sjson/sjson.go": errSource,
		"bad/bad.go": `package bad

import "tmpmod/internal/sjson"

func Leak() {
	sjson.Parse("x")
}
`,
	})
	var stdout, stderr bytes.Buffer
	code := run([]string{"-C", root, "-run", "errdiscard", "./..."}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit = %d, want 1; stderr: %s", code, stderr.String())
	}
	line := strings.TrimSpace(stdout.String())
	if !strings.Contains(line, "bad.go:6:") || !strings.HasSuffix(line, "(errdiscard)") {
		t.Fatalf("unexpected text rendering: %q", line)
	}

	stdout.Reset()
	if code := run([]string{"-C", root, "-run", "lockheld", "./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("-run lockheld exit = %d, want 0 (errdiscard finding filtered out)", code)
	}

	stderr.Reset()
	if code := run([]string{"-run", "nosuch", "./..."}, &stdout, &stderr); code != 2 {
		t.Fatalf("-run nosuch exit = %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "unknown analyzer") {
		t.Fatalf("unknown analyzer not reported: %q", stderr.String())
	}
}

func TestDriverList(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-list exit = %d, want 0", code)
	}
	for _, name := range []string{"ctxflow", "errdiscard", "lockheld", "lockorder"} {
		if !strings.Contains(stdout.String(), name) {
			t.Fatalf("-list output missing %s:\n%s", name, stdout.String())
		}
	}
	if n := strings.Count(strings.TrimSpace(stdout.String()), "\n") + 1; n != 4 {
		t.Fatalf("-list printed %d analyzers, want 4:\n%s", n, stdout.String())
	}
}

// TestDriverRunInterprocedural selects ctxflow and the call-graph-backed
// lockorder by name over a module whose library mints a context root and
// whose command does too: only the library's is a finding.
func TestDriverRunInterprocedural(t *testing.T) {
	root := writeModule(t, map[string]string{
		"svc/svc.go": `package svc

import "context"

func Handle(ctx context.Context) {
	_ = ctx
	_ = context.Background()
}
`,
		"cmd/tool/main.go": `package main

import (
	"context"

	"tmpmod/svc"
)

func main() { svc.Handle(context.Background()) }
`,
	})
	var stdout, stderr bytes.Buffer
	code := run([]string{"-C", root, "-run", "ctxflow,lockorder", "./..."}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit = %d, want 1; stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "svc.go:7:") || !strings.Contains(out, "context.Background() outside package main") || !strings.Contains(out, "(ctxflow)") {
		t.Fatalf("ctxflow finding missing:\n%s", out)
	}
	if strings.Contains(out, "main.go") {
		t.Fatalf("a context root in package main was reported:\n%s", out)
	}
	if strings.Contains(out, "(lockorder)") {
		t.Fatalf("unexpected lockorder finding:\n%s", out)
	}
}

// TestDriverSARIF pins the SARIF 2.1.0 shape CI uploads: tool name, rules,
// and one result with a module-relative location.
func TestDriverSARIF(t *testing.T) {
	root := writeModule(t, map[string]string{
		"internal/sjson/sjson.go": errSource,
		"bad/bad.go": `package bad

import "tmpmod/internal/sjson"

func Leak() {
	sjson.Parse("x")
}
`,
	})
	var stdout, stderr bytes.Buffer
	code := run([]string{"-C", root, "-sarif", "./..."}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit = %d, want 1; stderr: %s", code, stderr.String())
	}
	var log struct {
		Version string `json:"version"`
		Schema  string `json:"$schema"`
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
				RuleID  string `json:"ruleId"`
				Level   string `json:"level"`
				Message struct {
					Text string `json:"text"`
				} `json:"message"`
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
	if err := json.Unmarshal(stdout.Bytes(), &log); err != nil {
		t.Fatalf("-sarif output is not JSON: %v\n%s", err, stdout.String())
	}
	if log.Version != "2.1.0" || !strings.Contains(log.Schema, "sarif") || len(log.Runs) != 1 {
		t.Fatalf("bad SARIF envelope: version=%q schema=%q runs=%d", log.Version, log.Schema, len(log.Runs))
	}
	run0 := log.Runs[0]
	if run0.Tool.Driver.Name != "maxson-vet" {
		t.Fatalf("tool name = %q", run0.Tool.Driver.Name)
	}
	ruleIDs := make(map[string]bool)
	for _, r := range run0.Tool.Driver.Rules {
		ruleIDs[r.ID] = true
	}
	for _, want := range []string{"errdiscard", "ctxflow", "lockheld", "lockorder", "lintdirective"} {
		if !ruleIDs[want] {
			t.Fatalf("rules missing %q: %v", want, ruleIDs)
		}
	}
	if len(run0.Results) != 1 {
		t.Fatalf("want 1 result, got %d", len(run0.Results))
	}
	res := run0.Results[0]
	loc := res.Locations[0].PhysicalLocation
	if res.RuleID != "errdiscard" || res.Level != "warning" ||
		loc.ArtifactLocation.URI != "bad/bad.go" || loc.Region.StartLine != 6 {
		t.Fatalf("unexpected result shape: %+v", res)
	}

	stderr.Reset()
	if code := run([]string{"-json", "-sarif", "./..."}, &stdout, &stderr); code != 2 ||
		!strings.Contains(stderr.String(), "mutually exclusive") {
		t.Fatalf("-json -sarif: exit=%d stderr=%q, want 2 + mutual-exclusion error", code, stderr.String())
	}
}

// TestDriverStats checks the per-analyzer finding/ignore table on stderr.
func TestDriverStats(t *testing.T) {
	root := writeModule(t, map[string]string{
		"internal/sjson/sjson.go": errSource,
		"bad/bad.go": `package bad

import "tmpmod/internal/sjson"

func Leak() {
	sjson.Parse("x")
}

func Excused() {
	//lint:ignore errdiscard probing parser error behavior on purpose
	sjson.Parse("y")
}
`,
	})
	var stdout, stderr bytes.Buffer
	code := run([]string{"-C", root, "-stats", "./..."}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit = %d, want 1; stderr: %s", code, stderr.String())
	}
	var errRow string
	for _, line := range strings.Split(stderr.String(), "\n") {
		if strings.HasPrefix(line, "errdiscard") {
			errRow = line
		}
	}
	if errRow == "" {
		t.Fatalf("-stats table missing errdiscard row:\n%s", stderr.String())
	}
	fields := strings.Fields(errRow)
	if len(fields) != 3 || fields[1] != "1" || fields[2] != "1" {
		t.Fatalf("errdiscard stats row = %q, want 1 finding and 1 ignored", errRow)
	}
	if !strings.Contains(stderr.String(), "analyzer") || !strings.Contains(stderr.String(), "ignored") {
		t.Fatalf("-stats header missing:\n%s", stderr.String())
	}
}
