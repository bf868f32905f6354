package lint_test

import (
	"bufio"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"

	"repro/internal/lint"
)

// fixtureNames lists the testdata packages: one per analyzer, ctxflow's
// package main, and the directive-machinery fixture.
var fixtureNames = []string{
	"ctxflow", "ctxflow/main", "directive", "errdiscard", "lockheld", "lockorder",
}

// The whole-module load with the source importer costs a few seconds, so
// every test shares one load.
var (
	loadOnce sync.Once
	loadPkgs []*lint.Package
	loadErr  error
)

func loadFixtures(t *testing.T) []*lint.Package {
	t.Helper()
	loadOnce.Do(func() {
		dirs := make([]string, len(fixtureNames))
		for i, name := range fixtureNames {
			dirs[i] = filepath.Join("testdata", name)
		}
		loadPkgs, loadErr = lint.Load("../..", nil, dirs)
	})
	if loadErr != nil {
		t.Fatalf("loading fixtures: %v", loadErr)
	}
	return loadPkgs
}

// analyzeOnly marks exactly one fixture package for analysis and returns it.
func analyzeOnly(t *testing.T, pkgs []*lint.Package, name string) *lint.Package {
	t.Helper()
	var target *lint.Package
	for _, p := range pkgs {
		p.Analyze = strings.HasSuffix(p.Path, "testdata/"+name)
		if p.Analyze {
			target = p
		}
	}
	if target == nil {
		t.Fatalf("fixture package testdata/%s not loaded", name)
	}
	return target
}

// want is one expectation parsed from a fixture's // want "substr" comment.
type want struct {
	line    int
	substr  string
	matched bool
}

var wantRE = regexp.MustCompile(`// want "([^"]+)"`)

func parseWants(t *testing.T, file string) []*want {
	t.Helper()
	f, err := os.Open(file)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var wants []*want
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		if m := wantRE.FindStringSubmatch(sc.Text()); m != nil {
			wants = append(wants, &want{line: line, substr: m[1]})
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return wants
}

// TestAnalyzerFixtures runs each analyzer over its fixture package and
// requires the diagnostics to match the fixture's want comments exactly:
// every want hit, nothing extra reported.
func TestAnalyzerFixtures(t *testing.T) {
	pkgs := loadFixtures(t)
	for _, a := range lint.All() {
		t.Run(a.Name, func(t *testing.T) {
			target := analyzeOnly(t, pkgs, a.Name)
			res := lint.Run(pkgs, []*lint.Analyzer{a})

			fixture := filepath.Join(target.Dir, "fixture.go")
			wants := parseWants(t, fixture)
			if len(wants) == 0 {
				t.Fatalf("fixture %s has no want comments", fixture)
			}
			for _, d := range res.Diagnostics {
				if d.Analyzer != a.Name {
					t.Errorf("unexpected %s diagnostic in %s fixture: %s", d.Analyzer, a.Name, d)
					continue
				}
				found := false
				for _, w := range wants {
					if !w.matched && w.line == d.Line && strings.Contains(d.Message, w.substr) {
						w.matched = true
						found = true
						break
					}
				}
				if !found {
					t.Errorf("unexpected diagnostic: %s", d)
				}
			}
			for _, w := range wants {
				if !w.matched {
					t.Errorf("missing diagnostic at %s:%d containing %q", fixture, w.line, w.substr)
				}
			}
		})
	}
}

// TestCtxFlowExemptsPackageMain is the other side of ctxflow's one rule: the
// roots a command's main package makes are not findings.
func TestCtxFlowExemptsPackageMain(t *testing.T) {
	pkgs := loadFixtures(t)
	analyzeOnly(t, pkgs, "ctxflow/main")
	if res := lint.Run(pkgs, []*lint.Analyzer{lint.CtxFlow}); res.Count != 0 {
		t.Fatalf("ctxflow reported context roots in package main: %v", res.Diagnostics)
	}
}

// TestIgnoreDirectives exercises the //lint:ignore machinery on the
// directive fixture: valid directives suppress, malformed and unknown ones
// are reported without suppressing, and unused ones are flagged.
func TestIgnoreDirectives(t *testing.T) {
	pkgs := loadFixtures(t)
	analyzeOnly(t, pkgs, "directive")
	analyzers, err := lint.ByName([]string{"errdiscard"})
	if err != nil {
		t.Fatal(err)
	}
	res := lint.Run(pkgs, analyzers)

	type exp struct {
		analyzer, substr string
	}
	expected := []exp{
		{"lintdirective", "needs a reason"},
		{"errdiscard", "sjson.ParseString is discarded by a bare call"},
		{"lintdirective", `unknown analyzer "nosuchanalyzer"`},
		{"errdiscard", "jsonpath.Compile is discarded with _"},
		{"lintdirective", "unused //lint:ignore errdiscard directive"},
	}
	if res.Count != len(expected) {
		for _, d := range res.Diagnostics {
			t.Logf("got: %s", d)
		}
		t.Fatalf("directive fixture produced %d diagnostics, want %d", res.Count, len(expected))
	}
	for _, e := range expected {
		found := false
		for _, d := range res.Diagnostics {
			if d.Analyzer == e.analyzer && strings.Contains(d.Message, e.substr) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("missing %s diagnostic containing %q", e.analyzer, e.substr)
		}
	}
	// The two suppressed findings (both sjson.Parse) must not appear.
	for _, d := range res.Diagnostics {
		if strings.Contains(d.Message, "sjson.Parse ") {
			t.Errorf("suppressed diagnostic leaked through: %s", d)
		}
	}
}

// TestByNameUnknown covers the analyzer-selection error path.
func TestByNameUnknown(t *testing.T) {
	if _, err := lint.ByName([]string{"nope"}); err == nil {
		t.Fatal("ByName(nope) succeeded, want error")
	}
}

// TestDiagnosticString pins the rendered one-line form tools grep for.
func TestDiagnosticString(t *testing.T) {
	d := lint.Diagnostic{Analyzer: "lockheld", File: "x.go", Line: 3, Col: 7, Message: "leak"}
	want := "x.go:3:7: leak (lockheld)"
	if got := d.String(); got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}
