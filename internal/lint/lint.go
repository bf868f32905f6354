// Package lint is a pure-stdlib static-analysis framework for enforcing
// the invariants of this repository that nothing but an analyzer can check:
// context threading, lock ordering, lock-held call hygiene, and error
// handling on parse paths.
//
// The framework deliberately avoids golang.org/x/tools: packages are
// loaded with go/parser, type-checked with go/types (stdlib dependencies
// resolved by the source importer), and each Analyzer receives a fully
// typed Pass per package. Diagnostics carry positions and serialize to
// JSON for machine consumption; intentional exceptions are annotated in
// source with
//
//	//lint:ignore <analyzer> <reason>
//
// on the flagged line or the line above it. The reason string is
// mandatory — a bare directive is itself a diagnostic — and directives
// that suppress nothing are reported as unused, so the ignore inventory
// stays honest as the code moves.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer is one named invariant check. Run is invoked once per analyzed
// package with a fully type-checked Pass.
type Analyzer struct {
	Name string
	// Doc is the one-line summary shown by maxson-vet -list.
	Doc string
	// NeedsGraph marks interprocedural analyzers; the module-wide call
	// graph is built once per Run only when a selected analyzer sets it.
	NeedsGraph bool
	Run        func(*Pass)
}

// Pass is the per-package view an analyzer runs over.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	// Graph is the module-wide call graph, shared across packages and
	// analyzers within one Run. Nil unless the analyzer sets NeedsGraph.
	Graph *CallGraph

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding, positioned and machine-readable.
type Diagnostic struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

// String renders the go-vet-style one-line form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", d.File, d.Line, d.Col, d.Message, d.Analyzer)
}

// AnalyzerStat is one analyzer's finding/ignore tally for a Run, consumed
// by maxson-vet -stats.
type AnalyzerStat struct {
	Analyzer string `json:"analyzer"`
	Findings int    `json:"findings"`
	Ignored  int    `json:"ignored"`
}

// Result is the outcome of running a set of analyzers over packages.
type Result struct {
	Diagnostics []Diagnostic   `json:"diagnostics"`
	Count       int            `json:"count"`
	Stats       []AnalyzerStat `json:"stats"`
}

// Run executes analyzers over every loaded package marked for analysis,
// applies ignore directives, and returns the surviving diagnostics sorted
// by position. The call graph is built lazily, once, when any selected
// analyzer declares NeedsGraph.
func Run(pkgs []*Package, analyzers []*Analyzer) *Result {
	var graph *CallGraph
	for _, a := range analyzers {
		if a.NeedsGraph {
			graph = BuildCallGraph(pkgs)
			break
		}
	}
	var diags []Diagnostic
	for _, pkg := range pkgs {
		if !pkg.Analyze {
			continue
		}
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				Graph:    graph,
				diags:    &diags,
			}
			a.Run(pass)
		}
	}
	diags, ignored := applyIgnores(pkgs, analyzers, diags)
	if diags == nil {
		diags = []Diagnostic{}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
	findings := make(map[string]int)
	for _, d := range diags {
		findings[d.Analyzer]++
	}
	stats := make([]AnalyzerStat, 0, len(analyzers)+1)
	for _, a := range analyzers {
		stats = append(stats, AnalyzerStat{
			Analyzer: a.Name,
			Findings: findings[a.Name],
			Ignored:  ignored[a.Name],
		})
	}
	if n := findings[DirectiveAnalyzer]; n > 0 {
		stats = append(stats, AnalyzerStat{Analyzer: DirectiveAnalyzer, Findings: n})
	}
	return &Result{Diagnostics: diags, Count: len(diags), Stats: stats}
}

// All returns the full analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		CtxFlow,
		ErrDiscard,
		LockHeld,
		LockOrder,
	}
}

// ByName resolves a comma-separated analyzer selection against All.
func ByName(names []string) ([]*Analyzer, error) {
	all := All()
	var out []*Analyzer
	for _, name := range names {
		found := false
		for _, a := range all {
			if a.Name == name {
				out = append(out, a)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("lint: unknown analyzer %q", name)
		}
	}
	return out, nil
}
