// Command maxson-vet runs the repository's project-invariant analyzers
// (internal/lint) over Go packages: context threading (ctxflow), error
// handling on parse surfaces (errdiscard), lock-held call hygiene
// (lockheld), and lock ordering over the module call graph (lockorder).
//
// Usage:
//
//	maxson-vet [-json|-sarif] [-stats] [-run ctxflow,lockorder] [-C dir] [patterns...]
//
// Patterns default to ./... relative to the module root. -sarif emits a
// SARIF 2.1.0 log for CI code-scanning upload; -stats prints per-analyzer
// finding/ignore counts to stderr. Exit status: 0 when clean, 1 when any
// diagnostic is reported, 2 when loading or type-checking fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("maxson-vet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit diagnostics as JSON")
	sarifOut := fs.Bool("sarif", false, "emit diagnostics as a SARIF 2.1.0 log")
	stats := fs.Bool("stats", false, "print per-analyzer finding/ignore counts to stderr")
	list := fs.Bool("list", false, "list analyzers and exit")
	sel := fs.String("run", "", "comma-separated analyzer names (default: all)")
	dir := fs.String("C", ".", "module root directory")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *jsonOut && *sarifOut {
		fmt.Fprintln(stderr, "maxson-vet: -json and -sarif are mutually exclusive")
		return 2
	}

	if *list {
		for _, a := range lint.All() {
			fmt.Fprintf(stdout, "%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	analyzers := lint.All()
	if *sel != "" {
		var err error
		analyzers, err = lint.ByName(strings.Split(*sel, ","))
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	pkgs, err := lint.Load(*dir, patterns, nil)
	if err != nil {
		fmt.Fprintln(stderr, "maxson-vet:", err)
		return 2
	}
	result := lint.Run(pkgs, analyzers)

	switch {
	case *jsonOut:
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(result); err != nil {
			fmt.Fprintln(stderr, "maxson-vet:", err)
			return 2
		}
	case *sarifOut:
		root, err := filepath.Abs(*dir)
		if err != nil {
			root = *dir
		}
		if err := writeSARIF(stdout, root, result); err != nil {
			fmt.Fprintln(stderr, "maxson-vet:", err)
			return 2
		}
	default:
		for _, d := range result.Diagnostics {
			fmt.Fprintln(stdout, d.String())
		}
	}
	if *stats {
		fmt.Fprintf(stderr, "%-14s %8s %8s\n", "analyzer", "findings", "ignored")
		for _, s := range result.Stats {
			fmt.Fprintf(stderr, "%-14s %8d %8d\n", s.Analyzer, s.Findings, s.Ignored)
		}
	}
	if result.Count > 0 {
		return 1
	}
	return 0
}
