package lint

import "strings"

// DirectiveAnalyzer is the pseudo-analyzer name under which malformed or
// unused //lint:ignore directives are reported. Directive diagnostics can
// not themselves be ignored.
const DirectiveAnalyzer = "lintdirective"

// directive is one parsed //lint:ignore comment.
type directive struct {
	file     string
	line     int
	analyzer string
	used     bool
}

// collectDirectives scans the comments of every analyzed package. Malformed
// directives are reported immediately through report.
func collectDirectives(pkgs []*Package, known map[string]bool, report func(Diagnostic)) []*directive {
	var out []*directive
	for _, pkg := range pkgs {
		if !pkg.Analyze {
			continue
		}
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text, ok := strings.CutPrefix(c.Text, "//lint:ignore")
					if !ok {
						continue
					}
					position := pkg.Fset.Position(c.Pos())
					bad := func(msg string) {
						report(Diagnostic{
							Analyzer: DirectiveAnalyzer,
							File:     position.Filename,
							Line:     position.Line,
							Col:      position.Column,
							Message:  msg,
						})
					}
					fields := strings.Fields(text)
					if len(fields) == 0 {
						bad("malformed directive: want //lint:ignore <analyzer> <reason>")
						continue
					}
					if !known[fields[0]] {
						bad("//lint:ignore names unknown analyzer " + strconv(fields[0]))
						continue
					}
					if len(fields) < 2 {
						bad("//lint:ignore " + fields[0] + " needs a reason")
						continue
					}
					out = append(out, &directive{
						file:     position.Filename,
						line:     position.Line,
						analyzer: fields[0],
					})
				}
			}
		}
	}
	return out
}

func strconv(s string) string { return "\"" + s + "\"" }

// applyIgnores filters diags through the packages' ignore directives. A
// directive suppresses diagnostics of its analyzer on the directive's own
// line or the line directly below it (comment above the flagged
// statement). Unused directives are themselves diagnostics, keeping the
// exception inventory in sync with what the analyzers actually flag. The
// second return value counts suppressed diagnostics per analyzer (the
// -stats "ignored" column).
func applyIgnores(pkgs []*Package, analyzers []*Analyzer, diags []Diagnostic) ([]Diagnostic, map[string]int) {
	// Directive names validate against the full suite; unused directives
	// only report for analyzers that actually ran, so a partial -run
	// selection does not condemn the others' directives.
	known := make(map[string]bool)
	for _, a := range All() {
		known[a.Name] = true
	}
	ran := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		ran[a.Name] = true
	}
	var extra []Diagnostic
	dirs := collectDirectives(pkgs, known, func(d Diagnostic) { extra = append(extra, d) })

	ignored := make(map[string]int)
	var kept []Diagnostic
	for _, d := range diags {
		suppressed := false
		for _, dir := range dirs {
			if dir.analyzer == d.Analyzer && dir.file == d.File &&
				(dir.line == d.Line || dir.line+1 == d.Line) {
				dir.used = true
				suppressed = true
			}
		}
		if suppressed {
			ignored[d.Analyzer]++
		} else {
			kept = append(kept, d)
		}
	}
	for _, dir := range dirs {
		if !dir.used && ran[dir.analyzer] {
			extra = append(extra, Diagnostic{
				Analyzer: DirectiveAnalyzer,
				File:     dir.file,
				Line:     dir.line,
				Message:  "unused //lint:ignore " + dir.analyzer + " directive",
			})
		}
	}
	return append(kept, extra...), ignored
}
