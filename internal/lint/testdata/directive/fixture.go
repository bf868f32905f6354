// Package directive is a maxson-vet fixture for the //lint:ignore
// machinery itself: suppression, mandatory reasons, unknown analyzer
// names, and unused-directive reporting. Expectations live in the lint
// package's directive test, not in want comments.
package directive

import (
	"repro/internal/jsonpath"
	"repro/internal/sjson"
)

func suppressedOnSameLine(doc []byte) {
	sjson.Parse(doc) //lint:ignore errdiscard fixture exercising same-line suppression
}

func suppressedFromLineAbove(doc []byte) {
	//lint:ignore errdiscard fixture exercising line-above suppression
	sjson.Parse(doc)
}

func missingReason(doc string) {
	//lint:ignore errdiscard
	sjson.ParseString(doc)
}

func unknownAnalyzer(expr string) {
	//lint:ignore nosuchanalyzer the analyzer name is wrong
	_, _ = jsonpath.Compile(expr)
}

//lint:ignore errdiscard nothing on the next line triggers it
func unusedDirective(doc []byte) error {
	_, err := sjson.Parse(doc)
	return err
}
