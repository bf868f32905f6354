// Package jsonpath compiles and evaluates the JSONPath dialect accepted by
// Hive's and SparkSQL's get_json_object UDF: a '$' root followed by dot
// member accesses and bracketed array indexes, e.g.
//
//	$.turnover
//	$.store.fruit[0].weight
//	$['item name'].ids[2]
//
// A compiled Path is immutable and safe for concurrent use. Production code
// evaluates paths by streaming (PathSet, Extractor); Eval over a parsed sjson
// tree is the reference the tests compare against, and the step structure is
// exposed so the experiments' structural-index baseline can evaluate the same
// paths.
package jsonpath

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/sjson"
)

// StepKind discriminates path steps.
type StepKind uint8

// Step kinds.
const (
	StepMember   StepKind = iota // .name or ['name']
	StepIndex                    // [i]
	StepWildcard                 // [*]: every element of an array
)

// Step is one navigation step of a compiled path.
type Step struct {
	Kind  StepKind
	Name  string // member name for StepMember
	Index int    // element index for StepIndex
}

// Path is a compiled JSONPath.
type Path struct {
	text  string
	canon string // Canonical(), built once by Compile
	steps []Step
}

// ParseError reports a malformed JSONPath.
type ParseError struct {
	Path   string
	Offset int
	Msg    string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("jsonpath: invalid path %q at offset %d: %s", e.Path, e.Offset, e.Msg)
}

// Compile parses a JSONPath expression.
func Compile(expr string) (*Path, error) {
	if expr == "" {
		return nil, &ParseError{Path: expr, Offset: 0, Msg: "empty path"}
	}
	if expr[0] != '$' {
		return nil, &ParseError{Path: expr, Offset: 0, Msg: "path must start with '$'"}
	}
	p := &Path{text: expr}
	i := 1
	for i < len(expr) {
		switch expr[i] {
		case '.':
			i++
			start := i
			for i < len(expr) && expr[i] != '.' && expr[i] != '[' {
				i++
			}
			if i == start {
				return nil, &ParseError{Path: expr, Offset: start, Msg: "empty member name"}
			}
			p.steps = append(p.steps, Step{Kind: StepMember, Name: expr[start:i]})
		case '[':
			i++
			if i >= len(expr) {
				return nil, &ParseError{Path: expr, Offset: i, Msg: "unterminated bracket"}
			}
			if expr[i] == '*' {
				i++
				if i >= len(expr) || expr[i] != ']' {
					return nil, &ParseError{Path: expr, Offset: i, Msg: "expected ']' after '*'"}
				}
				i++
				p.steps = append(p.steps, Step{Kind: StepWildcard})
			} else if expr[i] == '\'' || expr[i] == '"' {
				quote := expr[i]
				i++
				start := i
				for i < len(expr) && expr[i] != quote {
					i++
				}
				if i >= len(expr) {
					return nil, &ParseError{Path: expr, Offset: start, Msg: "unterminated quoted member"}
				}
				name := expr[start:i]
				i++ // closing quote
				if i >= len(expr) || expr[i] != ']' {
					return nil, &ParseError{Path: expr, Offset: i, Msg: "expected ']'"}
				}
				i++
				if name == "" {
					return nil, &ParseError{Path: expr, Offset: start, Msg: "empty member name"}
				}
				p.steps = append(p.steps, Step{Kind: StepMember, Name: name})
			} else {
				start := i
				for i < len(expr) && expr[i] != ']' {
					i++
				}
				if i >= len(expr) {
					return nil, &ParseError{Path: expr, Offset: start, Msg: "unterminated bracket"}
				}
				idxText := expr[start:i]
				i++
				idx, err := strconv.Atoi(strings.TrimSpace(idxText))
				if err != nil || idx < 0 {
					return nil, &ParseError{Path: expr, Offset: start, Msg: "invalid array index"}
				}
				p.steps = append(p.steps, Step{Kind: StepIndex, Index: idx})
			}
		default:
			return nil, &ParseError{Path: expr, Offset: i, Msg: "expected '.' or '['"}
		}
	}
	p.canon = p.canonical()
	return p, nil
}

// MustCompile is Compile that panics on error, for statically known paths.
func MustCompile(expr string) *Path {
	p, err := Compile(expr)
	if err != nil {
		panic(err)
	}
	return p
}

// String returns the original path text.
func (p *Path) String() string { return p.text }

// Steps returns the compiled steps. Callers must not modify the slice.
func (p *Path) Steps() []Step { return p.steps }

// Depth returns the number of navigation steps.
func (p *Path) Depth() int { return len(p.steps) }

// FirstMember returns the name of the first member step and true, or "" and
// false if the path starts with an index (or is root). Mison's speculative
// projector keys its field index on this.
func (p *Path) FirstMember() (string, bool) {
	if len(p.steps) == 0 || p.steps[0].Kind != StepMember {
		return "", false
	}
	return p.steps[0].Name, true
}

// Eval navigates the compiled path over a parsed JSON tree. A missing member
// or out-of-range index yields nil (JSON null), matching get_json_object's
// NULL-on-miss semantics rather than erroring. Wildcard steps ([*]) fan out
// over array elements; as in Hive, multiple matches collapse into a JSON
// array and a single match stays scalar.
func (p *Path) Eval(root *sjson.Value) *sjson.Value {
	return evalSteps(root, p.steps)
}

func evalSteps(v *sjson.Value, steps []Step) *sjson.Value {
	for si, s := range steps {
		if v == nil {
			return nil
		}
		switch s.Kind {
		case StepMember:
			v = v.Get(s.Name)
		case StepIndex:
			v = v.Index(s.Index)
		case StepWildcard:
			if v.Kind() != sjson.KindArray {
				return nil
			}
			var matches []*sjson.Value
			for _, elem := range v.Elements() {
				if m := evalSteps(elem, steps[si+1:]); !m.IsNull() {
					matches = append(matches, m)
				}
			}
			switch len(matches) {
			case 0:
				return nil
			case 1:
				return matches[0]
			default:
				return sjson.Array(matches...)
			}
		}
	}
	return v
}

// HasWildcard reports whether the path contains a [*] step. Structural-
// index projectors handle only point lookups and fall back to tree
// evaluation for wildcard paths.
func (p *Path) HasWildcard() bool {
	for _, s := range p.steps {
		if s.Kind == StepWildcard {
			return true
		}
	}
	return false
}

// EvalString evaluates the path against a raw document, returning the scalar
// rendering used by get_json_object ("" for null/missing). The boolean
// reports whether the value was present. A JSON syntax error within the
// path's own scan also reports absent, matching the UDF's permissive
// NULL-on-bad-input behaviour; damage the scan never reaches does not.
//
// It is a one-off: a throwaway Extractor for this path alone. Callers
// evaluating many documents or many paths hold their own Extractor.
func (p *Path) EvalString(doc string) (string, bool) {
	x := NewExtractor(MustPathSet(p))
	x.Extract(doc)
	return x.Scalar(0)
}

// Covers reports whether p is a prefix of (or equal to) other: every
// document value reachable by other lies inside the value produced by p.
// The cacher uses this to avoid caching both $.a and $.a.b.
func (p *Path) Covers(other *Path) bool {
	if len(p.steps) > len(other.steps) {
		return false
	}
	for i, s := range p.steps {
		o := other.steps[i]
		if s.Kind != o.Kind || s.Name != o.Name || s.Index != o.Index {
			return false
		}
	}
	return true
}

// Equal reports whether p and other navigate the same steps, i.e. have the
// same Canonical form, without building it.
func (p *Path) Equal(other *Path) bool {
	return len(p.steps) == len(other.steps) && p.Covers(other)
}

// Canonical returns a normalized text form ($.a.b[3]) so that differently
// quoted spellings of the same path share one cache entry.
func (p *Path) Canonical() string { return p.canon }

func (p *Path) canonical() string {
	var sb strings.Builder
	sb.WriteByte('$')
	for _, s := range p.steps {
		switch s.Kind {
		case StepMember:
			if isPlainName(s.Name) {
				sb.WriteByte('.')
				sb.WriteString(s.Name)
			} else {
				sb.WriteString("['")
				sb.WriteString(s.Name)
				sb.WriteString("']")
			}
		case StepIndex:
			sb.WriteByte('[')
			sb.WriteString(strconv.Itoa(s.Index))
			sb.WriteByte(']')
		case StepWildcard:
			sb.WriteString("[*]")
		}
	}
	return sb.String()
}

func isPlainName(name string) bool {
	if name == "" {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}
