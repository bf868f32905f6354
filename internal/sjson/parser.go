package sjson

import (
	"fmt"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"
)

// SyntaxError describes a JSON parse failure with its byte offset.
type SyntaxError struct {
	Offset int
	Msg    string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("sjson: syntax error at offset %d: %s", e.Offset, e.Msg)
}

// ParseStats accumulates parsing work so the engine's cost model can meter
// the parse phase separately from read and compute. All counters are totals
// since the struct was zeroed.
type ParseStats struct {
	BytesScanned int64 // input bytes consumed by the tokenizer
	BytesSkipped int64 // input bytes never scanned (streaming early exit)
	ValuesBuilt  int64 // JSON values materialized (tree nodes)
	Documents    int64 // top-level documents parsed
}

// Add merges other into s.
func (s *ParseStats) Add(other ParseStats) {
	s.BytesScanned += other.BytesScanned
	s.BytesSkipped += other.BytesSkipped
	s.ValuesBuilt += other.ValuesBuilt
	s.Documents += other.Documents
}

// Parser is a reusable recursive-descent JSON parser. A zero Parser is ready
// to use; reusing one across documents amortizes the Value-node arena the
// trees are built from (see ResetValues) and keeps the stats in one place.
// Parser is not safe for concurrent use.
//
// The parser scans the document string where it lies and never copies it:
// object keys, escape-free string values and integer literals in the values
// it builds are substrings of the document, so they stay valid exactly as
// long as the document's bytes do — which the caller that passed the
// document in already owns. Only what must be transformed is a fresh string:
// a string with escapes, decoded once into the parser's scratch buffer.
type Parser struct {
	data  string
	pos   int
	depth int
	stats ParseStats

	// slabs is the Value arena: nodes are handed out from slabs[cur][used:],
	// each new slab doubling in size. Growth appends a slab rather than
	// reallocating, so *Value pointers already handed out stay valid.
	slabs [][]Value
	cur   int
	used  int
	// firstSlab is the size of slabs[0], fixed by whoever grows the arena
	// first: minSlabValues for a tree parse, the trie's terminal count for
	// Extract.
	firstSlab int

	// scratch is where parseStringLiteral decodes a string with escapes, so
	// such a string costs one allocation (the result), not a growing buffer.
	scratch []byte

	// skipStack is the bracket stack skipComposite reuses across skips so
	// streaming extraction never allocates for skipped subtrees.
	skipStack []byte

	// wildFrames pools the per-array match accumulators wildcard extraction
	// opens ([*] trie edges), reused across documents so steady-state
	// wildcard scans allocate nothing for the bookkeeping.
	wildFrames []*wildFrame
}

// maxDepth bounds nesting so hostile inputs cannot overflow the stack.
const maxDepth = 512

// Arena slab sizing: the first slab is small so one-off parses stay cheap
// (Extract makes it smaller still: one node per requested path, which is all
// a set of scalar paths ever uses); slabs double up to a cap that keeps reuse
// effective for large documents.
const (
	minSlabValues = 16
	maxSlabValues = 4096
)

// newValue hands out one zeroed node from the arena, growing it as needed.
func (p *Parser) newValue() *Value {
	if p.cur < len(p.slabs) && p.used >= len(p.slabs[p.cur]) {
		p.cur++
		p.used = 0
	}
	if p.cur >= len(p.slabs) {
		if p.firstSlab == 0 {
			p.firstSlab = minSlabValues
		}
		size := p.firstSlab << len(p.slabs)
		if size > maxSlabValues || size <= 0 { // <= 0: the shift overflowed
			size = maxSlabValues
		}
		p.slabs = append(p.slabs, make([]Value, size))
	}
	v := &p.slabs[p.cur][p.used]
	p.used++
	// Zero the reused slot but keep its member/element slice capacity: trees
	// freed by ResetValues donate their backing arrays to the next parse.
	*v = Value{arrVal: v.arrVal[:0], objVal: v.objVal[:0]}
	return v
}

// ResetValues recycles the parser's node arena. Every *Value returned by
// previous Parse calls on this parser becomes invalid; callers reset only
// when those trees are provably dead (e.g. a per-document memo is about to
// replace the sole retained tree).
func (p *Parser) ResetValues() {
	p.cur, p.used = 0, 0
}

// Parse parses a single JSON document from data. Trailing whitespace is
// allowed; any other trailing content is an error.
func Parse(data []byte) (*Value, error) {
	var p Parser
	return p.Parse(data)
}

// ParseString is Parse for string input; the tree's keys and escape-free
// strings are substrings of s.
func ParseString(s string) (*Value, error) {
	var p Parser
	return p.parse(s)
}

// Parse parses one document and accumulates stats on the receiver. This is
// the []byte door: data is copied into a string once, here, and the tree
// views that copy.
func (p *Parser) Parse(data []byte) (*Value, error) { return p.parse(string(data)) }

func (p *Parser) parse(data string) (*Value, error) {
	p.data = data
	p.pos = 0
	p.depth = 0
	p.skipSpace()
	v, err := p.parseValue()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos != len(p.data) {
		return nil, p.errf("unexpected trailing data")
	}
	p.stats.BytesScanned += int64(len(data))
	p.stats.Documents++
	return v, nil
}

// Stats returns the accumulated parse statistics.
func (p *Parser) Stats() ParseStats { return p.stats }

// ResetStats zeroes the accumulated statistics.
func (p *Parser) ResetStats() { p.stats = ParseStats{} }

func (p *Parser) errf(format string, args ...any) error {
	return &SyntaxError{Offset: p.pos, Msg: fmt.Sprintf(format, args...)}
}

func (p *Parser) skipSpace() {
	for p.pos < len(p.data) {
		switch p.data[p.pos] {
		case ' ', '\t', '\n', '\r':
			p.pos++
		default:
			return
		}
	}
}

func (p *Parser) parseValue() (*Value, error) {
	if p.pos >= len(p.data) {
		return nil, p.errf("unexpected end of input")
	}
	p.stats.ValuesBuilt++
	switch c := p.data[p.pos]; {
	case c == '{':
		return p.parseObject()
	case c == '[':
		return p.parseArray()
	case c == '"':
		s, err := p.parseStringLiteral()
		if err != nil {
			return nil, err
		}
		v := p.newValue()
		v.kind, v.strVal = KindString, s
		return v, nil
	case c == 't':
		if err := p.expect("true"); err != nil {
			return nil, err
		}
		v := p.newValue()
		v.kind, v.boolVal = KindBool, true
		return v, nil
	case c == 'f':
		if err := p.expect("false"); err != nil {
			return nil, err
		}
		v := p.newValue()
		v.kind = KindBool
		return v, nil
	case c == 'n':
		if err := p.expect("null"); err != nil {
			return nil, err
		}
		return p.newValue(), nil
	case c == '-' || (c >= '0' && c <= '9'):
		return p.parseNumber()
	default:
		return nil, p.errf("unexpected character %q", c)
	}
}

func (p *Parser) expect(lit string) error {
	if p.pos+len(lit) > len(p.data) || p.data[p.pos:p.pos+len(lit)] != lit {
		return p.errf("invalid literal, expected %q", lit)
	}
	p.pos += len(lit)
	return nil
}

func (p *Parser) parseObject() (*Value, error) {
	p.depth++
	if p.depth > maxDepth {
		return nil, p.errf("nesting exceeds %d levels", maxDepth)
	}
	defer func() { p.depth-- }()
	p.pos++ // consume '{'
	obj := p.newValue()
	obj.kind = KindObject
	p.skipSpace()
	if p.pos < len(p.data) && p.data[p.pos] == '}' {
		p.pos++
		return obj, nil
	}
	for {
		p.skipSpace()
		if p.pos >= len(p.data) || p.data[p.pos] != '"' {
			return nil, p.errf("expected object key string")
		}
		key, err := p.parseStringLiteral()
		if err != nil {
			return nil, err
		}
		p.skipSpace()
		if p.pos >= len(p.data) || p.data[p.pos] != ':' {
			return nil, p.errf("expected ':' after object key")
		}
		p.pos++
		p.skipSpace()
		val, err := p.parseValue()
		if err != nil {
			return nil, err
		}
		obj.objVal = append(obj.objVal, Member{Key: key, Value: val})
		p.skipSpace()
		if p.pos >= len(p.data) {
			return nil, p.errf("unterminated object")
		}
		switch p.data[p.pos] {
		case ',':
			p.pos++
		case '}':
			p.pos++
			if len(obj.objVal) > smallObjectThreshold {
				obj.buildIndex()
			}
			return obj, nil
		default:
			return nil, p.errf("expected ',' or '}' in object")
		}
	}
}

func (p *Parser) parseArray() (*Value, error) {
	p.depth++
	if p.depth > maxDepth {
		return nil, p.errf("nesting exceeds %d levels", maxDepth)
	}
	defer func() { p.depth-- }()
	p.pos++ // consume '['
	arr := p.newValue()
	arr.kind = KindArray
	p.skipSpace()
	if p.pos < len(p.data) && p.data[p.pos] == ']' {
		p.pos++
		return arr, nil
	}
	for {
		p.skipSpace()
		val, err := p.parseValue()
		if err != nil {
			return nil, err
		}
		arr.arrVal = append(arr.arrVal, val)
		p.skipSpace()
		if p.pos >= len(p.data) {
			return nil, p.errf("unterminated array")
		}
		switch p.data[p.pos] {
		case ',':
			p.pos++
		case ']':
			p.pos++
			return arr, nil
		default:
			return nil, p.errf("expected ',' or ']' in array")
		}
	}
}

func (p *Parser) parseStringLiteral() (string, error) {
	p.pos++ // consume opening quote
	start := p.pos
	// Fast path: scan for the closing quote with no escapes.
	for p.pos < len(p.data) {
		c := p.data[p.pos]
		if c == '"' {
			s := p.data[start:p.pos] // a view of the document
			p.pos++
			return s, nil
		}
		if c == '\\' || c < 0x20 {
			break
		}
		p.pos++
	}
	// Slow path: decode the escapes into the parser's scratch buffer; the
	// result is the one allocation an escaped string costs.
	buf := append(p.scratch[:0], p.data[start:p.pos]...)
	for p.pos < len(p.data) {
		c := p.data[p.pos]
		switch {
		case c == '"':
			p.pos++
			p.scratch = buf
			return string(buf), nil
		case c < 0x20:
			return "", p.errf("unescaped control character in string")
		case c == '\\':
			p.pos++
			if p.pos >= len(p.data) {
				return "", p.errf("unterminated escape sequence")
			}
			esc := p.data[p.pos]
			p.pos++
			switch esc {
			case '"':
				buf = append(buf, '"')
			case '\\':
				buf = append(buf, '\\')
			case '/':
				buf = append(buf, '/')
			case 'b':
				buf = append(buf, '\b')
			case 'f':
				buf = append(buf, '\f')
			case 'n':
				buf = append(buf, '\n')
			case 'r':
				buf = append(buf, '\r')
			case 't':
				buf = append(buf, '\t')
			case 'u':
				r, err := p.parseHexRune()
				if err != nil {
					return "", err
				}
				if utf16.IsSurrogate(r) {
					if p.pos+1 < len(p.data) && p.data[p.pos] == '\\' && p.data[p.pos+1] == 'u' {
						p.pos += 2
						r2, err := p.parseHexRune()
						if err != nil {
							return "", err
						}
						r = utf16.DecodeRune(r, r2)
					} else {
						r = utf8.RuneError
					}
				}
				buf = utf8.AppendRune(buf, r)
			default:
				return "", p.errf("invalid escape character %q", esc)
			}
		default:
			buf = append(buf, c)
			p.pos++
		}
	}
	return "", p.errf("unterminated string")
}

func (p *Parser) parseHexRune() (rune, error) {
	if p.pos+4 > len(p.data) {
		return 0, p.errf("truncated \\u escape")
	}
	var r rune
	for i := 0; i < 4; i++ {
		c := p.data[p.pos+i]
		switch {
		case c >= '0' && c <= '9':
			c -= '0'
		case c >= 'a' && c <= 'f':
			c -= 'a' - 10
		case c >= 'A' && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, p.errf("invalid \\u escape")
		}
		r = r<<4 | rune(c)
	}
	p.pos += 4
	return r, nil
}

func (p *Parser) parseNumber() (*Value, error) {
	start := p.pos
	if p.pos < len(p.data) && p.data[p.pos] == '-' {
		p.pos++
	}
	digits := 0
	for p.pos < len(p.data) && p.data[p.pos] >= '0' && p.data[p.pos] <= '9' {
		p.pos++
		digits++
	}
	if digits == 0 {
		return nil, p.errf("invalid number: no integer digits")
	}
	// Leading zeros are invalid per RFC 8259 except for a bare "0".
	if digits > 1 {
		first := start
		if p.data[first] == '-' {
			first++
		}
		if p.data[first] == '0' {
			return nil, p.errf("invalid number: leading zero")
		}
	}
	isFloat := false
	if p.pos < len(p.data) && p.data[p.pos] == '.' {
		isFloat = true
		p.pos++
		fracDigits := 0
		for p.pos < len(p.data) && p.data[p.pos] >= '0' && p.data[p.pos] <= '9' {
			p.pos++
			fracDigits++
		}
		if fracDigits == 0 {
			return nil, p.errf("invalid number: no fraction digits")
		}
	}
	if p.pos < len(p.data) && (p.data[p.pos] == 'e' || p.data[p.pos] == 'E') {
		isFloat = true
		p.pos++
		if p.pos < len(p.data) && (p.data[p.pos] == '+' || p.data[p.pos] == '-') {
			p.pos++
		}
		expDigits := 0
		for p.pos < len(p.data) && p.data[p.pos] >= '0' && p.data[p.pos] <= '9' {
			p.pos++
			expDigits++
		}
		if expDigits == 0 {
			return nil, p.errf("invalid number: no exponent digits")
		}
	}
	raw := p.data[start:p.pos] // a view of the document
	f, err := strconv.ParseFloat(raw, 64)
	if err != nil {
		return nil, p.errf("invalid number %q", raw)
	}
	v := p.newValue()
	v.kind, v.numVal = KindNumber, f
	if !isFloat {
		v.numRaw = raw
	}
	return v, nil
}
