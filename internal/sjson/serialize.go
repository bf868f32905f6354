package sjson

import (
	"strconv"
	"strings"
	"unicode/utf8"
)

// Serialize renders v as compact JSON.
func Serialize(v *Value) string {
	var sb strings.Builder
	writeCompact(&sb, v)
	return sb.String()
}

func writeCompact(sb *strings.Builder, v *Value) {
	if v == nil {
		sb.WriteString("null")
		return
	}
	switch v.kind {
	case KindNull:
		sb.WriteString("null")
	case KindBool:
		if v.boolVal {
			sb.WriteString("true")
		} else {
			sb.WriteString("false")
		}
	case KindNumber:
		sb.WriteString(v.numberLiteral())
	case KindString:
		writeQuoted(sb, v.strVal)
	case KindArray:
		sb.WriteByte('[')
		for i, e := range v.arrVal {
			if i > 0 {
				sb.WriteByte(',')
			}
			writeCompact(sb, e)
		}
		sb.WriteByte(']')
	case KindObject:
		sb.WriteByte('{')
		for i, m := range v.objVal {
			if i > 0 {
				sb.WriteByte(',')
			}
			writeQuoted(sb, m.Key)
			sb.WriteByte(':')
			writeCompact(sb, m.Value)
		}
		sb.WriteByte('}')
	}
}

const hexDigits = "0123456789abcdef"

func writeQuoted(sb *strings.Builder, s string) {
	sb.WriteByte('"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c >= 0x20 && c != '"' && c != '\\' && c < utf8.RuneSelf {
			i++
			continue
		}
		if c >= utf8.RuneSelf {
			// Multi-byte runes pass through unescaped (valid UTF-8 assumed;
			// invalid bytes are copied verbatim, matching a permissive writer).
			_, size := utf8.DecodeRuneInString(s[i:])
			i += size
			continue
		}
		sb.WriteString(s[start:i])
		switch c {
		case '"':
			sb.WriteString(`\"`)
		case '\\':
			sb.WriteString(`\\`)
		case '\b':
			sb.WriteString(`\b`)
		case '\f':
			sb.WriteString(`\f`)
		case '\n':
			sb.WriteString(`\n`)
		case '\r':
			sb.WriteString(`\r`)
		case '\t':
			sb.WriteString(`\t`)
		default:
			sb.WriteString(`\u00`)
			sb.WriteByte(hexDigits[c>>4])
			sb.WriteByte(hexDigits[c&0xf])
		}
		i++
		start = i
	}
	sb.WriteString(s[start:])
	sb.WriteByte('"')
}

// FormatFloat renders a float the way the serializer does, for callers that
// need consistent numeric text (e.g. cache value encoding).
func FormatFloat(f float64) string {
	return strconv.FormatFloat(f, 'g', -1, 64)
}
