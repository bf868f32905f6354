// Package sqlengine implements the SparkSQL-like analytics engine Maxson
// plugs into: a SQL subset (SELECT / FROM / JOIN / WHERE / GROUP BY /
// ORDER BY / LIMIT plus the get_json_object UDF), physical plans built from
// scan/filter/project/aggregate/join/sort operators, and a partition-
// parallel executor over warehouse tables.
//
// Every query execution meters its work in three phases — Read (bytes moved
// from storage), Parse (JSON documents and bytes parsed by UDFs), and
// Compute (rows processed by operators) — mirroring the breakdowns in the
// paper's Fig 3 and Fig 12. The metered counts feed a calibrated cost model
// (cost.go) so experiments report deterministic times alongside wall-clock.
package sqlengine

import (
	"fmt"
	"strings"
)

// TokenKind identifies lexical token classes.
type TokenKind uint8

// Token kinds.
const (
	TokEOF TokenKind = iota
	TokIdent
	TokKeyword
	TokString
	TokNumber
	TokOp    // comparison/arithmetic operators
	TokPunct // ( ) , .
)

// Token is one lexical token.
type Token struct {
	Kind TokenKind
	Text string // keywords uppercased; identifiers as written
	Pos  int    // byte offset in the input
}

// keywords recognized by the parser (uppercased).
var keywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "GROUP": true, "BY": true,
	"ORDER": true, "LIMIT": true, "AS": true, "AND": true, "OR": true,
	"NOT": true, "JOIN": true, "ON": true, "ASC": true, "DESC": true,
	"BETWEEN": true, "NULL": true, "TRUE": true, "FALSE": true,
	"INNER": true, "IS": true, "DISTINCT": true,
	"HAVING": true, "IN": true, "LIKE": true, "EXPLAIN": true,
}

// LexError reports a tokenization failure.
type LexError struct {
	Pos int
	Msg string
}

func (e *LexError) Error() string {
	return fmt.Sprintf("sql: lex error at offset %d: %s", e.Pos, e.Msg)
}

// Lex tokenizes a SQL string.
func Lex(input string) ([]Token, error) {
	// About one token per four bytes of SQL: sized once, not doubled from nil.
	toks := make([]Token, 0, len(input)/4+1)
	i := 0
	for i < len(input) {
		c := input[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '-' && i+1 < len(input) && input[i+1] == '-':
			for i < len(input) && input[i] != '\n' {
				i++
			}
		case isIdentStart(c):
			start := i
			for i < len(input) && isIdentPart(input[i]) {
				i++
			}
			text := input[start:i]
			upper := strings.ToUpper(text)
			if keywords[upper] {
				toks = append(toks, Token{Kind: TokKeyword, Text: upper, Pos: start})
			} else {
				toks = append(toks, Token{Kind: TokIdent, Text: text, Pos: start})
			}
		case c >= '0' && c <= '9':
			start := i
			seenDot := false
			for i < len(input) && (input[i] >= '0' && input[i] <= '9' || input[i] == '.' && !seenDot) {
				if input[i] == '.' {
					seenDot = true
				}
				i++
			}
			toks = append(toks, Token{Kind: TokNumber, Text: input[start:i], Pos: start})
		case c == '\'' || c == '"':
			quote := c
			start := i
			i++
			var sb strings.Builder
			closed := false
			for i < len(input) {
				if input[i] == quote {
					if i+1 < len(input) && input[i+1] == quote {
						sb.WriteByte(quote) // doubled quote escapes itself
						i += 2
						continue
					}
					i++
					closed = true
					break
				}
				if input[i] == '\\' && i+1 < len(input) {
					i++
					switch input[i] {
					case 'n':
						sb.WriteByte('\n')
					case 't':
						sb.WriteByte('\t')
					default:
						sb.WriteByte(input[i])
					}
					i++
					continue
				}
				sb.WriteByte(input[i])
				i++
			}
			if !closed {
				return nil, &LexError{Pos: start, Msg: "unterminated string literal"}
			}
			toks = append(toks, Token{Kind: TokString, Text: sb.String(), Pos: start})
		case c == '(' || c == ')' || c == ',' || c == '.' || c == '*':
			toks = append(toks, Token{Kind: TokPunct, Text: string(c), Pos: i})
			i++
		case c == '=' || c == '+' || c == '-' || c == '/' || c == '%':
			toks = append(toks, Token{Kind: TokOp, Text: string(c), Pos: i})
			i++
		case c == '<':
			if i+1 < len(input) && (input[i+1] == '=' || input[i+1] == '>') {
				toks = append(toks, Token{Kind: TokOp, Text: input[i : i+2], Pos: i})
				i += 2
			} else {
				toks = append(toks, Token{Kind: TokOp, Text: "<", Pos: i})
				i++
			}
		case c == '>':
			if i+1 < len(input) && input[i+1] == '=' {
				toks = append(toks, Token{Kind: TokOp, Text: ">=", Pos: i})
				i += 2
			} else {
				toks = append(toks, Token{Kind: TokOp, Text: ">", Pos: i})
				i++
			}
		case c == '!':
			if i+1 < len(input) && input[i+1] == '=' {
				toks = append(toks, Token{Kind: TokOp, Text: "!=", Pos: i})
				i += 2
			} else {
				return nil, &LexError{Pos: i, Msg: "unexpected '!'"}
			}
		default:
			return nil, &LexError{Pos: i, Msg: fmt.Sprintf("unexpected character %q", c)}
		}
	}
	toks = append(toks, Token{Kind: TokEOF, Pos: len(input)})
	return toks, nil
}

func isIdentStart(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' || c == '$'
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || c >= '0' && c <= '9'
}
