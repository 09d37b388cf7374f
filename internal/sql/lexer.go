// Package sql is the SQL front end: a lexer, a recursive-descent parser and
// an analyzer that turns the supported SELECT subset into physical plans
// (internal/plan). The subset covers the paper's workload: single-table
// aggregation queries (TPC-H Q1/Q6 style), multi-table equi-joins with
// forced join methods (the paper's Query 3 variants), GROUP BY, ORDER BY
// and LIMIT.
package sql

import (
	"fmt"
	"strings"
	"unicode"
)

// tokenKind classifies lexer output.
type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokIdent
	tokKeyword
	tokNumber
	tokString
	tokSymbol
)

// token is one lexical unit.
type token struct {
	kind tokenKind
	// slot is the 1-based position of a bound literal among the statement's
	// bound literals (see Shape); 0 for every other token, pinned literals
	// included.
	slot int32
	text string // keywords upper-cased; symbols canonical
	pos  int    // byte offset, for error messages
}

// keywords recognized by the lexer, keyed and valued by their upper-case
// spelling. Identifiers matching these (case-insensitively) become
// tokKeyword carrying the value, so lexing a keyword allocates nothing.
var keywords = func() map[string]string {
	m := map[string]string{}
	for _, kw := range []string{
		"SELECT", "FROM", "WHERE", "GROUP", "BY",
		"ORDER", "ASC", "DESC", "LIMIT", "AS",
		"AND", "OR", "NOT", "BETWEEN", "LIKE",
		"IS", "NULL", "JOIN", "ON", "INNER",
		"DATE", "INTERVAL", "DAY", "MONTH", "YEAR",
		"COUNT", "SUM", "AVG", "MIN", "MAX",
		"TRUE", "FALSE", "HAVING", "DISTINCT",
		"CASE", "WHEN", "THEN", "ELSE", "END",
		"IN", "INSERT", "INTO", "VALUES",
	} {
		m[kw] = kw
	}
	return m
}()

// maxKeywordLen is the length of the longest keyword.
const maxKeywordLen = 8

// keyword returns the canonical spelling of word when it is a keyword in
// any letter case. Keywords are ASCII, so an ASCII upper-casing into a
// stack buffer decides it; the map lookup through string(buf) does not
// allocate.
func keyword(word string) (string, bool) {
	if len(word) > maxKeywordLen {
		return "", false
	}
	var buf [maxKeywordLen]byte
	for i := 0; i < len(word); i++ {
		c := word[i]
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		buf[i] = c
	}
	kw, ok := keywords[string(buf[:len(word)])]
	return kw, ok
}

// lex tokenizes the input. Errors carry byte positions. Each number and
// string literal outside the clauses Shape pins gets its bound-literal slot.
func lex(input string) ([]token, error) {
	// About one token per four bytes of SQL; one growth covers the rest.
	toks := make([]token, 0, len(input)/4+2)
	var lits literalSlots
	i := 0
	n := len(input)
	for i < n {
		c := input[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++

		case c == '-' && i+1 < n && input[i+1] == '-':
			// Line comment.
			for i < n && input[i] != '\n' {
				i++
			}

		case unicode.IsLetter(rune(c)) || c == '_':
			start := i
			for i < n && (unicode.IsLetter(rune(input[i])) || unicode.IsDigit(rune(input[i])) || input[i] == '_') {
				i++
			}
			word := input[start:i]
			if kw, ok := keyword(word); ok {
				lits.clause(kw)
				toks = append(toks, token{kind: tokKeyword, text: kw, pos: start})
			} else {
				toks = append(toks, token{kind: tokIdent, text: word, pos: start})
			}

		case unicode.IsDigit(rune(c)) || (c == '.' && i+1 < n && unicode.IsDigit(rune(input[i+1]))):
			start := i
			seenDot := false
			for i < n {
				d := input[i]
				if unicode.IsDigit(rune(d)) {
					i++
					continue
				}
				if d == '.' && !seenDot {
					seenDot = true
					i++
					continue
				}
				break
			}
			toks = append(toks, token{kind: tokNumber, slot: lits.next(), text: input[start:i], pos: start})

		case c == '\'':
			start := i
			i++
			closed, escaped := false, false
			for i < n {
				if input[i] == '\'' {
					if i+1 < n && input[i+1] == '\'' { // escaped quote
						escaped = true
						i += 2
						continue
					}
					closed = true
					i++
					break
				}
				i++
			}
			if !closed {
				return nil, fmt.Errorf("sql: unterminated string literal at offset %d", start)
			}
			text := input[start+1 : i-1]
			if escaped {
				text = strings.ReplaceAll(text, "''", "'")
			}
			toks = append(toks, token{kind: tokString, slot: lits.next(), text: text, pos: start})

		default:
			start := i
			two := ""
			if i+1 < n {
				two = input[i : i+2]
			}
			switch two {
			case "<=", ">=", "<>", "!=":
				canon := two
				if two == "!=" {
					canon = "<>"
				}
				toks = append(toks, token{kind: tokSymbol, text: canon, pos: start})
				i += 2
			default:
				switch c {
				case '(', ')', ',', '.', ';', '*', '+', '-', '/', '=', '<', '>':
					toks = append(toks, token{kind: tokSymbol, text: input[i : i+1], pos: start})
					i++
				default:
					return nil, fmt.Errorf("sql: unexpected character %q at offset %d", c, i)
				}
			}
		}
	}
	toks = append(toks, token{kind: tokEOF, text: "", pos: n})
	return toks, nil
}

// literalSlots numbers a statement's bound literals as the lexer meets
// them. A literal is pinned — read for more than an expression value — in
// the select list (it may name an output column or match an aggregate or
// group key by its rendering), in GROUP BY and ORDER BY (ordinals and
// renderings), in LIMIT, and as an INTERVAL quantity; every other literal
// is bound. Subqueries are unsupported, so the clause a literal sits in is
// decided by the last clause keyword before it.
type literalSlots struct {
	bound    bool // inside FROM, WHERE or a JOIN … ON
	interval bool // the next literal is an INTERVAL quantity
	n        int32
}

// clause tracks the clause keyword kw opens.
func (l *literalSlots) clause(kw string) {
	switch kw {
	case "FROM", "WHERE", "JOIN", "ON":
		l.bound = true
	case "SELECT", "GROUP", "ORDER", "LIMIT", "HAVING":
		l.bound = false
	case "INTERVAL":
		l.interval = true
	}
}

// next returns the slot of the literal being lexed: the next free one when
// it is bound, 0 when it is pinned.
func (l *literalSlots) next() int32 {
	if !l.bound || l.interval {
		l.interval = false
		return 0
	}
	l.n++
	return l.n
}
