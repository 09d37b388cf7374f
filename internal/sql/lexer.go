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
	"unicode/utf8"
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
	// bound literals, or of a bound output alias's name among its bound
	// names (see Shape); 0 for every other token, pinned literals and
	// verbatim identifiers included.
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
// string literal outside the clauses Shape pins gets its bound-literal slot,
// and each occurrence of a bound output alias its name's slot (nameSlots).
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
	nameSlots(toks)
	return toks, nil
}

// nameSlots numbers a statement's bound output aliases: names that only
// label output columns, so a text that renames them plans exactly as the
// old text up to those labels. A candidate is an identifier right after AS
// in the select list. It is bound when every other identifier of its
// case-folded text (foldName, which folds as strings.EqualFold, the folding
// ORDER BY resolution uses) is another candidate or a whole ORDER BY item,
// which names the output column the analyzer resolves it to; then all of
// them take one slot, numbered in order of first appearance, so which
// aliases coincide and which ORDER BY item names which of them stay in the
// shape key. Any other occurrence — an unaliased select item, WHERE, GROUP
// BY, a table or a qualifier — keeps every occurrence verbatim. Bare
// aliases and table aliases are never candidates: they are read for more
// than a label. Each identifier is folded and looked up a fixed number of
// times, so the work is linear in the statement.
func nameSlots(toks []token) {
	// The select list ends at FROM and ORDER BY runs to the end: clauses
	// come in a fixed order and there are no subqueries.
	from, order, aliased := len(toks), len(toks), false
	for i, t := range toks {
		if t.kind != tokKeyword {
			continue
		}
		switch {
		case t.text == "AS" && from == len(toks):
			aliased = true
		case t.text == "FROM" && from == len(toks):
			from = i
		case t.text == "ORDER" && from < i:
			order = i
		}
	}
	if !aliased {
		return
	}
	// group maps each candidate's folded text to its index in slots, which
	// holds its slot: 0 until it is numbered, -1 once an occurrence
	// elsewhere keeps it verbatim. The map is only read after the
	// candidates are in, so a small one stays on the stack.
	group := make(map[string]int, 8)
	var buf [8]int32
	slots := buf[:0]
	for j := 1; j < from; j++ {
		if toks[j].kind == tokIdent && isKeyword(toks[j-1], "AS") {
			f := foldName(toks[j].text)
			if _, ok := group[f]; !ok {
				group[f] = len(slots)
				slots = append(slots, 0)
			}
		}
	}
	// Mark the candidates and the whole ORDER BY items with slot -1 until
	// they are numbered; any other identifier demotes its text.
	depth := 0
	for j, t := range toks {
		if t.kind == tokSymbol && j > order {
			switch t.text {
			case "(":
				depth++
			case ")":
				depth--
			}
		}
		if t.kind != tokIdent {
			continue
		}
		if j > 0 && j < from && isKeyword(toks[j-1], "AS") || j > order && depth == 0 && wholeItem(toks[j-1], toks[j+1]) {
			toks[j].slot = -1
		} else if g, ok := group[foldName(t.text)]; ok {
			slots[g] = -1
		}
	}
	var n int32
	for j := range toks {
		if toks[j].slot != -1 {
			continue
		}
		toks[j].slot = 0
		if g, ok := group[foldName(toks[j].text)]; ok && slots[g] >= 0 {
			if slots[g] == 0 {
				n++
				slots[g] = n
			}
			toks[j].slot = slots[g]
		}
	}
}

// foldName is s case-folded so that two identifiers fold alike exactly when
// strings.EqualFold holds: each rune becomes one fixed member of its
// unicode.SimpleFold orbit, the lower-case letter for an ASCII one, and a
// byte that is not UTF-8 becomes utf8.RuneError, as EqualFold reads it. An
// ASCII identifier without upper-case letters is its own fold.
func foldName(s string) string {
	i := 0
	for i < len(s) && s[i] < utf8.RuneSelf && (s[i] < 'A' || s[i] > 'Z') {
		i++
	}
	if i == len(s) {
		return s
	}
	b := append(make([]byte, 0, len(s)+4), s[:i]...)
	for _, r := range s[i:] {
		rep := r
		for f := unicode.SimpleFold(r); f != r; f = unicode.SimpleFold(f) {
			rep = min(rep, f)
		}
		if 'A' <= rep && rep <= 'Z' {
			rep += 'a' - 'A'
		}
		b = utf8.AppendRune(b, rep)
	}
	return string(b)
}

// isKeyword reports whether t is the keyword kw.
func isKeyword(t token, kw string) bool { return t.kind == tokKeyword && t.text == kw }

// wholeItem reports whether an ORDER BY token between prev and next, outside
// parentheses, is a whole item: after BY or a comma, and before a comma,
// ASC, DESC, LIMIT, a semicolon or the end.
func wholeItem(prev, next token) bool {
	return (isKeyword(prev, "BY") || prev.kind == tokSymbol && prev.text == ",") &&
		(next.kind == tokEOF || isKeyword(next, "ASC") || isKeyword(next, "DESC") || isKeyword(next, "LIMIT") ||
			next.kind == tokSymbol && (next.text == "," || next.text == ";"))
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
