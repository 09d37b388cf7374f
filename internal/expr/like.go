package expr

import (
	"fmt"
	"strings"

	"bufferdb/internal/storage"
)

// Like implements the SQL LIKE predicate with the standard wildcards:
// '%' matches any run of characters (including empty), '_' matches exactly
// one character. The pattern is a constant, which covers all TPC-H usage
// (e.g. p_type LIKE 'PROMO%').
type Like struct {
	E       Expr
	Pattern string
	Negate  bool
	// PatternParam is the statement parameter the pattern was read from,
	// as Const.Param; 0 when none.
	PatternParam int

	// matcher is the compiled fast-path matcher.
	matcher func(string) bool
	tri     triKernel
}

// NewLike builds a type-checked LIKE predicate and compiles the pattern.
func NewLike(e Expr, pattern string, negate bool) (*Like, error) {
	if t := e.Type(); t != storage.TypeString && t != storage.TypeNull {
		return nil, fmt.Errorf("expr: LIKE operand must be VARCHAR, got %v", t)
	}
	l := &Like{E: e, Pattern: pattern, Negate: negate}
	l.matcher = compileLike(pattern)
	l.tri = l.matchGeneric
	if col, ok := e.(*ColRef); ok {
		// Column operand: match the string in place.
		idx := col.Idx
		l.tri = func(row storage.Row) (tri, error) {
			if idx < len(row) {
				switch v := &row[idx]; v.Kind {
				case storage.TypeString:
					return l.match(v.S), nil
				case storage.TypeNull:
					return triNull, nil
				}
			}
			return l.matchGeneric(row)
		}
	}
	return l, nil
}

func (l *Like) match(s string) tri {
	if l.matcher(s) != l.Negate {
		return triTrue
	}
	return triFalse
}

// matchGeneric is the generic kernel: any VARCHAR operand, through Eval.
func (l *Like) matchGeneric(row storage.Row) (tri, error) {
	v, err := l.E.Eval(row)
	if err != nil || v.IsNull() {
		return triNull, err
	}
	return l.match(v.S), nil
}

// compileLike builds a matcher for the pattern. Patterns without '_' and
// with '%' only at the ends compile to prefix/suffix/contains checks; the
// general case falls back to a linear-time greedy wildcard match.
func compileLike(pattern string) func(string) bool {
	hasUnderscore := strings.ContainsRune(pattern, '_')
	if !hasUnderscore {
		inner := pattern
		prefixWild := strings.HasPrefix(inner, "%")
		suffixWild := strings.HasSuffix(inner, "%")
		trimmed := strings.TrimPrefix(strings.TrimSuffix(inner, "%"), "%")
		if !strings.ContainsRune(trimmed, '%') {
			switch {
			case prefixWild && suffixWild:
				return func(s string) bool { return strings.Contains(s, trimmed) }
			case suffixWild:
				return func(s string) bool { return strings.HasPrefix(s, trimmed) }
			case prefixWild:
				return func(s string) bool { return strings.HasSuffix(s, trimmed) }
			default:
				return func(s string) bool { return s == trimmed }
			}
		}
	}
	return func(s string) bool { return likeMatch(pattern, s) }
}

// likeMatch is the general wildcard matcher. It runs the classic two-pointer
// greedy algorithm, O(len(p)·len(s)) worst case but linear in practice.
func likeMatch(pattern, s string) bool {
	pi, si := 0, 0
	star, starSi := -1, 0
	for si < len(s) {
		switch {
		case pi < len(pattern) && pattern[pi] == '%':
			// Tested first: a '%' in s must not consume the wildcard as a
			// literal match.
			star = pi
			starSi = si
			pi++
		case pi < len(pattern) && (pattern[pi] == '_' || pattern[pi] == s[si]):
			pi++
			si++
		case star >= 0:
			pi = star + 1
			starSi++
			si = starSi
		default:
			return false
		}
	}
	for pi < len(pattern) && pattern[pi] == '%' {
		pi++
	}
	return pi == len(pattern)
}

// Eval implements Expr.
func (l *Like) Eval(row storage.Row) (storage.Value, error) { return boxTri(l.tri(row)) }

// Type implements Expr.
func (l *Like) Type() storage.Type { return storage.TypeBool }

// String implements Expr.
func (l *Like) String() string {
	op := " LIKE '"
	if l.Negate {
		op = " NOT LIKE '"
	}
	return l.E.String() + op + l.Pattern + "'"
}
