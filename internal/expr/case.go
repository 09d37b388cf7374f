package expr

import (
	"fmt"
	"strings"

	"bufferdb/internal/storage"
)

// When is one WHEN condition THEN result arm of a CASE expression.
type When struct {
	Cond Expr
	Then Expr
}

// Case is the searched CASE expression:
//
//	CASE WHEN cond THEN expr [WHEN cond THEN expr]... [ELSE expr] END
//
// All THEN/ELSE results must share a type (numeric widening allowed);
// a missing ELSE yields NULL.
type Case struct {
	Whens []When
	Else  Expr
	typ   storage.Type
	conds []triKernel // Whens[i].Cond's kernel
}

// NewCase builds a type-checked CASE expression.
func NewCase(whens []When, elseExpr Expr) (*Case, error) {
	if len(whens) == 0 {
		return nil, fmt.Errorf("expr: CASE needs at least one WHEN arm")
	}
	c := &Case{Whens: whens, Else: elseExpr}
	resultTypes := make([]storage.Type, 0, len(whens)+1)
	for _, w := range whens {
		if t := w.Cond.Type(); t != storage.TypeBool && t != storage.TypeNull {
			return nil, fmt.Errorf("expr: CASE condition must be BOOLEAN, got %v", t)
		}
		resultTypes = append(resultTypes, w.Then.Type())
		c.conds = append(c.conds, triKernelFor(w.Cond))
	}
	if elseExpr != nil {
		resultTypes = append(resultTypes, elseExpr.Type())
	}
	c.typ = storage.TypeNull
	for _, t := range resultTypes {
		switch {
		case t == storage.TypeNull:
			// NULL arms adopt the others' type.
		case c.typ == storage.TypeNull:
			c.typ = t
		case c.typ == t:
			// consistent
		case c.typ.Numeric() && t.Numeric():
			c.typ = storage.TypeFloat64
		default:
			return nil, fmt.Errorf("expr: CASE arms mix %v and %v", c.typ, t)
		}
	}
	return c, nil
}

// Eval implements Expr: the first true condition selects the result; a
// NULL or false condition falls through; no match yields ELSE (or NULL).
func (c *Case) Eval(row storage.Row) (storage.Value, error) {
	for i, cond := range c.conds {
		t, err := cond(row)
		if err != nil {
			return storage.Null, err
		}
		if t == triTrue {
			return c.widen(c.Whens[i].Then.Eval(row))
		}
	}
	if c.Else == nil {
		return storage.Null, nil
	}
	return c.widen(c.Else.Eval(row))
}

// widen coerces integer arm results to float when the CASE type widened.
func (c *Case) widen(v storage.Value, err error) (storage.Value, error) {
	if err != nil || v.IsNull() {
		return v, err
	}
	if c.typ == storage.TypeFloat64 && v.Kind == storage.TypeInt64 {
		return storage.NewFloat(float64(v.I)), nil
	}
	return v, nil
}

// Type implements Expr.
func (c *Case) Type() storage.Type { return c.typ }

// String implements Expr.
func (c *Case) String() string {
	var b strings.Builder
	b.WriteString("CASE")
	for _, w := range c.Whens {
		fmt.Fprintf(&b, " WHEN %s THEN %s", w.Cond.String(), w.Then.String())
	}
	if c.Else != nil {
		fmt.Fprintf(&b, " ELSE %s", c.Else.String())
	}
	b.WriteString(" END")
	return b.String()
}
