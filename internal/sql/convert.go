package sql

import (
	"fmt"
	"strconv"

	"bufferdb/internal/expr"
	"bufferdb/internal/storage"
)

// toExpr converts an AST expression to a typed executable expression over
// the given scope.
func (a *analyzer) toExpr(n Node, sc *scope) (expr.Expr, error) {
	switch e := n.(type) {
	case *Ident:
		c, err := sc.resolve(e.Table, e.Name)
		if err != nil {
			return nil, err
		}
		display := c.name
		if c.binding != "" {
			display = c.binding + "." + c.name
		}
		return expr.NewColRef(c.pos, display, c.typ), nil

	case *NumberLit:
		kind := storage.TypeFloat64
		if e.IsInt {
			kind = storage.TypeInt64
		}
		return literal(e.Text, kind, e.Slot)

	case *StringLit:
		return literal(e.Val, storage.TypeString, e.Slot)

	case *DateLit:
		return literal(e.Val, storage.TypeDate, e.Slot)

	case *IntervalLit:
		// Intervals surface as day counts; DATE ± BIGINT is native.
		return expr.NewConst(storage.NewInt(e.Days)), nil

	case *NullLit:
		return expr.NewConst(storage.Null), nil

	case *BoolLit:
		return expr.NewConst(storage.NewBool(e.Val)), nil

	case *BinaryExpr:
		l, err := a.toExpr(e.L, sc)
		if err != nil {
			return nil, err
		}
		r, err := a.toExpr(e.R, sc)
		if err != nil {
			return nil, err
		}
		return a.binary(e.Op, l, r)

	case *UnaryExpr:
		inner, err := a.toExpr(e.E, sc)
		if err != nil {
			return nil, err
		}
		if e.Op == "-" {
			return expr.NewNeg(inner)
		}
		return expr.NewNot(inner)

	case *BetweenExpr:
		// Desugar: e >= lo AND e <= hi (negated: NOT (...)).
		v, err := a.toExpr(e.E, sc)
		if err != nil {
			return nil, err
		}
		lo, err := a.toExpr(e.Lo, sc)
		if err != nil {
			return nil, err
		}
		hi, err := a.toExpr(e.Hi, sc)
		if err != nil {
			return nil, err
		}
		ge, err := a.binary(">=", v, lo)
		if err != nil {
			return nil, err
		}
		le, err := a.binary("<=", v, hi)
		if err != nil {
			return nil, err
		}
		both, err := expr.NewBinary(expr.OpAnd, ge, le)
		if err != nil {
			return nil, err
		}
		if e.Negate {
			return expr.NewNot(both)
		}
		return both, nil

	case *LikeExpr:
		v, err := a.toExpr(e.E, sc)
		if err != nil {
			return nil, err
		}
		l, err := expr.NewLike(v, e.Pattern, e.Negate)
		if err != nil {
			return nil, err
		}
		l.PatternParam = e.Slot
		return l, nil

	case *IsNullExpr:
		v, err := a.toExpr(e.E, sc)
		if err != nil {
			return nil, err
		}
		return &expr.IsNull{E: v, Negate: e.Negate}, nil

	case *CaseExpr:
		whens := make([]expr.When, 0, len(e.Whens))
		for _, w := range e.Whens {
			cond, err := a.toExpr(w.Cond, sc)
			if err != nil {
				return nil, err
			}
			then, err := a.toExpr(w.Then, sc)
			if err != nil {
				return nil, err
			}
			whens = append(whens, expr.When{Cond: cond, Then: then})
		}
		var elseExpr expr.Expr
		if e.Else != nil {
			var err error
			elseExpr, err = a.toExpr(e.Else, sc)
			if err != nil {
				return nil, err
			}
		}
		return expr.NewCase(whens, elseExpr)

	case *InExpr:
		// Desugar to an OR chain of equalities (NOT IN → NOT (…)).
		v, err := a.toExpr(e.E, sc)
		if err != nil {
			return nil, err
		}
		var out expr.Expr
		for _, item := range e.List {
			iv, err := a.toExpr(item, sc)
			if err != nil {
				return nil, err
			}
			eq, err := a.binary("=", v, iv)
			if err != nil {
				return nil, err
			}
			if out == nil {
				out = eq
			} else {
				out, err = expr.NewBinary(expr.OpOr, out, eq)
				if err != nil {
					return nil, err
				}
			}
		}
		if out == nil {
			return nil, fmt.Errorf("sql: empty IN list")
		}
		if e.Negate {
			return expr.NewNot(out)
		}
		return out, nil

	case *FuncCall:
		return nil, fmt.Errorf("sql: aggregate %s not allowed here", e.Name)

	default:
		return nil, fmt.Errorf("sql: unsupported expression")
	}
}

// literal is the constant a literal's text reads as in kind, carrying the
// literal's slot as its parameter. It is the one conversion: the analyzer
// builds every literal constant through it, and Shape.Arg re-binds
// parameters through it.
func literal(text string, kind storage.Type, slot int) (expr.Expr, error) {
	v, err := readLiteral(text, kind)
	if err != nil {
		return nil, err
	}
	return &expr.Const{Val: v, Param: slot}, nil
}

// readLiteral reads a literal's text as a value of kind.
func readLiteral(text string, kind storage.Type) (storage.Value, error) {
	switch kind {
	case storage.TypeInt64:
		i, err := strconv.ParseInt(text, 10, 64)
		if err != nil {
			return storage.Null, fmt.Errorf("sql: bad integer literal %q", text)
		}
		return storage.NewInt(i), nil
	case storage.TypeFloat64:
		f, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return storage.Null, fmt.Errorf("sql: bad numeric literal %q", text)
		}
		return storage.NewFloat(f), nil
	case storage.TypeString:
		return storage.NewString(text), nil
	case storage.TypeDate:
		return storage.ParseDate(text)
	default:
		return storage.Null, fmt.Errorf("sql: no %v literal", kind)
	}
}

// binary builds a type-checked binary expression, coercing string literals
// to dates when the other side is a date (so `l_shipdate <= '1998-09-02'`
// works without the DATE keyword).
func (a *analyzer) binary(op string, l, r expr.Expr) (expr.Expr, error) {
	l, r = coerceDate(l, r)
	var bop expr.BinOp
	switch op {
	case "+":
		bop = expr.OpAdd
	case "-":
		bop = expr.OpSub
	case "*":
		bop = expr.OpMul
	case "/":
		bop = expr.OpDiv
	case "=":
		bop = expr.OpEq
	case "<>":
		bop = expr.OpNe
	case "<":
		bop = expr.OpLt
	case "<=":
		bop = expr.OpLe
	case ">":
		bop = expr.OpGt
	case ">=":
		bop = expr.OpGe
	case "AND":
		bop = expr.OpAnd
	case "OR":
		bop = expr.OpOr
	default:
		return nil, fmt.Errorf("sql: unknown operator %q", op)
	}
	return expr.NewBinary(bop, l, r)
}

// coerceDate rewrites a string constant opposite a date expression into a
// date constant, when it parses as one. The date keeps the string's
// parameter, which then re-binds as a date.
func coerceDate(l, r expr.Expr) (expr.Expr, expr.Expr) {
	try := func(side expr.Expr, other expr.Expr) expr.Expr {
		c, ok := side.(*expr.Const)
		if !ok || c.Val.Kind != storage.TypeString || other.Type() != storage.TypeDate {
			return side
		}
		if d, err := literal(c.Val.S, storage.TypeDate, c.Param); err == nil {
			return d
		}
		return side
	}
	return try(l, r), try(r, l)
}
