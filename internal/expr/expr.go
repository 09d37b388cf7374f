// Package expr implements the scalar expression engine: column references,
// constants, arithmetic, comparisons, boolean logic, LIKE matching and the
// standard SQL aggregate functions.
//
// Expressions are evaluated against positional rows (storage.Row). The
// analyzer (internal/sql) resolves names to positions before execution, so
// evaluation never does string lookups on the hot path.
package expr

import (
	"fmt"
	"math"

	"bufferdb/internal/storage"
)

// Expr is a typed scalar expression evaluated one row at a time.
type Expr interface {
	// Eval computes the expression over the given input row.
	Eval(row storage.Row) (storage.Value, error)
	// Type is the static result type. The analyzer guarantees that Eval
	// returns values of this type (or NULL).
	Type() storage.Type
	// String renders the expression for EXPLAIN output.
	String() string
}

// ColRef reads a column of the input row by position.
type ColRef struct {
	// Idx is the position in the input row.
	Idx int
	// Name is the display name (qualified), used only for EXPLAIN.
	Name string
	// Typ is the column type.
	Typ storage.Type
}

// NewColRef constructs a resolved column reference.
func NewColRef(idx int, name string, typ storage.Type) *ColRef {
	return &ColRef{Idx: idx, Name: name, Typ: typ}
}

// Eval implements Expr.
func (c *ColRef) Eval(row storage.Row) (storage.Value, error) {
	if c.Idx >= len(row) {
		return storage.Null, fmt.Errorf("expr: column %s (position %d) out of range for row of arity %d",
			c.Name, c.Idx, len(row))
	}
	return row[c.Idx], nil
}

// Type implements Expr.
func (c *ColRef) Type() storage.Type { return c.Typ }

// String implements Expr.
func (c *ColRef) String() string { return c.Name }

// Const is a literal value.
type Const struct {
	Val storage.Value
	// Param is the 1-based statement parameter the value was read from,
	// which Rebind replaces; 0 for a constant no parameter names.
	Param int
}

// NewConst constructs a literal.
func NewConst(v storage.Value) *Const { return &Const{Val: v} }

// Eval implements Expr.
func (c *Const) Eval(storage.Row) (storage.Value, error) { return c.Val, nil }

// Type implements Expr.
func (c *Const) Type() storage.Type { return c.Val.Kind }

// String implements Expr.
func (c *Const) String() string {
	if c.Val.Kind == storage.TypeString || c.Val.Kind == storage.TypeDate {
		return "'" + c.Val.String() + "'"
	}
	return c.Val.String()
}

// BinOp enumerates binary operators.
type BinOp uint8

// Binary operators. Comparison operators produce BOOLEAN; arithmetic
// operators produce a numeric type per ArithResultType.
const (
	OpAdd BinOp = iota
	OpSub
	OpMul
	OpDiv
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAnd
	OpOr
)

// String returns the SQL spelling of the operator.
func (op BinOp) String() string {
	switch op {
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	case OpDiv:
		return "/"
	case OpEq:
		return "="
	case OpNe:
		return "<>"
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	case OpAnd:
		return "AND"
	case OpOr:
		return "OR"
	default:
		return fmt.Sprintf("BinOp(%d)", uint8(op))
	}
}

// IsComparison reports whether the operator is one of = <> < <= > >=.
func (op BinOp) IsComparison() bool { return op >= OpEq && op <= OpGe }

// IsArith reports whether the operator is one of + - * /.
func (op BinOp) IsArith() bool { return op <= OpDiv }

// IsLogic reports whether the operator is AND or OR.
func (op BinOp) IsLogic() bool { return op == OpAnd || op == OpOr }

// ArithResultType computes the result type of an arithmetic operator over
// the two operand types. Division always widens to DOUBLE (TPC-H prices are
// decimals, which this engine represents as DOUBLE); otherwise INT op INT is
// INT and anything involving DOUBLE is DOUBLE. Date ± integer yields DATE,
// and DATE − DATE yields BIGINT (day difference).
func ArithResultType(op BinOp, l, r storage.Type) (storage.Type, error) {
	if !op.IsArith() {
		return storage.TypeNull, fmt.Errorf("expr: %v is not arithmetic", op)
	}
	switch {
	case l == storage.TypeNull || r == storage.TypeNull:
		// A NULL literal operand: the expression always evaluates to NULL;
		// adopt the other operand's type when numeric so parents type-check.
		switch {
		case op == OpDiv:
			return storage.TypeFloat64, nil
		case l.Numeric():
			return l, nil
		case r.Numeric():
			return r, nil
		default:
			return storage.TypeNull, nil
		}
	case l == storage.TypeDate && r == storage.TypeInt64 && (op == OpAdd || op == OpSub):
		return storage.TypeDate, nil
	case l == storage.TypeInt64 && r == storage.TypeDate && op == OpAdd:
		return storage.TypeDate, nil
	case l == storage.TypeDate && r == storage.TypeDate && op == OpSub:
		return storage.TypeInt64, nil
	case !l.Numeric() || !r.Numeric():
		return storage.TypeNull, fmt.Errorf("expr: cannot apply %v to %v and %v", op, l, r)
	case op == OpDiv:
		return storage.TypeFloat64, nil
	case l == storage.TypeFloat64 || r == storage.TypeFloat64:
		return storage.TypeFloat64, nil
	default:
		return storage.TypeInt64, nil
	}
}

// Binary applies a binary operator to two sub-expressions.
type Binary struct {
	Op   BinOp
	L, R Expr
	typ  storage.Type

	// The kernel chosen at construction (see kernel.go): tri for
	// comparisons and AND/OR, flt for DOUBLE arithmetic over numeric
	// operands, neither for the remaining arithmetic (arithGeneric).
	fold folded
	tri  triKernel
	flt  floatKernel
}

// NewBinary builds a type-checked binary expression.
func NewBinary(op BinOp, l, r Expr) (*Binary, error) {
	b := &Binary{Op: op, L: l, R: r}
	switch {
	case op.IsArith():
		t, err := ArithResultType(op, l.Type(), r.Type())
		if err != nil {
			return nil, err
		}
		b.typ = t
		if t == storage.TypeFloat64 && l.Type().Numeric() && r.Type().Numeric() {
			b.flt = b.arithKernel()
		}
	case op.IsComparison():
		lt, rt := l.Type(), r.Type()
		compatible := lt == rt ||
			(lt.Numeric() && rt.Numeric()) ||
			lt == storage.TypeNull || rt == storage.TypeNull
		if !compatible {
			return nil, fmt.Errorf("expr: cannot compare %v with %v", lt, rt)
		}
		b.typ = storage.TypeBool
		b.tri = b.compareKernel()
	case op.IsLogic():
		for _, e := range []Expr{l, r} {
			if t := e.Type(); t != storage.TypeBool && t != storage.TypeNull {
				return nil, fmt.Errorf("expr: %v operand must be BOOLEAN, got %v", op, t)
			}
		}
		b.typ = storage.TypeBool
		b.tri = logicKernel(op, triKernelFor(l), triKernelFor(r))
	default:
		return nil, fmt.Errorf("expr: unknown operator %v", op)
	}
	b.fold = foldConst(b.eval, l, r)
	return b, nil
}

// MustBinary is NewBinary for statically well-typed construction in tests
// and generators.
func MustBinary(op BinOp, l, r Expr) *Binary {
	b, err := NewBinary(op, l, r)
	if err != nil {
		panic(err)
	}
	return b
}

// Eval implements Expr. SQL three-valued logic applies: any NULL operand
// yields NULL, except AND/OR which use Kleene semantics.
func (b *Binary) Eval(row storage.Row) (storage.Value, error) {
	if b.fold.ok {
		return b.fold.val, nil
	}
	return b.eval(row)
}

// eval runs the node's kernel and boxes the result.
func (b *Binary) eval(row storage.Row) (storage.Value, error) {
	switch {
	case b.tri != nil:
		return boxTri(b.tri(row))
	case b.flt != nil:
		f, null, err := b.flt(row)
		switch {
		case err == errFallback:
		case err != nil || null:
			return storage.Null, err
		default:
			return storage.NewFloat(f), nil
		}
	}
	return b.arithGeneric(row)
}

// arithGeneric is the generic arithmetic kernel: integer, date and
// NULL-literal arithmetic, and DOUBLE arithmetic whose fast path declined.
func (b *Binary) arithGeneric(row storage.Row) (storage.Value, error) {
	lv, err := b.L.Eval(row)
	if err != nil {
		return storage.Null, err
	}
	rv, err := b.R.Eval(row)
	if err != nil {
		return storage.Null, err
	}
	if lv.IsNull() || rv.IsNull() {
		return storage.Null, nil
	}
	return b.evalArith(lv, rv)
}

func (b *Binary) evalArith(lv, rv storage.Value) (storage.Value, error) {
	// Date arithmetic.
	if lv.Kind == storage.TypeDate || rv.Kind == storage.TypeDate {
		switch {
		case lv.Kind == storage.TypeDate && rv.Kind == storage.TypeInt64 && b.Op == OpAdd:
			return storage.NewDate(lv.I + rv.I), nil
		case lv.Kind == storage.TypeDate && rv.Kind == storage.TypeInt64 && b.Op == OpSub:
			return storage.NewDate(lv.I - rv.I), nil
		case lv.Kind == storage.TypeInt64 && rv.Kind == storage.TypeDate && b.Op == OpAdd:
			return storage.NewDate(lv.I + rv.I), nil
		case lv.Kind == storage.TypeDate && rv.Kind == storage.TypeDate && b.Op == OpSub:
			return storage.NewInt(lv.I - rv.I), nil
		default:
			return storage.Null, fmt.Errorf("expr: unsupported date arithmetic %v %v %v", lv.Kind, b.Op, rv.Kind)
		}
	}

	if b.typ == storage.TypeInt64 {
		switch b.Op {
		case OpAdd:
			return storage.NewInt(lv.I + rv.I), nil
		case OpSub:
			return storage.NewInt(lv.I - rv.I), nil
		case OpMul:
			return storage.NewInt(lv.I * rv.I), nil
		}
	}
	lf, rf := lv.AsFloat(), rv.AsFloat()
	switch b.Op {
	case OpAdd:
		return storage.NewFloat(lf + rf), nil
	case OpSub:
		return storage.NewFloat(lf - rf), nil
	case OpMul:
		return storage.NewFloat(lf * rf), nil
	case OpDiv:
		if rf == 0 {
			return storage.Null, errDivZero
		}
		return storage.NewFloat(lf / rf), nil
	}
	return storage.Null, fmt.Errorf("expr: unreachable arithmetic %v", b.Op)
}

// Type implements Expr.
func (b *Binary) Type() storage.Type { return b.typ }

// String implements Expr.
func (b *Binary) String() string {
	return "(" + b.L.String() + " " + b.Op.String() + " " + b.R.String() + ")"
}

// Not negates a boolean expression with three-valued semantics.
type Not struct {
	E Expr

	fold folded
	tri  triKernel
}

// NewNot builds a type-checked negation.
func NewNot(e Expr) (*Not, error) {
	if t := e.Type(); t != storage.TypeBool && t != storage.TypeNull {
		return nil, fmt.Errorf("expr: NOT operand must be BOOLEAN, got %v", t)
	}
	n := &Not{E: e}
	inner := triKernelFor(e)
	n.tri = func(row storage.Row) (tri, error) {
		t, err := inner(row)
		if err != nil || t == triNull {
			return triNull, err
		}
		return t ^ 1, nil // triFalse <-> triTrue
	}
	n.fold = foldConst(n.eval, e)
	return n, nil
}

// Eval implements Expr.
func (n *Not) Eval(row storage.Row) (storage.Value, error) {
	if n.fold.ok {
		return n.fold.val, nil
	}
	return n.eval(row)
}

func (n *Not) eval(row storage.Row) (storage.Value, error) { return boxTri(n.tri(row)) }

// Type implements Expr.
func (n *Not) Type() storage.Type { return storage.TypeBool }

// String implements Expr.
func (n *Not) String() string { return "NOT " + n.E.String() }

// Neg is unary numeric negation.
type Neg struct {
	E Expr

	fold folded
	flt  floatKernel // set when E is DOUBLE
}

// NewNeg builds a type-checked numeric negation.
func NewNeg(e Expr) (*Neg, error) {
	if !e.Type().Numeric() && e.Type() != storage.TypeNull {
		return nil, fmt.Errorf("expr: cannot negate %v", e.Type())
	}
	n := &Neg{E: e}
	if e.Type() == storage.TypeFloat64 {
		o := floatOperandFor(e)
		n.flt = func(row storage.Row) (float64, bool, error) {
			f, null, err := o.load(row)
			if err == errFallback {
				return floatResult(n.negGeneric(row))
			}
			return -f, null, err
		}
	}
	n.fold = foldConst(n.eval, e)
	return n, nil
}

// Eval implements Expr.
func (n *Neg) Eval(row storage.Row) (storage.Value, error) {
	if n.fold.ok {
		return n.fold.val, nil
	}
	return n.eval(row)
}

func (n *Neg) eval(row storage.Row) (storage.Value, error) {
	if n.flt != nil {
		f, null, err := n.flt(row)
		switch {
		case err == errFallback:
		case err != nil || null:
			return storage.Null, err
		default:
			return storage.NewFloat(f), nil
		}
	}
	return n.negGeneric(row)
}

// negGeneric is the generic kernel: it negates whatever numeric Kind the
// operand produced.
func (n *Neg) negGeneric(row storage.Row) (storage.Value, error) {
	v, err := n.E.Eval(row)
	if err != nil || v.IsNull() {
		return storage.Null, err
	}
	if v.Kind == storage.TypeInt64 {
		return storage.NewInt(-v.I), nil
	}
	return storage.NewFloat(-v.F), nil
}

// Type implements Expr.
func (n *Neg) Type() storage.Type { return n.E.Type() }

// String implements Expr.
func (n *Neg) String() string { return "-" + n.E.String() }

// IsNull tests a sub-expression for SQL NULL (IS NULL / IS NOT NULL).
type IsNull struct {
	E      Expr
	Negate bool // true renders IS NOT NULL
}

// Eval implements Expr.
func (i *IsNull) Eval(row storage.Row) (storage.Value, error) { return boxTri(i.evalTri(row)) }

// evalTri is IsNull's kernel. The node has no constructor to choose one
// in, and needs none: only the operand's Kind is looked at.
func (i *IsNull) evalTri(row storage.Row) (tri, error) {
	v, err := i.E.Eval(row)
	if err != nil {
		return triNull, err
	}
	if v.IsNull() != i.Negate {
		return triTrue, nil
	}
	return triFalse, nil
}

// Type implements Expr.
func (i *IsNull) Type() storage.Type { return storage.TypeBool }

// String implements Expr.
func (i *IsNull) String() string {
	if i.Negate {
		return i.E.String() + " IS NOT NULL"
	}
	return i.E.String() + " IS NULL"
}

// Columns calls visit with the position of every column e reads. It
// reports false when e holds a node it does not know, and the caller must
// then assume e reads every column.
func Columns(e Expr, visit func(idx int)) bool {
	switch v := e.(type) {
	case *ColRef:
		visit(v.Idx)
		return true
	case *Const:
		return true
	case *Binary:
		return Columns(v.L, visit) && Columns(v.R, visit)
	case *Not:
		return Columns(v.E, visit)
	case *Neg:
		return Columns(v.E, visit)
	case *IsNull:
		return Columns(v.E, visit)
	case *Like:
		return Columns(v.E, visit)
	case *Case:
		for _, w := range v.Whens {
			if !Columns(w.Cond, visit) || !Columns(w.Then, visit) {
				return false
			}
		}
		return v.Else == nil || Columns(v.Else, visit)
	default:
		return false
	}
}

// EvalBool evaluates a predicate and folds NULL to false, which is the
// WHERE-clause semantics of SQL. Operators use it to filter rows.
func EvalBool(e Expr, row storage.Row) (bool, error) {
	if k := nodeKernel(e); k != nil {
		t, err := k(row)
		return t == triTrue, err
	}
	v, err := e.Eval(row)
	if err != nil {
		return false, err
	}
	return !v.IsNull() && v.Bool(), nil
}

// roundHalfEven exists to keep decimal-ish outputs stable in tests without
// pulling in a decimal library; the engine itself computes in float64.
func roundHalfEven(v float64, places int) float64 {
	scale := math.Pow(10, float64(places))
	return math.RoundToEven(v*scale) / scale
}

// Round returns v rounded to the given number of decimal places using
// banker's rounding, matching how the benchmark harness prints money sums.
func Round(v float64, places int) float64 { return roundHalfEven(v, places) }
