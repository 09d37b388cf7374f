package expr

import (
	"cmp"
	"errors"

	"bufferdb/internal/storage"
)

// Expression kernels. Every composite node picks its evaluation kernel once,
// at construction, from its operands' static types, and Eval/EvalBool only
// delegate to it. A kernel's fast path never builds a storage.Value: boolean
// nodes compute a tri, DOUBLE arithmetic computes a float64. Each fast path
// guards what it assumed — the row's arity and the runtime Kind of every
// value it reads — and on any surprise (a short row, an int stored in a
// DOUBLE column) drops to the node's generic kernel, which evaluates the
// operands with Eval and so yields the answer or error the tree walk always
// has. DESIGN.md §18 has the full rule.

// tri is SQL's three-valued truth value.
type tri uint8

const (
	triFalse tri = iota
	triTrue
	triNull
)

// triValues maps a tri to the Value Eval returns for it.
var triValues = [3]storage.Value{storage.NewBool(false), storage.NewBool(true), storage.Null}

// boxTri turns a boolean kernel's result into Eval's.
func boxTri(t tri, err error) (storage.Value, error) {
	if err != nil {
		return storage.Null, err
	}
	return triValues[t], nil
}

func triOf(v storage.Value) tri {
	switch {
	case v.IsNull():
		return triNull
	case v.Bool():
		return triTrue
	default:
		return triFalse
	}
}

// triKernel evaluates a BOOLEAN node.
type triKernel func(row storage.Row) (tri, error)

// floatKernel evaluates a DOUBLE node. It may return errFallback, which
// tells the consumer to evaluate the node with Eval instead.
type floatKernel func(row storage.Row) (f float64, null bool, err error)

// errFallback reports a failed fast-path guard. It never leaves the package:
// whoever loaded the operand catches it and runs its generic kernel.
var errFallback = errors.New("expr: kernel guard failed")

var errDivZero = errors.New("expr: division by zero")

// folded is the value of a column-free subtree, computed once at
// construction. A subtree whose evaluation errors (1/0) is left unfolded so
// the error still surfaces, unchanged, when a row is evaluated.
type folded struct {
	val storage.Value
	ok  bool
}

// constOf returns e's value when e is a literal or a folded subtree.
func constOf(e Expr) (storage.Value, bool) {
	switch n := e.(type) {
	case *Const:
		return n.Val, true
	case *Binary:
		return n.fold.val, n.fold.ok
	case *Not:
		return n.fold.val, n.fold.ok
	case *Neg:
		return n.fold.val, n.fold.ok
	}
	return storage.Null, false
}

// foldConst evaluates a node once if all its children are constants.
func foldConst(eval func(storage.Row) (storage.Value, error), children ...Expr) folded {
	for _, c := range children {
		if _, ok := constOf(c); !ok {
			return folded{}
		}
	}
	v, err := eval(nil)
	return folded{val: v, ok: err == nil}
}

// nodeKernel returns the boolean kernel e chose at construction, nil if e
// is not a node that has one.
func nodeKernel(e Expr) triKernel {
	switch n := e.(type) {
	case *Binary:
		return n.tri
	case *Not:
		return n.tri
	case *Like:
		return n.tri
	}
	return nil
}

// triKernelFor returns the kernel a parent calls for its BOOLEAN operand e.
func triKernelFor(e Expr) triKernel {
	if v, ok := constOf(e); ok {
		t := triOf(v)
		return func(storage.Row) (tri, error) { return t, nil }
	}
	if k := nodeKernel(e); k != nil {
		return k
	}
	if n, ok := e.(*IsNull); ok {
		return n.evalTri
	}
	// Boolean columns, CASE results: evaluate and classify.
	return func(row storage.Row) (tri, error) {
		v, err := e.Eval(row)
		if err != nil {
			return triNull, err
		}
		return triOf(v), nil
	}
}

// logicKernel is Kleene AND/OR with the tree walk's evaluation order: the
// right operand is skipped exactly when the left one decides the result.
func logicKernel(op BinOp, l, r triKernel) triKernel {
	// decides is the operand value that settles the result on its own:
	// FALSE for AND, TRUE for OR.
	decides := triFalse
	if op == OpOr {
		decides = triTrue
	}
	return func(row storage.Row) (tri, error) {
		lt, err := l(row)
		if err != nil {
			return triNull, err
		}
		if lt == decides {
			return decides, nil
		}
		rt, err := r(row)
		if err != nil {
			return triNull, err
		}
		switch {
		case rt == decides:
			return decides, nil
		case lt == triNull || rt == triNull:
			return triNull, nil
		default: // both operands are the other truth value
			return rt, nil
		}
	}
}

// order3 is the three-way comparison storage.Compare performs, shifted to
// 0 (less), 1 (equal), 2 (greater) so it indexes a cmpOutcomes table. NaN
// is neither less nor greater and so compares equal, as in storage.
func order3[T cmp.Ordered](a, b T) int {
	switch {
	case a < b:
		return 0
	case a > b:
		return 2
	default:
		return 1
	}
}

// cmpOutcomes tabulates a comparison operator by order3 result.
func cmpOutcomes(op BinOp) [3]tri {
	switch op {
	case OpEq:
		return [3]tri{triFalse, triTrue, triFalse}
	case OpNe:
		return [3]tri{triTrue, triFalse, triTrue}
	case OpLt:
		return [3]tri{triTrue, triFalse, triFalse}
	case OpLe:
		return [3]tri{triTrue, triTrue, triFalse}
	case OpGt:
		return [3]tri{triFalse, triFalse, triTrue}
	default: // OpGe
		return [3]tri{triFalse, triTrue, triTrue}
	}
}

// flipCmp mirrors a comparison so its operands can be swapped.
func flipCmp(op BinOp) BinOp {
	switch op {
	case OpLt:
		return OpGt
	case OpLe:
		return OpGe
	case OpGt:
		return OpLt
	case OpGe:
		return OpLe
	default:
		return op
	}
}

// colCmp is a `column <cmp> constant` comparison in one of the value
// classes the kernels specialise: BIGINT/DATE/BOOLEAN against a constant of
// the same type, DOUBLE against a numeric constant, VARCHAR against a
// string. The row kernel (compareKernel) and the block predicate (block.go)
// are both built from it, so they cover exactly the same shapes.
type colCmp struct {
	idx  int
	kind storage.Type // the column's static type: the only non-NULL Kind the fast path accepts
	out  [3]tri       // outcome by order3(column, constant)
	ci   int64        // the constant, in the field kind selects
	cf   float64
	cs   string
}

// colCmp classifies b, constant on either side.
func (b *Binary) colCmp() (colCmp, bool) {
	op, l, r := b.Op, b.L, b.R
	if _, ok := constOf(l); ok {
		op, l, r = flipCmp(op), r, l
	}
	col, ok := l.(*ColRef)
	if !ok {
		return colCmp{}, false
	}
	c, ok := constOf(r)
	if !ok || c.IsNull() {
		return colCmp{}, false
	}
	cc := colCmp{idx: col.Idx, kind: col.Typ, out: cmpOutcomes(op)}
	switch {
	case cc.kind == c.Kind && (cc.kind == storage.TypeInt64 || cc.kind == storage.TypeDate || cc.kind == storage.TypeBool):
		cc.ci = c.I
	case cc.kind == storage.TypeFloat64 && c.Kind.Numeric():
		cc.cf = c.AsFloat()
	case cc.kind == storage.TypeString && c.Kind == storage.TypeString:
		cc.cs = c.S
	default:
		return colCmp{}, false
	}
	return cc, true
}

// compareKernel picks the comparison kernel for b. The specialised shapes
// are column <cmp> constant (colCmp) per value class, and any numeric
// comparison with a DOUBLE side; everything else runs b.compareGeneric.
func (b *Binary) compareKernel() triKernel {
	if cc, ok := b.colCmp(); ok {
		idx, kind, out := cc.idx, cc.kind, cc.out
		switch kind {
		case storage.TypeFloat64:
			cf := cc.cf
			return func(row storage.Row) (tri, error) {
				if idx < len(row) {
					switch v := &row[idx]; v.Kind {
					case storage.TypeFloat64:
						return out[order3(v.F, cf)], nil
					case storage.TypeNull:
						return triNull, nil
					}
				}
				return b.compareGeneric(row)
			}
		case storage.TypeString:
			cs := cc.cs
			return func(row storage.Row) (tri, error) {
				if idx < len(row) {
					switch v := &row[idx]; v.Kind {
					case storage.TypeString:
						return out[order3(v.S, cs)], nil
					case storage.TypeNull:
						return triNull, nil
					}
				}
				return b.compareGeneric(row)
			}
		default:
			ci := cc.ci
			return func(row storage.Row) (tri, error) {
				if idx < len(row) {
					switch v := &row[idx]; v.Kind {
					case kind:
						return out[order3(v.I, ci)], nil
					case storage.TypeNull:
						return triNull, nil
					}
				}
				return b.compareGeneric(row)
			}
		}
	}
	// storage.Compare widens to float64 exactly when a side is DOUBLE at
	// run time; the operands' Kind guards make the static types hold.
	lt, rt := b.L.Type(), b.R.Type()
	if lt.Numeric() && rt.Numeric() && (lt == storage.TypeFloat64 || rt == storage.TypeFloat64) {
		lo, ro := floatOperandFor(b.L), floatOperandFor(b.R)
		out := cmpOutcomes(b.Op)
		return func(row storage.Row) (tri, error) {
			lf, ln, err := lo.load(row)
			if err == nil {
				var rf float64
				var rn bool
				if rf, rn, err = ro.load(row); err == nil {
					if ln || rn {
						return triNull, nil
					}
					return out[order3(lf, rf)], nil
				}
			}
			if err != errFallback {
				return triNull, err
			}
			return b.compareGeneric(row)
		}
	}
	return b.compareGeneric
}

// compareGeneric is the generic comparison kernel: both operands evaluated
// to Values (the right one even when the left is NULL, so its error still
// surfaces) and ordered by storage.Compare.
func (b *Binary) compareGeneric(row storage.Row) (tri, error) {
	lv, err := b.L.Eval(row)
	if err != nil {
		return triNull, err
	}
	rv, err := b.R.Eval(row)
	if err != nil {
		return triNull, err
	}
	if lv.IsNull() || rv.IsNull() {
		return triNull, nil
	}
	return cmpOutcomes(b.Op)[storage.Compare(lv, rv)+1], nil
}

// floatOperand reads one numeric operand as a float64 without building a
// Value. The fast path accepts only the operand's static type (or NULL) as
// the runtime Kind; anything else is errFallback.
type floatOperand struct {
	mode uint8
	kind storage.Type
	idx  int         // opCol
	c    float64     // opConst
	kern floatKernel // opKernel
	e    Expr        // opEval
}

const (
	opEval   uint8 = iota // any expression, through Eval
	opConst               // non-NULL numeric constant
	opCol                 // column reference
	opKernel              // DOUBLE node with a float kernel
)

func floatOperandFor(e Expr) floatOperand {
	o := floatOperand{mode: opEval, kind: e.Type(), e: e}
	if v, ok := constOf(e); ok {
		if v.Kind.Numeric() && v.Kind == o.kind {
			o.mode, o.c = opConst, v.AsFloat()
		}
		return o
	}
	switch n := e.(type) {
	case *ColRef:
		o.mode, o.idx = opCol, n.Idx
	case *Binary:
		if n.flt != nil {
			o.mode, o.kern = opKernel, n.flt
		}
	case *Neg:
		if n.flt != nil {
			o.mode, o.kern = opKernel, n.flt
		}
	}
	return o
}

func (o *floatOperand) load(row storage.Row) (f float64, null bool, err error) {
	switch o.mode {
	case opConst:
		return o.c, false, nil
	case opKernel:
		return o.kern(row)
	case opCol:
		if o.idx >= len(row) {
			return 0, false, errFallback
		}
		return o.widen(&row[o.idx])
	default:
		v, err := o.e.Eval(row)
		if err != nil {
			return 0, false, err
		}
		return o.widen(&v)
	}
}

func (o *floatOperand) widen(v *storage.Value) (f float64, null bool, err error) {
	switch {
	case v.Kind == storage.TypeNull:
		return 0, true, nil
	case v.Kind != o.kind:
		return 0, false, errFallback
	case v.Kind == storage.TypeFloat64:
		return v.F, false, nil
	case v.Kind == storage.TypeInt64:
		return float64(v.I), false, nil
	default:
		return 0, false, errFallback
	}
}

// floatResult adapts a generic evaluation to the float-kernel contract: a
// DOUBLE node that did not produce a DOUBLE sends its consumer to Eval too.
func floatResult(v storage.Value, err error) (float64, bool, error) {
	switch {
	case err != nil:
		return 0, false, err
	case v.Kind == storage.TypeFloat64:
		return v.F, false, nil
	case v.IsNull():
		return 0, true, nil
	default:
		return 0, false, errFallback
	}
}

// arithKernel is DOUBLE arithmetic over two numeric operands. Like the tree
// walk it evaluates the right operand even when the left is NULL, and
// reports division by zero only when neither is.
func (b *Binary) arithKernel() floatKernel {
	op, lo, ro := b.Op, floatOperandFor(b.L), floatOperandFor(b.R)
	return func(row storage.Row) (float64, bool, error) {
		lf, ln, err := lo.load(row)
		if err == nil {
			var rf float64
			var rn bool
			if rf, rn, err = ro.load(row); err == nil {
				switch {
				case ln || rn:
					return 0, true, nil
				case op == OpAdd:
					return lf + rf, false, nil
				case op == OpSub:
					return lf - rf, false, nil
				case op == OpMul:
					return lf * rf, false, nil
				case rf == 0:
					return 0, false, errDivZero
				default:
					return lf / rf, false, nil
				}
			}
		}
		if err != errFallback {
			return 0, false, err
		}
		return floatResult(b.arithGeneric(row))
	}
}
