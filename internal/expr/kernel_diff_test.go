package expr

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"bufferdb/internal/storage"
)

// refEval is the reference interpreter the kernels are checked against: the
// tree-walking evaluator as it stood before nodes compiled kernels, applied
// to the nodes' exported fields only. It never calls a composite node's Eval.
func refEval(e Expr, row storage.Row) (storage.Value, error) {
	switch n := e.(type) {
	case *ColRef:
		if n.Idx >= len(row) {
			return storage.Null, fmt.Errorf("expr: column %s (position %d) out of range for row of arity %d",
				n.Name, n.Idx, len(row))
		}
		return row[n.Idx], nil
	case *Const:
		return n.Val, nil
	case *Binary:
		return refBinary(n, row)
	case *Not:
		v, err := refEval(n.E, row)
		if err != nil || v.IsNull() {
			return storage.Null, err
		}
		return storage.NewBool(!v.Bool()), nil
	case *Neg:
		v, err := refEval(n.E, row)
		if err != nil || v.IsNull() {
			return storage.Null, err
		}
		if v.Kind == storage.TypeInt64 {
			return storage.NewInt(-v.I), nil
		}
		return storage.NewFloat(-v.F), nil
	case *IsNull:
		v, err := refEval(n.E, row)
		if err != nil {
			return storage.Null, err
		}
		return storage.NewBool(v.IsNull() != n.Negate), nil
	case *Like:
		v, err := refEval(n.E, row)
		if err != nil {
			return storage.Null, err
		}
		if v.IsNull() {
			return storage.Null, nil
		}
		return storage.NewBool(likeMatch(n.Pattern, v.S) != n.Negate), nil
	case *Case:
		widen := func(v storage.Value, err error) (storage.Value, error) {
			if err != nil || v.IsNull() {
				return v, err
			}
			if n.Type() == storage.TypeFloat64 && v.Kind == storage.TypeInt64 {
				return storage.NewFloat(float64(v.I)), nil
			}
			return v, nil
		}
		for _, w := range n.Whens {
			v, err := refEval(w.Cond, row)
			if err != nil {
				return storage.Null, err
			}
			if !v.IsNull() && v.Bool() {
				return widen(refEval(w.Then, row))
			}
		}
		if n.Else == nil {
			return storage.Null, nil
		}
		return widen(refEval(n.Else, row))
	default:
		panic(fmt.Sprintf("refEval: unknown node %T", e))
	}
}

func refBinary(b *Binary, row storage.Row) (storage.Value, error) {
	lv, err := refEval(b.L, row)
	if err != nil {
		return storage.Null, err
	}
	if b.Op.IsLogic() {
		// Short circuit: FALSE AND x = FALSE, TRUE OR x = TRUE.
		if !lv.IsNull() {
			if b.Op == OpAnd && !lv.Bool() {
				return storage.NewBool(false), nil
			}
			if b.Op == OpOr && lv.Bool() {
				return storage.NewBool(true), nil
			}
		}
		rv, err := refEval(b.R, row)
		if err != nil {
			return storage.Null, err
		}
		switch {
		case !rv.IsNull() && b.Op == OpAnd && !rv.Bool():
			return storage.NewBool(false), nil
		case !rv.IsNull() && b.Op == OpOr && rv.Bool():
			return storage.NewBool(true), nil
		case lv.IsNull() || rv.IsNull():
			return storage.Null, nil
		case b.Op == OpAnd:
			return storage.NewBool(lv.Bool() && rv.Bool()), nil
		default:
			return storage.NewBool(lv.Bool() || rv.Bool()), nil
		}
	}
	rv, err := refEval(b.R, row)
	if err != nil {
		return storage.Null, err
	}
	if lv.IsNull() || rv.IsNull() {
		return storage.Null, nil
	}
	if b.Op.IsComparison() {
		c := storage.Compare(lv, rv)
		switch b.Op {
		case OpEq:
			return storage.NewBool(c == 0), nil
		case OpNe:
			return storage.NewBool(c != 0), nil
		case OpLt:
			return storage.NewBool(c < 0), nil
		case OpLe:
			return storage.NewBool(c <= 0), nil
		case OpGt:
			return storage.NewBool(c > 0), nil
		default: // OpGe
			return storage.NewBool(c >= 0), nil
		}
	}
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
	if b.Type() == storage.TypeInt64 {
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
			return storage.Null, fmt.Errorf("expr: division by zero")
		}
		return storage.NewFloat(lf / rf), nil
	}
	return storage.Null, fmt.Errorf("expr: unreachable arithmetic %v", b.Op)
}

// outcome is everything one evaluation can produce: a value, an error text,
// or a panic (storage.Compare's, on kinds the analyzer would never pair).
type outcome struct {
	v     storage.Value
	err   string
	panic string
}

func (o outcome) String() string {
	switch {
	case o.panic != "":
		return "panic: " + o.panic
	case o.err != "":
		return "error: " + o.err
	default:
		return fmt.Sprintf("%v %s", o.v.Kind, o.v.String())
	}
}

func evalOutcome(eval func(Expr, storage.Row) (storage.Value, error), e Expr, row storage.Row) (o outcome) {
	defer func() {
		if r := recover(); r != nil {
			o = outcome{panic: fmt.Sprint(r)}
		}
	}()
	v, err := eval(e, row)
	if err != nil {
		return outcome{err: err.Error()}
	}
	if v.Kind == storage.TypeFloat64 {
		v.I = int64(math.Float64bits(v.F)) // NaN-safe, sign-of-zero-exact ==
		v.F = 0
	}
	return outcome{v: v}
}

// choices is the generator's source of decisions: a byte string, so that the
// randomized test (random bytes) and the fuzzer (mutated bytes) drive one
// generator. An exhausted source answers 0, which always picks a leaf.
type choices struct {
	b []byte
}

func (c *choices) next(n int) int {
	if len(c.b) == 0 {
		return 0
	}
	v := int(c.b[0])
	c.b = c.b[1:]
	return v % n
}

// The generated schema: the lineitem columns of the benchmarks, then one
// more of each remaining class.
const (
	genInt2 = liWidth + iota
	genBool
	genString2
	genDate2
	genWidth
)

var genTypes = [genWidth]storage.Type{
	liOrderkey: storage.TypeInt64, liQuantity: storage.TypeFloat64, liExtendedprice: storage.TypeFloat64,
	liDiscount: storage.TypeFloat64, liTax: storage.TypeFloat64, liReturnflag: storage.TypeString,
	liLinestatus: storage.TypeString, liShipdate: storage.TypeDate,
	genInt2: storage.TypeInt64, genBool: storage.TypeBool, genString2: storage.TypeString, genDate2: storage.TypeDate,
}

var (
	genInts    = []int64{0, 1, -1, 7, 24, 1 << 53, 1<<53 + 1, math.MaxInt64, math.MinInt64, -7}
	genFloats  = []float64{0, 1, 0.04, 0.05, 0.06, 24, -1.5, 1e308, -1e308, math.Inf(1), 9007199254740993}
	genStrings = []string{"", "A", "N", "R", "PROMO BRUSHED", "a|b", `x\y`, "NULL", "%_", "AIR"}
	genLikes   = []string{"%", "", "PROMO%", "%BRUSHED", "%O B%", "_", "A", "%_%|%", "P_O%"}
	genDates   = []int64{0, 8766, 8766 + 365, 9131, 10471, -1, math.MaxInt64}
)

func genValue(c *choices, t storage.Type) storage.Value {
	switch t {
	case storage.TypeInt64:
		return storage.NewInt(genInts[c.next(len(genInts))])
	case storage.TypeFloat64:
		return storage.NewFloat(genFloats[c.next(len(genFloats))])
	case storage.TypeString:
		return storage.NewString(genStrings[c.next(len(genStrings))])
	case storage.TypeDate:
		return storage.NewDate(genDates[c.next(len(genDates))])
	default:
		return storage.NewBool(c.next(2) == 1)
	}
}

// genRow draws a row over the generated schema: typed values, NULLs, ints
// stored in DOUBLE columns, and now and then a row cut short.
func genRow(c *choices) storage.Row { return genRowOf(c, true) }

// genRowOf is genRow with the guard-missing rows — an int in a DOUBLE
// column, a short row — left out unless odd.
func genRowOf(c *choices, odd bool) storage.Row {
	row := make(storage.Row, genWidth)
	for i, t := range genTypes {
		switch k := c.next(8); {
		case k == 0:
			row[i] = storage.Null
		case k == 1 && t == storage.TypeFloat64 && odd:
			row[i] = genValue(c, storage.TypeInt64)
		default:
			row[i] = genValue(c, t)
		}
	}
	if odd && c.next(8) == 0 {
		row = row[:c.next(genWidth+1)]
	}
	return row
}

func genCol(c *choices, t storage.Type) Expr {
	var idx []int
	for i, ct := range genTypes {
		if ct == t {
			idx = append(idx, i)
		}
	}
	i := idx[c.next(len(idx))]
	return NewColRef(i, fmt.Sprintf("c%d", i), t)
}

// genLeaf is a column (choice 0, so exhausted input still reads the row), a
// constant or, rarely, a NULL literal.
func genLeaf(c *choices, t storage.Type) Expr {
	switch c.next(8) {
	case 0, 1, 2, 3:
		return genCol(c, t)
	case 4:
		return nullc()
	default:
		return NewConst(genValue(c, t))
	}
}

var numericTypes = []storage.Type{storage.TypeInt64, storage.TypeFloat64}

// genExpr draws a well-typed tree of static type t. A constructor that
// rejects a drawn combination yields a leaf instead.
func genExpr(c *choices, t storage.Type, depth int) Expr {
	if depth <= 0 {
		return genLeaf(c, t)
	}
	or := func(e Expr, err error) Expr {
		if err != nil || e.Type() != t && e.Type() != storage.TypeNull {
			return genLeaf(c, t)
		}
		return e
	}
	sub := func(t storage.Type) Expr { return genExpr(c, t, depth-1) }
	if k := c.next(8); k == 0 {
		return genLeaf(c, t)
	} else if k == 1 {
		whens := make([]When, 1+c.next(2))
		for i := range whens {
			whens[i] = When{Cond: sub(storage.TypeBool), Then: sub(t)}
		}
		var els Expr
		if c.next(2) == 1 {
			els = sub(t)
		}
		return or(NewCase(whens, els))
	}
	switch t {
	case storage.TypeBool:
		switch c.next(6) {
		case 0:
			return or(NewBinary(OpAnd+BinOp(c.next(2)), sub(t), sub(t)))
		case 1:
			return or(NewNot(sub(t)))
		case 2:
			operand := []storage.Type{storage.TypeInt64, storage.TypeFloat64, storage.TypeString,
				storage.TypeDate, storage.TypeBool}[c.next(5)]
			return &IsNull{E: sub(operand), Negate: c.next(2) == 1}
		case 3:
			return or(NewLike(sub(storage.TypeString), genLikes[c.next(len(genLikes))], c.next(2) == 1))
		default:
			op := OpEq + BinOp(c.next(6))
			switch c.next(5) {
			case 0:
				return or(NewBinary(op, sub(storage.TypeString), sub(storage.TypeString)))
			case 1:
				return or(NewBinary(op, sub(storage.TypeDate), sub(storage.TypeDate)))
			case 2:
				return or(NewBinary(op, sub(storage.TypeBool), sub(storage.TypeBool)))
			default:
				return or(NewBinary(op, sub(numericTypes[c.next(2)]), sub(numericTypes[c.next(2)])))
			}
		}
	case storage.TypeInt64:
		switch c.next(4) {
		case 0:
			return or(NewNeg(sub(t)))
		case 1:
			return or(NewBinary(OpSub, sub(storage.TypeDate), sub(storage.TypeDate)))
		default:
			return or(NewBinary(OpAdd+BinOp(c.next(3)), sub(t), sub(t)))
		}
	case storage.TypeFloat64:
		if c.next(4) == 0 {
			return or(NewNeg(sub(t)))
		}
		// A DOUBLE result needs a DOUBLE operand, except for division.
		return or(NewBinary(OpAdd+BinOp(c.next(4)), sub(numericTypes[c.next(2)]), sub(numericTypes[c.next(2)])))
	case storage.TypeDate:
		if c.next(3) == 0 {
			return or(NewBinary(OpAdd, sub(storage.TypeInt64), sub(t)))
		}
		return or(NewBinary(OpAdd+BinOp(c.next(2)), sub(t), sub(storage.TypeInt64)))
	default:
		return genLeaf(c, t)
	}
}

// tpchPredicates are the WHERE clauses of the served TPC-H classes, as the
// analyzer builds them over the lineitem columns.
func tpchPredicates() []Expr {
	neg, _ := NewNeg(intc(7))
	promo, _ := NewLike(NewColRef(genString2, "p_type", storage.TypeString), "PROMO%", false)
	return []Expr{
		q6Predicate(),
		and(MustBinary(OpLe, lineitemCol(liShipdate), MustBinary(OpSub, datec(1998, 12, 1), intc(90))),
			MustBinary(OpNe, lineitemCol(liOrderkey), neg)),
		and(MustBinary(OpEq, lineitemCol(liReturnflag), strc("R")),
			MustBinary(OpGt, lineitemCol(liShipdate), datec(1995, 3, 15))),
		MustBinary(OpGt, MustBinary(OpMul, lineitemCol(liExtendedprice), MustBinary(OpSub, intc(1), lineitemCol(liDiscount))), intc(1000)),
		promo,
	}
}

// genBlockPred draws a WHERE clause of the shape the block predicate
// covers — an AND-chain of column-constant comparisons, the constant on
// either side — with now and then a conjunct from the general generator.
func genBlockPred(c *choices) Expr {
	var out Expr
	for n := 1 + c.next(4); n > 0; n-- {
		var e Expr
		if c.next(8) == 0 {
			e = genExpr(c, storage.TypeBool, 2)
		} else {
			t := []storage.Type{storage.TypeInt64, storage.TypeFloat64, storage.TypeString, storage.TypeDate,
				storage.TypeBool}[c.next(5)]
			col, ct := genCol(c, t), t
			if t == storage.TypeFloat64 && c.next(2) == 0 {
				ct = storage.TypeInt64
			}
			l, r := col, Expr(NewConst(genValue(c, ct)))
			if c.next(4) == 0 {
				l, r = r, l
			}
			e = MustBinary(OpEq+BinOp(c.next(6)), l, r)
		}
		if out == nil {
			out = e
		} else {
			out = MustBinary(OpAnd, out, e)
		}
	}
	return out
}

// genBlockFloat draws a numeric expression of the shape the block float
// kernel covers — + - * over numeric columns and constants — with now and
// then a division or a subtree from the general generator.
func genBlockFloat(c *choices, depth int) Expr {
	t := numericTypes[min(c.next(4), 1)] // DOUBLE three times in four
	if depth <= 0 || c.next(3) == 0 {
		if c.next(4) == 0 {
			return NewConst(genValue(c, t))
		}
		return genCol(c, t)
	}
	if c.next(8) == 0 {
		return genExpr(c, t, 2)
	}
	op := OpAdd + BinOp(c.next(3))
	if c.next(12) == 0 {
		op = OpDiv
	}
	return MustBinary(op, genBlockFloat(c, depth-1), genBlockFloat(c, depth-1))
}

// genCase decodes one fuzz input into an expression and a row: the first
// byte picks a TPC-H predicate, a generated tree of some type, or one of
// the block kernels' shapes.
func genCase(data []byte) (Expr, storage.Row) {
	e, c := genCaseExpr(data)
	return e, genRow(c)
}

func genCaseExpr(data []byte) (Expr, *choices) {
	c := &choices{b: data}
	preds := tpchPredicates()
	types := []storage.Type{storage.TypeBool, storage.TypeBool, storage.TypeFloat64, storage.TypeInt64,
		storage.TypeString, storage.TypeDate}
	var e Expr
	switch k := c.next(len(preds) + len(types) + 2); {
	case k < len(preds):
		e = preds[k]
	case k < len(preds)+len(types):
		e = genExpr(c, types[k-len(preds)], 1+c.next(4))
	case k == len(preds)+len(types):
		e = genBlockPred(c)
	default:
		e = genBlockFloat(c, 1+c.next(3))
	}
	return e, c
}

// genBlock draws a block: a few rows — every other block free of the rows
// that miss a guard — and an ascending selection of them.
func genBlock(c *choices) (rows []storage.Row, sel []int32) {
	odd := c.next(2) == 1
	rows = make([]storage.Row, c.next(10))
	for i := range rows {
		rows[i] = genRowOf(c, odd)
		if c.next(4) != 0 {
			sel = append(sel, int32(i))
		}
	}
	return rows, sel
}

// checkBlock asserts block kernel ≡ reference on e over the selected rows
// of a block: when e has a block kernel and it reports no guard miss, the
// reference raises nothing on any selected row and agrees on every one —
// which rows a predicate keeps; the value, or NULL, of a float expression
// to the bit. It reports whether such a comparison took place.
func checkBlock(t *testing.T, e Expr, rows []storage.Row, sel []int32) bool {
	t.Helper()
	ref := make([]outcome, len(sel))
	for j, i := range sel {
		ref[j] = evalOutcome(refEval, e, rows[i])
	}
	fail := func(j int, got any) {
		t.Helper()
		t.Fatalf("block kernel diverges from the reference\nexpr: %s\nrows: %v\nsel:  %v\nat selected row %d: kernel %v, reference %v",
			e, rows, sel, j, got, ref[j])
	}
	if p := NewBlockPred(e); p != nil {
		kept, ok := p.Select(rows, append([]int32(nil), sel...))
		if !ok {
			return false
		}
		for j, i := range sel {
			got := len(kept) > 0 && kept[0] == i
			if got {
				kept = kept[1:]
			}
			if o := ref[j]; o.err != "" || o.panic != "" || got != (!o.v.IsNull() && o.v.Bool()) {
				fail(j, got)
			}
		}
		if len(kept) > 0 {
			t.Fatalf("block predicate %s kept rows outside its selection %v: %v", e, sel, kept)
		}
		return true
	}
	if k := newBlockFloat(e); k != nil {
		var m nullMask
		vals := k.eval(rows, sel, &m)
		if vals == nil {
			return false
		}
		if len(vals) != len(sel) {
			t.Fatalf("block float kernel %s: %d values for %d selected rows", e, len(vals), len(sel))
		}
		for j := range sel {
			got := outcome{v: storage.Null}
			if !m.null(j) {
				got = evalOutcome(func(Expr, storage.Row) (storage.Value, error) { return storage.NewFloat(vals[j]), nil }, nil, nil)
			}
			// A BIGINT column is the one non-DOUBLE node with a block float
			// kernel: the kernel widens it, as its consumers would.
			want := ref[j]
			if want.v.Kind == storage.TypeInt64 {
				want.v = storage.Value{Kind: storage.TypeFloat64, I: int64(math.Float64bits(float64(want.v.I)))}
			}
			if got != want {
				fail(j, got)
			}
		}
		return true
	}
	return false
}

// checkKernel asserts kernel ≡ reference on e over row: Eval on value and
// error text, and EvalBool on predicates.
func checkKernel(t *testing.T, e Expr, row storage.Row) {
	t.Helper()
	want := evalOutcome(refEval, e, row)
	got := evalOutcome(Expr.Eval, e, row)
	if got != want {
		t.Fatalf("Eval diverges from the reference\nexpr: %s\nrow:  %v\nkernel:    %v\nreference: %v", e, row, got, want)
	}
	if e.Type() != storage.TypeBool {
		return
	}
	ok, err := EvalBool(e, row)
	switch {
	case want.panic != "":
	case want.err != "":
		if err == nil || err.Error() != want.err {
			t.Fatalf("EvalBool(%s) on %v: error %v, reference %q", e, row, err, want.err)
		}
	case err != nil || ok != (!want.v.IsNull() && want.v.Bool()):
		t.Fatalf("EvalBool(%s) on %v = %v, %v; reference %v", e, row, ok, err, want)
	}
}

func randomBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}

// TestKernelMatchesReference is the differential test: random well-typed
// trees over every node kind, each evaluated on random rows.
func TestKernelMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	trees := 4000
	if testing.Short() {
		trees = 500
	}
	kinds := map[string]int{}
	var preds, floats int
	for i := 0; i < trees; i++ {
		data := randomBytes(rng, 96)
		e, _ := genCase(data)
		kinds[fmt.Sprintf("%T", e)]++
		for j := 0; j < 12; j++ {
			checkKernel(t, e, genRow(&choices{b: randomBytes(rng, 3*genWidth)}))
		}
		for j := 0; j < 4; j++ {
			rows, sel := genBlock(&choices{b: randomBytes(rng, 40*genWidth)})
			if checkBlock(t, e, rows, sel) {
				if e.Type() == storage.TypeBool {
					preds++
				} else {
					floats++
				}
			}
		}
	}
	if preds < trees/20 || floats < trees/20 {
		t.Errorf("block kernels compared on %d predicates and %d float expressions of %d trees", preds, floats, trees)
	}
	for _, k := range []string{"*expr.Binary", "*expr.Not", "*expr.Neg", "*expr.IsNull", "*expr.Like", "*expr.Case", "*expr.ColRef", "*expr.Const"} {
		if kinds[k] == 0 {
			t.Errorf("generator never produced a %s root", k)
		}
	}
}

// FuzzExprKernel lets the fuzzer drive the same generator; the seed corpus
// is the TPC-H predicates plus a few random trees.
func FuzzExprKernel(f *testing.F) {
	for i := range tpchPredicates() {
		f.Add([]byte{byte(i)})
		f.Add([]byte{byte(i), 2, 1, 3, 2, 5, 2, 1, 2, 4, 2, 2, 2, 1, 2, 1, 2, 3, 2, 0, 2, 2, 2, 6, 2, 0})
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 16; i++ {
		f.Add(randomBytes(rng, 64))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		e, c := genCaseExpr(data)
		checkKernel(t, e, genRow(c))
		rows, sel := genBlock(c)
		checkBlock(t, e, rows, sel)
	})
}

// TestConstantFolding pins rule (c): column-free subtrees are folded, a
// folded tree renders as it always did, and a subtree that errors is left
// to fail when a row is evaluated.
func TestConstantFolding(t *testing.T) {
	margin := MustBinary(OpSub, floatc(0.05), floatc(0.01))
	if v, ok := constOf(margin); !ok || v.Kind != storage.TypeFloat64 || v.F != 0.05-0.01 {
		t.Errorf("0.05 - 0.01 not folded: %v %v", v, ok)
	}
	pred := MustBinary(OpGe, lineitemCol(liDiscount), margin)
	if got, want := pred.String(), "(l_discount >= (0.05 - 0.01))"; got != want {
		t.Errorf("folded predicate renders %q, want %q", got, want)
	}
	if _, ok := constOf(pred); ok {
		t.Error("a predicate over a column was folded")
	}

	div := MustBinary(OpDiv, intc(1), intc(0))
	if _, ok := constOf(div); ok {
		t.Error("1/0 was folded")
	}
	bad := MustBinary(OpGt, lineitemCol(liOrderkey), div)
	row := lineitemRows(1)[0]
	for name, eval := range map[string]func() error{
		"Eval":     func() error { _, err := bad.Eval(row); return err },
		"EvalBool": func() error { _, err := EvalBool(bad, row); return err },
	} {
		if err := eval(); err == nil || err.Error() != "expr: division by zero" {
			t.Errorf("%s(x > 1/0) = %v, want division by zero", name, err)
		}
	}
	// Short-circuit still hides the error exactly where the tree walk did.
	if ok, err := EvalBool(MustBinary(OpAnd, boolc(false), bad), row); ok || err != nil {
		t.Errorf("FALSE AND x > 1/0 = %v, %v", ok, err)
	}
}

// refAggregate folds rows into spec the way the accumulators did when they
// evaluated every argument to a Value.
func refAggregate(spec AggSpec, rows []storage.Row) (storage.Value, error) {
	var n int64
	var sumI int64
	var sumF float64
	for _, row := range rows {
		v, err := refEval(spec.Arg, row)
		if err != nil {
			return storage.Null, err
		}
		if v.IsNull() {
			continue
		}
		n++
		sumI += v.I
		sumF += v.AsFloat()
	}
	switch {
	case n == 0:
		return storage.Null, nil
	case spec.Func == AggAvg:
		return storage.NewFloat(sumF / float64(n)), nil
	case spec.Arg.Type() == storage.TypeInt64:
		return storage.NewInt(sumI), nil
	default:
		return storage.NewFloat(sumF), nil
	}
}

// TestFloatKernelAggregates checks SUM and AVG fed by the float kernel
// against the Value path: NULL skipping, ints widened, SUM over no rows,
// integer SUM untouched, errors passed through.
func TestFloatKernelAggregates(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for i := 0; i < 1500; i++ {
		c := &choices{b: randomBytes(rng, 64)}
		spec := AggSpec{Func: []AggFunc{AggSum, AggAvg}[c.next(2)],
			Arg: genExpr(c, numericTypes[c.next(2)], c.next(4))}
		rows := make([]storage.Row, rng.Intn(6))
		for j := range rows {
			rows[j] = genRow(&choices{b: randomBytes(rng, 3*genWidth)})
		}
		acc, err := NewAccumulator(spec)
		if err != nil {
			t.Fatal(err)
		}
		var got outcome
		for _, row := range rows {
			if err := acc.Add(row); err != nil {
				got = outcome{err: err.Error()}
				break
			}
		}
		if got.err == "" {
			got = evalOutcome(func(Expr, storage.Row) (storage.Value, error) { return acc.Result(), nil }, nil, nil)
		}
		want := evalOutcome(func(Expr, storage.Row) (storage.Value, error) { return refAggregate(spec, rows) }, nil, nil)
		if got != want {
			t.Fatalf("%s over %v\naccumulator: %v\nreference:   %v", spec, rows, got, want)
		}
	}
}
