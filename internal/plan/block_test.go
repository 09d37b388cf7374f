package plan

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"bufferdb/internal/codemodel"
	"bufferdb/internal/exec"
	"bufferdb/internal/expr"
	"bufferdb/internal/storage"
	"bufferdb/internal/vec"
)

// The block path's differential test: one plan, compiled without a code
// model (the block operator wherever blockAggregate takes it) and against
// one (the row operators, always), must give the same rows bit for bit, or
// the same error, on every engine.

var blockTestTypes = []storage.Type{storage.TypeInt64, storage.TypeFloat64, storage.TypeString,
	storage.TypeDate, storage.TypeBool}

var (
	blockTestInts    = []int64{0, 1, -1, 2, 7, -7, 1 << 53, 1<<53 + 1, math.MaxInt64, math.MinInt64}
	blockTestFloats  = []float64{0, 1, -1, 0.1, 0.2, 0.3, 24, 1e15, -1e15, 1e-9, 1e308, -1e308}
	blockTestStrings = []string{"", "A", "N", "R", "a|b", `x\y`, `\N`, "NULL", "1", "a|", "|b"}
)

func blockTestValue(rng *rand.Rand, t storage.Type) storage.Value {
	switch t {
	case storage.TypeInt64:
		return storage.NewInt(blockTestInts[rng.Intn(len(blockTestInts))])
	case storage.TypeFloat64:
		return storage.NewFloat(blockTestFloats[rng.Intn(len(blockTestFloats))])
	case storage.TypeString:
		return storage.NewString(blockTestStrings[rng.Intn(len(blockTestStrings))])
	case storage.TypeDate:
		return storage.NewDate(int64(8766 + rng.Intn(5)))
	default:
		return storage.NewBool(rng.Intn(2) == 1)
	}
}

// blockTestTable draws a schema of 3–7 columns and 0–2600 rows (so up to
// three blocks): a NULL in any column one time in eight, and — in some
// tables — one row that stores an int in every DOUBLE column, the guard
// miss that sends its whole block back through the row kernels.
func blockTestTable(rng *rand.Rand) *storage.Table {
	schema := make(storage.Schema, 3+rng.Intn(5))
	for i := range schema {
		schema[i] = storage.Column{Table: "t", Name: fmt.Sprintf("c%d", i), Type: blockTestTypes[rng.Intn(len(blockTestTypes))]}
	}
	schema[0].Type = storage.TypeFloat64 // something to aggregate
	t := storage.NewTable("t", schema)
	n := []int{0, 1, 7, 900, 1024, 1025, 2600}[rng.Intn(7)]
	odd := -1
	if n > 0 && rng.Intn(2) == 0 {
		odd = rng.Intn(n)
	}
	for i := 0; i < n; i++ {
		row := make(storage.Row, len(schema))
		for c, col := range schema {
			switch {
			case rng.Intn(8) == 0:
				row[c] = storage.Null
			case i == odd && col.Type == storage.TypeFloat64:
				row[c] = blockTestValue(rng, storage.TypeInt64)
			default:
				row[c] = blockTestValue(rng, col.Type)
			}
		}
		t.MustAppend(row)
	}
	return t
}

func blockTestCol(rng *rand.Rand, scan *Node, want func(storage.Type) bool) *expr.ColRef {
	var fit []int
	for i, c := range scan.Schema() {
		if want(c.Type) {
			fit = append(fit, i)
		}
	}
	if len(fit) == 0 {
		return nil
	}
	i := fit[rng.Intn(len(fit))]
	return expr.NewColRef(i, scan.Schema()[i].QualifiedName(), scan.Schema()[i].Type)
}

func anyType(storage.Type) bool { return true }

// blockTestConjunct draws one WHERE conjunct: mostly `column <cmp> constant`
// (either way round), sometimes a shape the block predicate declines.
func blockTestConjunct(rng *rand.Rand, scan *Node) expr.Expr {
	col := blockTestCol(rng, scan, anyType)
	op := expr.OpEq + expr.BinOp(rng.Intn(6))
	ct := col.Typ
	if ct == storage.TypeFloat64 && rng.Intn(2) == 0 {
		ct = storage.TypeInt64 // DOUBLE column against a BIGINT constant
	}
	c := expr.NewConst(blockTestValue(rng, ct))
	switch rng.Intn(16) {
	case 0:
		return &expr.IsNull{E: col, Negate: rng.Intn(2) == 0}
	case 1:
		not, err := expr.NewNot(expr.MustBinary(op, col, c))
		if err != nil {
			panic(err)
		}
		return not
	case 2:
		return expr.MustBinary(expr.OpOr, expr.MustBinary(op, col, c), expr.MustBinary(expr.OpEq, col, c))
	case 3:
		if other := blockTestCol(rng, scan, func(t storage.Type) bool { return t == col.Typ }); other != nil {
			return expr.MustBinary(op, col, other)
		}
	case 4:
		return expr.MustBinary(op, c, col)
	}
	return expr.MustBinary(op, col, c)
}

// blockTestNumeric draws an aggregate argument: columns, constants and
// + - * over them for the most part, now and then a division or integer
// arithmetic, which have no block kernel, or a column the table lacks.
func blockTestNumeric(rng *rand.Rand, scan *Node, depth int) expr.Expr {
	numeric := func(t storage.Type) bool { return t.Numeric() }
	if rng.Intn(3) > 0 {
		numeric = func(t storage.Type) bool { return t == storage.TypeFloat64 }
	}
	if depth == 0 || rng.Intn(3) == 0 {
		switch rng.Intn(40) {
		case 0:
			// A reference past the row: an error only a selected row raises.
			return expr.NewColRef(len(scan.Schema()), "t.beyond", storage.TypeFloat64)
		case 1, 2, 3, 4, 5, 6, 7, 8, 9:
			return expr.NewConst(blockTestValue(rng, []storage.Type{storage.TypeInt64, storage.TypeFloat64}[rng.Intn(2)]))
		}
		return blockTestCol(rng, scan, numeric)
	}
	op := expr.OpAdd + expr.BinOp(rng.Intn(3))
	if rng.Intn(12) == 0 {
		op = expr.OpDiv
	}
	return expr.MustBinary(op, blockTestNumeric(rng, scan, depth-1), blockTestNumeric(rng, scan, depth-1))
}

func blockTestAggregate(rng *rand.Rand, scan *Node) expr.AggSpec {
	switch rng.Intn(16) {
	case 0:
		return expr.AggSpec{Func: expr.AggCount, Arg: blockTestCol(rng, scan, anyType)}
	case 1:
		return expr.AggSpec{Func: []expr.AggFunc{expr.AggMin, expr.AggMax}[rng.Intn(2)], Arg: blockTestCol(rng, scan, anyType)}
	case 2, 3, 4:
		return expr.AggSpec{Func: expr.AggCountStar}
	case 5, 6:
		return expr.AggSpec{Func: expr.AggCount, Arg: blockTestNumeric(rng, scan, 2)}
	case 7, 8, 9:
		return expr.AggSpec{Func: expr.AggAvg, Arg: blockTestNumeric(rng, scan, 2)}
	default:
		return expr.AggSpec{Func: expr.AggSum, Arg: blockTestNumeric(rng, scan, 2)}
	}
}

// blockTestPlan draws Aggregate(Buffer*(SeqScan(t, filter))), sometimes
// under the Buffer, Project and Limit nodes the compilers look through or
// fuse on their way down to it.
func blockTestPlan(t *testing.T, rng *rand.Rand, table *storage.Table) *Node {
	scan := SeqScan(table, nil)
	if n := rng.Intn(4); n > 0 {
		scan.Filter = blockTestConjunct(rng, scan)
		for ; n > 1; n-- {
			scan.Filter = expr.MustBinary(expr.OpAnd, scan.Filter, blockTestConjunct(rng, scan))
		}
	}
	var groupBy []expr.Expr
	for n := rng.Intn(3); n > 0; n-- {
		want := anyType
		if rng.Intn(4) > 0 {
			want = func(t storage.Type) bool { return t != storage.TypeFloat64 }
		}
		col := blockTestCol(rng, scan, want)
		if col == nil {
			continue
		}
		if col.Typ == storage.TypeInt64 && rng.Intn(6) == 0 {
			groupBy = append(groupBy, expr.MustBinary(expr.OpAdd, col, expr.NewConst(storage.NewInt(1))))
		} else {
			groupBy = append(groupBy, col)
		}
	}
	aggs := make([]expr.AggSpec, 1+rng.Intn(4))
	for i := range aggs {
		aggs[i] = blockTestAggregate(rng, scan)
	}
	in := scan
	for n := rng.Intn(3); n > 0; n-- {
		in = Buffer(in, 0)
	}
	agg, err := Aggregate(in, groupBy, aggs)
	if err != nil {
		t.Fatal(err)
	}
	for n := rng.Intn(4); n > 0; n-- {
		switch rng.Intn(3) {
		case 0:
			agg = Buffer(agg, 0)
		case 1:
			agg = Limit(agg, 1+rng.Intn(3))
		default:
			var exprs []expr.Expr
			var names []string
			for i, c := range agg.Schema() {
				exprs = append(exprs, expr.NewColRef(i, c.Name, c.Type))
				names = append(names, c.Name)
			}
			if agg, err = Project(agg, exprs, names); err != nil {
				t.Fatal(err)
			}
		}
	}
	return agg
}

// blockOutcome is a run's result in a form == compares bit for bit: floats
// by their bits (NaN equals itself, 0 differs from -0), errors by text.
type blockOutcome struct {
	rows [][]string
	err  string
}

func runBlockOutcome(cat *storage.Catalog, op exec.Operator) blockOutcome {
	rows, err := exec.Run(&exec.Context{Catalog: cat}, op)
	if err != nil {
		return blockOutcome{err: err.Error()}
	}
	out := blockOutcome{rows: make([][]string, len(rows))}
	for i, row := range rows {
		for _, v := range row {
			out.rows[i] = append(out.rows[i], fmt.Sprintf("%v/%d/%x/%q", v.Kind, v.I, math.Float64bits(v.F), v.S))
		}
	}
	return out
}

// compilesToBlock reports whether a compiled tree holds the block operator,
// looking through the vec adapters (a push pipeline lists its pulled
// operators among its Children).
func compilesToBlock(op exec.Operator) (found bool) {
	var batch func(vec.Operator)
	var volcano func(exec.Operator)
	volcano = func(o exec.Operator) {
		switch o := o.(type) {
		case *exec.BlockAggregate:
			found = true
		case *vec.ToVolcano:
			batch(o.Child)
		}
		for _, c := range o.Children() {
			volcano(c)
		}
	}
	batch = func(o vec.Operator) {
		if fv, ok := o.(*vec.FromVolcano); ok {
			volcano(fv.Child)
		}
		for _, c := range o.Children() {
			batch(c)
		}
	}
	volcano(op)
	return found
}

func TestBlockAggregateMatchesRowPath(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	cm := codemodel.NewCatalog()
	tables, plansPer := 60, 25
	if testing.Short() {
		tables = 12
	}
	var blocked, declined, failed, blockedFailed int
	for i := 0; i < tables; i++ {
		table := blockTestTable(rng)
		cat := storage.NewCatalog()
		cat.MustAdd(table)
		for j := 0; j < plansPer; j++ {
			p := blockTestPlan(t, rng, table)
			var want blockOutcome
			var onBlock bool
			for k, engine := range Engines() {
				rowOp, err := Compile(p, cm, engine)
				if err != nil {
					t.Fatal(err)
				}
				blockOp, err := Compile(p, nil, engine)
				if err != nil {
					t.Fatal(err)
				}
				if compilesToBlock(rowOp) {
					t.Fatalf("compiled against a code model, yet on the block path:\n%s", Explain(p))
				}
				rows, block := runBlockOutcome(cat, rowOp), runBlockOutcome(cat, blockOp)
				if k == 0 {
					want, onBlock = rows, compilesToBlock(blockOp)
					switch {
					case want.err != "":
						failed++
						if compilesToBlock(blockOp) {
							blockedFailed++
						}
					case compilesToBlock(blockOp):
						blocked++
					default:
						declined++
					}
				}
				if compilesToBlock(blockOp) != onBlock {
					t.Fatalf("%s block path: %v, volcano: %v — one operator, one selection\n%s",
						engine, !onBlock, onBlock, Explain(p))
				}
				if !reflect.DeepEqual(rows, want) {
					t.Fatalf("%s row path differs from volcano's\nplan:\n%s%d rows\n got %v\nwant %v",
						engine, Explain(p), table.NumRows(), rows, want)
				}
				if !reflect.DeepEqual(block, want) {
					t.Fatalf("%s without a code model (block path: %v) differs from the row path\nplan:\n%s%d rows\n got %v\nwant %v",
						engine, compilesToBlock(blockOp), Explain(p), table.NumRows(), block, want)
				}
			}
		}
	}
	t.Logf("%d plans on the block path, %d declined, %d failing with an error (%d of them on the block path)",
		blocked, declined, failed, blockedFailed)
	if blocked == 0 || declined == 0 || failed == blockedFailed || blockedFailed == 0 {
		t.Error("the generator must reach all four")
	}
}
