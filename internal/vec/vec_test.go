package vec

import (
	"testing"

	"bufferdb/internal/exec"
	"bufferdb/internal/exec/exectest"
	"bufferdb/internal/expr"
	"bufferdb/internal/storage"
	"bufferdb/internal/tpch"
)

var testDB = func() *storage.Catalog {
	cat, err := tpch.Generate(tpch.Config{ScaleFactor: 0.002})
	if err != nil {
		panic(err)
	}
	return cat
}()

func tbl(t *testing.T, name string) *storage.Table {
	t.Helper()
	tb, err := testDB.Table(name)
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

func colRef(t *testing.T, sch storage.Schema, name string) *expr.ColRef {
	t.Helper()
	i, err := sch.ColumnIndex("", name)
	if err != nil || i < 0 {
		t.Fatalf("column %s: %d, %v", name, i, err)
	}
	return expr.NewColRef(i, name, sch[i].Type)
}

func shipdateFilter(t *testing.T, sch storage.Schema) expr.Expr {
	t.Helper()
	d, err := storage.ParseDate("1995-06-17")
	if err != nil {
		t.Fatal(err)
	}
	return expr.MustBinary(expr.OpLe, colRef(t, sch, "l_shipdate"), expr.NewConst(d))
}

func runVec(t *testing.T, op Operator) []storage.Row {
	t.Helper()
	rows, err := exec.Run(&exec.Context{Catalog: testDB}, NewToVolcano(op))
	if err != nil {
		t.Fatalf("%s: %v", op.Name(), err)
	}
	return rows
}

func runVolcano(t *testing.T, op exec.Operator) []storage.Row {
	t.Helper()
	rows, err := exec.Run(&exec.Context{Catalog: testDB}, op)
	if err != nil {
		t.Fatalf("exec.Run(%s): %v", op.Name(), err)
	}
	return rows
}

func assertSameRows(t *testing.T, label string, got, want []storage.Row) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i].String() != want[i].String() {
			t.Fatalf("%s: row %d = %s, want %s", label, i, got[i], want[i])
		}
	}
}

// countSum is the aggregate list used by the aggregation tests.
func countSum(t *testing.T, sch storage.Schema) []expr.AggSpec {
	t.Helper()
	return []expr.AggSpec{
		{Func: expr.AggCountStar},
		{Func: expr.AggSum, Arg: colRef(t, sch, "l_quantity")},
	}
}

// TestSeqScanMatchesVolcano covers filtered and unfiltered scans, with
// batch sizes that do and do not divide the row count.
func TestSeqScanMatchesVolcano(t *testing.T) {
	li := tbl(t, "lineitem")
	for _, size := range []int{0, 1, 7, 1024, li.NumRows() * 2} {
		got := runVec(t, NewSeqScan(li, nil, nil, size))
		assertSameRows(t, "scan", got, runVolcano(t, exec.NewSeqScan(li, nil, nil)))

		got = runVec(t, NewSeqScan(li, shipdateFilter(t, li.Schema()), nil, size))
		assertSameRows(t, "scan+filter", got,
			runVolcano(t, exec.NewSeqScan(li, shipdateFilter(t, li.Schema()), nil)))
	}
}

func TestProjectMatchesVolcano(t *testing.T) {
	li := tbl(t, "lineitem")
	sch := li.Schema()
	exprs := []expr.Expr{colRef(t, sch, "l_orderkey"), colRef(t, sch, "l_quantity")}
	names := []string{"l_orderkey", "l_quantity"}

	vp, err := NewProject(NewSeqScan(li, nil, nil, 64), exprs, names, nil)
	if err != nil {
		t.Fatal(err)
	}
	ep, err := exec.NewProject(exec.NewSeqScan(li, nil, nil), exprs, names, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertSameRows(t, "project", runVec(t, vp), runVolcano(t, ep))
	if vp.Schema().String() != ep.Schema().String() {
		t.Errorf("schema mismatch: %s vs %s", vp.Schema(), ep.Schema())
	}
}

func TestHashAggregateMatchesVolcano(t *testing.T) {
	li := tbl(t, "lineitem")
	sch := li.Schema()
	groupBy := []expr.Expr{colRef(t, sch, "l_returnflag"), colRef(t, sch, "l_linestatus")}

	va, err := NewHashAggregate(NewSeqScan(li, nil, nil, 0), groupBy, countSum(t, sch), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	ea, err := exec.NewAggregate(exec.NewSeqScan(li, nil, nil), groupBy, countSum(t, sch), nil)
	if err != nil {
		t.Fatal(err)
	}
	assertSameRows(t, "agg grouped", runVec(t, va), runVolcano(t, ea))

	// Ungrouped, including over zero input rows.
	va, err = NewHashAggregate(NewSeqScan(li, nil, nil, 0), nil, countSum(t, sch), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	ea, err = exec.NewAggregate(exec.NewSeqScan(li, nil, nil), nil, countSum(t, sch), nil)
	if err != nil {
		t.Fatal(err)
	}
	assertSameRows(t, "agg ungrouped", runVec(t, va), runVolcano(t, ea))

	never, err := storage.ParseDate("1901-01-01")
	if err != nil {
		t.Fatal(err)
	}
	empty := expr.MustBinary(expr.OpLe, colRef(t, sch, "l_shipdate"), expr.NewConst(never))
	va, err = NewHashAggregate(NewSeqScan(li, empty, nil, 0), nil, countSum(t, sch), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	rows := runVec(t, va)
	if len(rows) != 1 {
		t.Fatalf("ungrouped aggregate over empty input: %d rows, want 1", len(rows))
	}
	if rows[0][0].I != 0 {
		t.Errorf("COUNT(*) over empty input = %v, want 0", rows[0][0])
	}
}

func TestHashJoinMatchesVolcano(t *testing.T) {
	li := tbl(t, "lineitem")
	orders := tbl(t, "orders")
	liKey := colRef(t, li.Schema(), "l_orderkey")
	oKey := colRef(t, orders.Schema(), "o_orderkey")

	for _, size := range []int{0, 3, 257} {
		vj := NewHashJoin(NewSeqScan(li, nil, nil, size), NewSeqScan(orders, nil, nil, size),
			liKey, oKey, nil, nil, size)
		ej := exec.NewHashJoin(exec.NewSeqScan(li, nil, nil), exec.NewSeqScan(orders, nil, nil),
			liKey, oKey, nil, nil)
		assertSameRows(t, "hash join", runVec(t, vj), runVolcano(t, ej))
	}
}

func TestLimitMatchesVolcano(t *testing.T) {
	li := tbl(t, "lineitem")
	for _, n := range []int{0, 1, 10, 1500, li.NumRows() + 5} {
		got := runVec(t, NewLimit(NewSeqScan(li, nil, nil, 64), n))
		want := runVolcano(t, exec.NewLimit(exec.NewSeqScan(li, nil, nil), n))
		assertSameRows(t, "limit", got, want)
	}
}

// TestAdaptersRoundTrip pushes rows Volcano → batch → Volcano and asserts
// nothing is lost, duplicated or reordered.
func TestAdaptersRoundTrip(t *testing.T) {
	li := tbl(t, "lineitem")
	want := runVolcano(t, exec.NewSeqScan(li, nil, nil))

	got := runVec(t, NewFromVolcano(exec.NewSeqScan(li, nil, nil), 100, nil))
	assertSameRows(t, "FromVolcano", got, want)

	round := runVolcano(t, NewToVolcano(NewFromVolcano(exec.NewSeqScan(li, nil, nil), 100, nil)))
	assertSameRows(t, "ToVolcano∘FromVolcano", round, want)

	// Batch subtree under a Volcano sort: the mixed-plan shape Compile emits.
	sorted := exec.NewSort(NewToVolcano(NewSeqScan(li, nil, nil, 0)),
		[]exec.SortKey{{Expr: colRef(t, li.Schema(), "l_extendedprice"), Desc: true}}, nil)
	wantSorted := runVolcano(t, exec.NewSort(exec.NewSeqScan(li, nil, nil),
		[]exec.SortKey{{Expr: colRef(t, li.Schema(), "l_extendedprice"), Desc: true}}, nil))
	assertSameRows(t, "Sort over ToVolcano", runVolcano(t, sorted), wantSorted)
}

// TestVecOperatorConformance runs the exec lifecycle harness over every
// batch operator (behind a ToVolcano adapter) and over the adapters
// themselves.
func TestVecOperatorConformance(t *testing.T) {
	li := tbl(t, "lineitem")
	orders := tbl(t, "orders")
	sch := li.Schema()

	cases := map[string]func() exec.Operator{
		"SeqScan": func() exec.Operator {
			return NewToVolcano(NewSeqScan(li, nil, nil, 64))
		},
		"SeqScanPred": func() exec.Operator {
			return NewToVolcano(NewSeqScan(li, shipdateFilter(t, sch), nil, 64))
		},
		"Project": func() exec.Operator {
			p, err := NewProject(NewSeqScan(li, nil, nil, 64),
				[]expr.Expr{colRef(t, sch, "l_orderkey")}, []string{"l_orderkey"}, nil)
			if err != nil {
				t.Fatal(err)
			}
			return NewToVolcano(p)
		},
		"HashAggregate": func() exec.Operator {
			a, err := NewHashAggregate(NewSeqScan(li, nil, nil, 64),
				[]expr.Expr{colRef(t, sch, "l_returnflag")}, countSum(t, sch), nil, 64)
			if err != nil {
				t.Fatal(err)
			}
			return NewToVolcano(a)
		},
		"HashJoin": func() exec.Operator {
			return NewToVolcano(NewHashJoin(
				NewSeqScan(li, nil, nil, 64), NewSeqScan(orders, nil, nil, 64),
				colRef(t, sch, "l_orderkey"), colRef(t, orders.Schema(), "o_orderkey"),
				nil, nil, 64))
		},
		"Limit": func() exec.Operator {
			return NewToVolcano(NewLimit(NewSeqScan(li, nil, nil, 64), 10))
		},
		"FromVolcano": func() exec.Operator {
			return NewToVolcano(NewFromVolcano(exec.NewSeqScan(li, nil, nil), 64, nil))
		},
	}
	for name, mk := range cases {
		t.Run(name, func(t *testing.T) { exectest.Conformance(t, name, mk) })
	}
}

// TestBatchSizes asserts every non-final batch a producer returns is
// exactly its configured size (full batches are what amortize the
// instruction fetch).
func TestBatchSizes(t *testing.T) {
	li := tbl(t, "lineitem")
	const size = 100
	s := NewSeqScan(li, nil, nil, size)
	ctx := &exec.Context{Catalog: testDB}
	if err := s.Open(ctx); err != nil {
		t.Fatal(err)
	}
	var sizes []int
	for {
		b, err := s.NextBatch(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if len(b) == 0 {
			break
		}
		sizes = append(sizes, len(b))
	}
	if err := s.Close(ctx); err != nil {
		t.Fatal(err)
	}
	total := 0
	for i, n := range sizes {
		total += n
		if i < len(sizes)-1 && n != size {
			t.Errorf("batch %d has %d rows, want %d", i, n, size)
		}
	}
	if total != li.NumRows() {
		t.Errorf("batches covered %d rows, want %d", total, li.NumRows())
	}
}
