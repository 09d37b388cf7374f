package exec

import (
	"strings"
	"testing"

	"bufferdb/internal/expr"
	"bufferdb/internal/storage"
	"bufferdb/internal/tpch"
)

// testDB is a tiny shared TPC-H instance.
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

func runPlan(t *testing.T, root Operator) []storage.Row {
	t.Helper()
	rows, err := Run(&Context{Catalog: testDB}, root)
	if err != nil {
		t.Fatalf("Run(%s): %v", root.Name(), err)
	}
	return rows
}

func shipdateFilter(t *testing.T, sch storage.Schema, cutoff string) expr.Expr {
	t.Helper()
	d, err := storage.ParseDate(cutoff)
	if err != nil {
		t.Fatal(err)
	}
	return expr.MustBinary(expr.OpLe, colRef(t, sch, "l_shipdate"), expr.NewConst(d))
}

func TestSeqScanAll(t *testing.T) {
	li := tbl(t, "lineitem")
	rows := runPlan(t, NewSeqScan(li, nil, nil))
	if len(rows) != li.NumRows() {
		t.Errorf("scanned %d rows, table has %d", len(rows), li.NumRows())
	}
}

func TestSeqScanFilter(t *testing.T) {
	li := tbl(t, "lineitem")
	filter := shipdateFilter(t, li.Schema(), "1995-06-17")
	rows := runPlan(t, NewSeqScan(li, filter, nil))

	// Brute-force reference.
	want := 0
	cutoff := storage.DateFromYMD(1995, 6, 17).I
	idx, _ := li.Schema().ColumnIndex("", "l_shipdate")
	for _, r := range li.Rows() {
		if r[idx].I <= cutoff {
			want++
		}
	}
	if len(rows) != want {
		t.Errorf("filter returned %d rows, want %d", len(rows), want)
	}
	if want == 0 || want == li.NumRows() {
		t.Fatalf("degenerate selectivity %d of %d", want, li.NumRows())
	}
	for _, r := range rows {
		if r[idx].I > cutoff {
			t.Fatalf("row %v violates filter", r)
		}
	}
}

func TestSeqScanReopen(t *testing.T) {
	li := tbl(t, "lineitem")
	scan := NewSeqScan(li, nil, nil)
	a := runPlan(t, scan)
	b := runPlan(t, scan)
	if len(a) != len(b) {
		t.Errorf("reopen changed cardinality: %d vs %d", len(a), len(b))
	}
}

func TestNextBeforeOpen(t *testing.T) {
	li := tbl(t, "lineitem")
	ops := []Operator{
		NewSeqScan(li, nil, nil),
		NewSort(NewSeqScan(li, nil, nil), nil, nil),
		NewLimit(NewSeqScan(li, nil, nil), 1),
		NewValues(li.Schema(), nil),
	}
	for _, op := range ops {
		if _, err := op.Next(&Context{Catalog: testDB}); err == nil {
			t.Errorf("%s.Next before Open succeeded", op.Name())
		}
	}
}

func TestIndexLookup(t *testing.T) {
	orders := tbl(t, "orders")
	lu, err := NewIndexLookup(orders, orders.IndexOn("o_orderkey"), nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := &Context{Catalog: testDB}
	if err := lu.Open(ctx); err != nil {
		t.Fatal(err)
	}
	if err := lu.Rescan(storage.NewInt(42)); err != nil {
		t.Fatal(err)
	}
	row, err := lu.Next(ctx)
	if err != nil || row == nil || row[0].I != 42 {
		t.Fatalf("lookup(42) = %v, %v", row, err)
	}
	if row, _ := lu.Next(ctx); row != nil {
		t.Error("unique lookup returned a second row")
	}
	// Missing key.
	if err := lu.Rescan(storage.NewInt(1 << 40)); err != nil {
		t.Fatal(err)
	}
	if row, _ := lu.Next(ctx); row != nil {
		t.Error("lookup of absent key returned a row")
	}
	// Non-int key rejected.
	if err := lu.Rescan(storage.NewString("x")); err == nil {
		t.Error("string rescan key accepted")
	}
	// Non-unique index returns all duplicates.
	li := tbl(t, "lineitem")
	flu, err := NewIndexLookup(li, li.IndexOn("l_orderkey"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := flu.Open(ctx); err != nil {
		t.Fatal(err)
	}
	if err := flu.Rescan(storage.NewInt(42)); err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		row, err := flu.Next(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if row == nil {
			break
		}
		if row[0].I != 42 {
			t.Fatalf("fk lookup returned order %d", row[0].I)
		}
		n++
	}
	if n < 1 || n > 7 {
		t.Errorf("fk lookup(42) returned %d rows", n)
	}
	_ = lu.Close(ctx)
	_ = flu.Close(ctx)
}

func TestIndexFullScanOrdered(t *testing.T) {
	orders := tbl(t, "orders")
	scan, err := NewIndexFullScan(orders, orders.IndexOn("o_orderkey"), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	rows := runPlan(t, scan)
	if len(rows) != orders.NumRows() {
		t.Fatalf("full scan returned %d of %d rows", len(rows), orders.NumRows())
	}
	for i := 1; i < len(rows); i++ {
		if rows[i-1][0].I >= rows[i][0].I {
			t.Fatalf("index scan out of order at %d", i)
		}
	}
}

func TestIndexFullScanFilter(t *testing.T) {
	orders := tbl(t, "orders")
	sch := orders.Schema()
	filter := expr.MustBinary(expr.OpLt, colRef(t, sch, "o_orderkey"), expr.NewConst(storage.NewInt(100)))
	scan, err := NewIndexFullScan(orders, orders.IndexOn("o_orderkey"), filter, nil)
	if err != nil {
		t.Fatal(err)
	}
	rows := runPlan(t, scan)
	if len(rows) != 99 {
		t.Errorf("filtered index scan returned %d rows, want 99", len(rows))
	}
}

// joinReference computes the lineitem ⋈ orders join cardinality directly.
func joinReference(t *testing.T, cutoff string) int {
	t.Helper()
	li := tbl(t, "lineitem")
	c := storage.DateFromYMD(1995, 6, 17)
	if cutoff != "1995-06-17" {
		var err error
		c, err = storage.ParseDate(cutoff)
		if err != nil {
			t.Fatal(err)
		}
	}
	idx, _ := li.Schema().ColumnIndex("", "l_shipdate")
	n := 0
	for _, r := range li.Rows() {
		if r[idx].I <= c.I {
			n++ // every lineitem joins exactly one order
		}
	}
	return n
}

func TestThreeJoinMethodsAgree(t *testing.T) {
	li := tbl(t, "lineitem")
	orders := tbl(t, "orders")
	liSch := li.Schema()
	cutoff := "1995-06-17"
	want := joinReference(t, cutoff)
	outWidth := len(liSch) + len(orders.Schema())

	okey := func() expr.Expr { return colRef(t, liSch, "l_orderkey") }

	// Nested-loop with inner index lookup.
	inner, err := NewIndexLookup(orders, orders.IndexOn("o_orderkey"), nil)
	if err != nil {
		t.Fatal(err)
	}
	nl := NewNestLoopJoin(NewSeqScan(li, shipdateFilter(t, liSch, cutoff), nil), inner, okey(), nil, nil)
	nlRows := runPlan(t, nl)

	// Hash join, build on orders.
	hj := NewHashJoin(
		NewSeqScan(li, shipdateFilter(t, liSch, cutoff), nil),
		NewSeqScan(orders, nil, nil),
		okey(),
		colRef(t, orders.Schema(), "o_orderkey"),
		nil, nil,
	)
	hjRows := runPlan(t, hj)

	// Merge join: sort lineitem by orderkey, index-order scan of orders.
	sorted := NewSort(
		NewSeqScan(li, shipdateFilter(t, liSch, cutoff), nil),
		[]SortKey{{Expr: okey()}},
		nil,
	)
	oscan, err := NewIndexFullScan(orders, orders.IndexOn("o_orderkey"), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	mj := NewMergeJoin(sorted, oscan, okey(), colRef(t, orders.Schema(), "o_orderkey"), nil)
	mjRows := runPlan(t, mj)

	for name, rows := range map[string][]storage.Row{"nestloop": nlRows, "hash": hjRows, "merge": mjRows} {
		if len(rows) != want {
			t.Errorf("%s join returned %d rows, want %d", name, len(rows), want)
		}
		for _, r := range rows {
			if len(r) != outWidth {
				t.Fatalf("%s join row arity %d, want %d", name, len(r), outWidth)
			}
			// Join key consistency: l_orderkey == o_orderkey.
			if r[0].I != r[len(liSch)].I {
				t.Fatalf("%s join mismatched keys: %d vs %d", name, r[0].I, r[len(liSch)].I)
			}
		}
	}
}

func TestSortOrders(t *testing.T) {
	li := tbl(t, "lineitem")
	sch := li.Schema()
	keyIdx, _ := sch.ColumnIndex("", "l_extendedprice")
	s := NewSort(NewSeqScan(li, nil, nil), []SortKey{{Expr: colRef(t, sch, "l_extendedprice"), Desc: true}}, nil)
	rows := runPlan(t, s)
	if len(rows) != li.NumRows() {
		t.Fatalf("sort dropped rows: %d of %d", len(rows), li.NumRows())
	}
	for i := 1; i < len(rows); i++ {
		if rows[i-1][keyIdx].F < rows[i][keyIdx].F {
			t.Fatalf("descending sort violated at %d", i)
		}
	}
}

func TestSortMultiKeyStable(t *testing.T) {
	sch := storage.Schema{
		{Name: "a", Type: storage.TypeInt64},
		{Name: "b", Type: storage.TypeString},
	}
	rows := []storage.Row{
		{storage.NewInt(2), storage.NewString("x")},
		{storage.NewInt(1), storage.NewString("z")},
		{storage.NewInt(2), storage.NewString("a")},
		{storage.NewInt(1), storage.NewString("a")},
	}
	s := NewSort(NewValues(sch, rows), []SortKey{
		{Expr: expr.NewColRef(0, "a", storage.TypeInt64)},
		{Expr: expr.NewColRef(1, "b", storage.TypeString)},
	}, nil)
	got := runPlan(t, s)
	want := "1|a;1|z;2|a;2|x"
	var parts []string
	for _, r := range got {
		parts = append(parts, r.String())
	}
	if strings.Join(parts, ";") != want {
		t.Errorf("sorted = %v, want %s", parts, want)
	}
}

func TestAggregateUngrouped(t *testing.T) {
	li := tbl(t, "lineitem")
	sch := li.Schema()
	qty := colRef(t, sch, "l_quantity")
	agg, err := NewAggregate(NewSeqScan(li, nil, nil), nil, []expr.AggSpec{
		{Func: expr.AggCountStar},
		{Func: expr.AggSum, Arg: qty},
		{Func: expr.AggAvg, Arg: qty},
		{Func: expr.AggMin, Arg: qty},
		{Func: expr.AggMax, Arg: qty},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rows := runPlan(t, agg)
	if len(rows) != 1 {
		t.Fatalf("ungrouped agg returned %d rows", len(rows))
	}
	r := rows[0]
	if r[0].I != int64(li.NumRows()) {
		t.Errorf("COUNT(*) = %d, want %d", r[0].I, li.NumRows())
	}
	// Reference sum.
	idx, _ := sch.ColumnIndex("", "l_quantity")
	var sum float64
	mn, mx := 1e18, -1e18
	for _, row := range li.Rows() {
		v := row[idx].F
		sum += v
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	if got := r[1].F; got != sum {
		t.Errorf("SUM = %v, want %v", got, sum)
	}
	if got := r[2].F; got < mn || got > mx {
		t.Errorf("AVG = %v outside [%v, %v]", got, mn, mx)
	}
	if r[3].F != mn || r[4].F != mx {
		t.Errorf("MIN/MAX = %v/%v, want %v/%v", r[3].F, r[4].F, mn, mx)
	}
}

func TestAggregateGrouped(t *testing.T) {
	li := tbl(t, "lineitem")
	sch := li.Schema()
	agg, err := NewAggregate(
		NewSeqScan(li, nil, nil),
		[]expr.Expr{colRef(t, sch, "l_returnflag"), colRef(t, sch, "l_linestatus")},
		[]expr.AggSpec{{Func: expr.AggCountStar}},
		nil,
	)
	if err != nil {
		t.Fatal(err)
	}
	rows := runPlan(t, agg)
	if len(rows) < 2 || len(rows) > 4 {
		t.Fatalf("grouped agg returned %d groups", len(rows))
	}
	// Counts must add up and output must be key-ordered.
	total := int64(0)
	for i, r := range rows {
		total += r[2].I
		if i > 0 {
			prev, cur := rows[i-1], r
			if storage.Compare(prev[0], cur[0]) > 0 ||
				(storage.Compare(prev[0], cur[0]) == 0 && storage.Compare(prev[1], cur[1]) >= 0) {
				t.Errorf("group output not ordered at %d", i)
			}
		}
	}
	if total != int64(li.NumRows()) {
		t.Errorf("group counts sum to %d, want %d", total, li.NumRows())
	}
}

func TestAggregateEmptyInput(t *testing.T) {
	sch := storage.Schema{{Name: "v", Type: storage.TypeInt64}}
	v := expr.NewColRef(0, "v", storage.TypeInt64)
	agg, err := NewAggregate(NewValues(sch, nil), nil, []expr.AggSpec{
		{Func: expr.AggCountStar},
		{Func: expr.AggSum, Arg: v},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rows := runPlan(t, agg)
	if len(rows) != 1 {
		t.Fatalf("empty-input agg returned %d rows", len(rows))
	}
	if rows[0][0].I != 0 || !rows[0][1].IsNull() {
		t.Errorf("empty-input agg = %v, want 0|NULL", rows[0])
	}
	// Grouped aggregation over empty input yields no rows.
	gagg, err := NewAggregate(NewValues(sch, nil), []expr.Expr{v}, []expr.AggSpec{{Func: expr.AggCountStar}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rows := runPlan(t, gagg); len(rows) != 0 {
		t.Errorf("grouped agg over empty input returned %d rows", len(rows))
	}
	// Aggregate without aggregates is rejected.
	if _, err := NewAggregate(NewValues(sch, nil), nil, nil, nil); err == nil {
		t.Error("aggregate-free Aggregate accepted")
	}
}

func TestMaterialAndLimit(t *testing.T) {
	li := tbl(t, "lineitem")
	if rows := runPlan(t, NewLimit(NewSeqScan(li, nil, nil), 7)); len(rows) != 7 {
		t.Errorf("limit returned %d rows", len(rows))
	}
	if rows := runPlan(t, NewLimit(NewValues(li.Schema(), nil), 7)); len(rows) != 0 {
		t.Errorf("limit over empty input returned %d rows", len(rows))
	}
}

func TestTracer(t *testing.T) {
	sch := storage.Schema{{Name: "v", Type: storage.TypeInt64}}
	var rows []storage.Row
	for i := 0; i < 5; i++ {
		rows = append(rows, storage.Row{storage.NewInt(int64(i))})
	}
	vals := NewValues(sch, rows)
	vals.SetTraceLabel('C')
	agg, err := NewAggregate(vals, nil, []expr.AggSpec{{Func: expr.AggCountStar}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	agg.SetTraceLabel('P')
	tr := NewTracer(64)
	ctx := &Context{Catalog: testDB, Trace: tr}
	if _, err := Run(ctx, agg); err != nil {
		t.Fatal(err)
	}
	// Demand-pull: P then all C's (agg consumes in one Next), then P for EOF.
	got := tr.String()
	if !strings.HasPrefix(got, "PCCCCCC") {
		t.Errorf("trace = %q", got)
	}
	if tr.Legend()['C'] == "" || tr.Legend()['P'] == "" {
		t.Error("legend incomplete")
	}
}

func TestWalk(t *testing.T) {
	li := tbl(t, "lineitem")
	agg, err := NewAggregate(NewSeqScan(li, nil, nil), nil, []expr.AggSpec{{Func: expr.AggCountStar}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	Walk(agg, func(op Operator) { names = append(names, op.Name()) })
	if len(names) != 2 || !strings.HasPrefix(names[0], "Aggregate") || !strings.HasPrefix(names[1], "SeqScan") {
		t.Errorf("Walk visited %q, want the aggregate then its scan", names)
	}
}

func TestArenaWraps(t *testing.T) {
	a := &Arena{base: 1 << 20, size: 1024}
	first := a.Alloc(512)
	if first != 1<<20 {
		t.Errorf("first alloc at %#x", first)
	}
	a.Alloc(512)
	third := a.Alloc(512) // wraps
	if third != 1<<20 {
		t.Errorf("wrap alloc at %#x", third)
	}
	// Oversized allocation clamps rather than overflowing.
	big := a.Alloc(4096)
	if big < 1<<20 || big >= 1<<20+1024 {
		t.Errorf("oversized alloc at %#x", big)
	}
	// Inert arena yields 0.
	inert := &Arena{}
	if inert.Alloc(100) != 0 {
		t.Error("inert arena returned a real address")
	}
}
