package exec

import (
	"strings"
	"testing"

	"bufferdb/internal/codemodel"
	"bufferdb/internal/cpusim"
	"bufferdb/internal/expr"
	"bufferdb/internal/storage"
)

// instrumentedCtx builds a context with a live simulated CPU and placed
// tables, exercising every operator's data- and instruction-modeling path.
func instrumentedCtx(t *testing.T, cm *codemodel.Catalog) *Context {
	t.Helper()
	cpu, err := cpusim.New(cpusim.DefaultConfig(), cm.TextSegmentBytes())
	if err != nil {
		t.Fatal(err)
	}
	placements := PlaceCatalog(cpu, testDB)
	return &Context{Catalog: testDB, CPU: cpu, Placements: placements}
}

func TestInstrumentedSeqScanAgg(t *testing.T) {
	cm := codemodel.NewCatalog()
	li := tbl(t, "lineitem")
	filter := shipdateFilter(t, li.Schema(), "1995-06-17")
	scan := NewSeqScan(li, filter, cm.MustModule("SeqScanPred"))
	aggMod, err := cm.AggModule([]string{"count"})
	if err != nil {
		t.Fatal(err)
	}
	agg, err := NewAggregate(scan, nil, []expr.AggSpec{{Func: expr.AggCountStar}}, aggMod)
	if err != nil {
		t.Fatal(err)
	}
	ctx := instrumentedCtx(t, cm)
	rows, err := Run(ctx, agg)
	if err != nil || len(rows) != 1 {
		t.Fatalf("run: %v %v", rows, err)
	}
	ctr := ctx.CPU.Counters()
	if ctr.Uops == 0 || ctr.L1IAccesses == 0 || ctr.Branches == 0 {
		t.Errorf("instruction side not modeled: %+v", ctr)
	}
	if ctr.L1DAccesses == 0 {
		t.Error("data side not modeled")
	}
	// Result must match the uninstrumented run.
	plain := runPlan(t, mustAgg(t, NewSeqScan(li, shipdateFilter(t, li.Schema(), "1995-06-17"), nil)))
	if rows[0].String() != plain[0].String() {
		t.Errorf("instrumentation changed the answer: %s vs %s", rows[0], plain[0])
	}
}

func mustAgg(t *testing.T, child Operator) Operator {
	t.Helper()
	agg, err := NewAggregate(child, nil, []expr.AggSpec{{Func: expr.AggCountStar}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return agg
}

func TestInstrumentedJoinsProduceTraffic(t *testing.T) {
	cm := codemodel.NewCatalog()
	li := tbl(t, "lineitem")
	orders := tbl(t, "orders")
	liKey := colRef(t, li.Schema(), "l_orderkey")
	oKey := colRef(t, orders.Schema(), "o_orderkey")

	// Hash join: bucket traffic must show up as non-sequential accesses.
	hj := NewHashJoin(
		NewSeqScan(li, nil, cm.MustModule("SeqScan")),
		NewSeqScan(orders, nil, cm.MustModule("SeqScan")),
		liKey, oKey,
		cm.MustModule("HashBuild"), cm.MustModule("HashProbe"),
	)
	ctx := instrumentedCtx(t, cm)
	rows, err := Run(ctx, hj)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != li.NumRows() {
		t.Fatalf("hash join rows = %d", len(rows))
	}
	if ctx.CPU.Counters().L1DMisses == 0 {
		t.Error("hash join produced no data-cache misses")
	}

	// Nested loop with instrumented index lookup.
	inner, err := NewIndexLookup(orders, orders.IndexOn("o_orderkey"), cm.MustModule("IndexScan"))
	if err != nil {
		t.Fatal(err)
	}
	nl := NewNestLoopJoin(NewSeqScan(li, nil, cm.MustModule("SeqScan")), inner, colRef(t, li.Schema(), "l_orderkey"), nil, cm.MustModule("NestLoop"))
	ctx2 := instrumentedCtx(t, cm)
	rows, err = Run(ctx2, nl)
	if err != nil || len(rows) != li.NumRows() {
		t.Fatalf("nestloop: %d rows, %v", len(rows), err)
	}

	// Merge join over sort + ordered index scan.
	sorted := NewSort(NewSeqScan(li, nil, cm.MustModule("SeqScan")),
		[]SortKey{{Expr: colRef(t, li.Schema(), "l_orderkey")}}, cm.MustModule("Sort"))
	oscan, err := NewIndexFullScan(orders, orders.IndexOn("o_orderkey"), nil, cm.MustModule("IndexScan"))
	if err != nil {
		t.Fatal(err)
	}
	mj := NewMergeJoin(sorted, oscan, colRef(t, li.Schema(), "l_orderkey"), colRef(t, orders.Schema(), "o_orderkey"), cm.MustModule("MergeJoin"))
	ctx3 := instrumentedCtx(t, cm)
	rows, err = Run(ctx3, mj)
	if err != nil || len(rows) != li.NumRows() {
		t.Fatalf("mergejoin: %d rows, %v", len(rows), err)
	}
	if ctx3.CPU.Counters().Branches == 0 {
		t.Error("sort comparisons issued no branches")
	}
}

func TestInstrumentedFilterProjectMaterial(t *testing.T) {
	cm := codemodel.NewCatalog()
	li := tbl(t, "lineitem")
	sch := li.Schema()
	f := NewFilter(NewSeqScan(li, nil, cm.MustModule("SeqScan")),
		shipdateFilter(t, sch, "1995-06-17"), cm.MustModule("Filter"))
	pr, err := NewProject(f, []expr.Expr{colRef(t, sch, "l_orderkey")}, []string{"k"}, cm.MustModule("Project"))
	if err != nil {
		t.Fatal(err)
	}
	ctx := instrumentedCtx(t, cm)
	rows, err := Run(ctx, pr)
	if err != nil {
		t.Fatal(err)
	}
	want := runPlan(t, NewSeqScan(li, shipdateFilter(t, sch, "1995-06-17"), nil))
	if len(rows) != len(want) {
		t.Errorf("filter+project = %d rows, want %d", len(rows), len(want))
	}
	if len(rows[0]) != 1 {
		t.Errorf("projection width = %d", len(rows[0]))
	}
}

func TestJoinNullKeysSkipped(t *testing.T) {
	schA := storage.Schema{{Name: "k", Type: storage.TypeInt64}}
	schB := storage.Schema{{Name: "k2", Type: storage.TypeInt64}}
	aRows := []storage.Row{
		{storage.NewInt(1)},
		{storage.Null},
		{storage.NewInt(2)},
	}
	bRows := []storage.Row{
		{storage.NewInt(1)},
		{storage.NewInt(2)},
		{storage.Null},
	}
	ka := expr.NewColRef(0, "k", storage.TypeInt64)
	kb := expr.NewColRef(0, "k2", storage.TypeInt64)

	hj := NewHashJoin(NewValues(schA, aRows), NewValues(schB, bRows), ka, kb, nil, nil)
	rows := runPlan(t, hj)
	if len(rows) != 2 {
		t.Errorf("hash join with NULL keys = %d rows, want 2", len(rows))
	}
	mj := NewMergeJoin(NewValues(schA, aRows), NewValues(schB, bRows), ka, kb, nil)
	// Merge join requires sorted inputs; NULLs are skipped during advance,
	// and these inputs are sorted on the non-NULL prefix.
	rows = runPlan(t, mj)
	if len(rows) != 2 {
		t.Errorf("merge join with NULL keys = %d rows, want 2", len(rows))
	}
}

func TestMergeJoinEdgeCases(t *testing.T) {
	sch := storage.Schema{{Name: "k", Type: storage.TypeInt64}}
	k := expr.NewColRef(0, "k", storage.TypeInt64)
	mk := func(vals ...int64) []storage.Row {
		rows := make([]storage.Row, len(vals))
		for i, v := range vals {
			rows[i] = storage.Row{storage.NewInt(v)}
		}
		return rows
	}
	cases := []struct {
		name        string
		left, right []int64
		want        int
	}{
		{"both empty", nil, nil, 0},
		{"left empty", nil, []int64{1, 2}, 0},
		{"right empty", []int64{1, 2}, nil, 0},
		{"no overlap", []int64{1, 2}, []int64{3, 4}, 0},
		{"dup both sides", []int64{1, 1, 2}, []int64{1, 1, 2, 2}, 2*2 + 1*2},
		{"left dups", []int64{5, 5, 5}, []int64{5}, 3},
		{"right tail unmatched", []int64{1}, []int64{1, 9, 10}, 1},
		{"left tail unmatched", []int64{1, 9, 10}, []int64{1}, 1},
	}
	for _, c := range cases {
		var l, r []storage.Row
		if c.left != nil {
			l = mk(c.left...)
		}
		if c.right != nil {
			r = mk(c.right...)
		}
		mj := NewMergeJoin(NewValues(sch, l), NewValues(sch, r), k, k, nil)
		rows := runPlan(t, mj)
		if len(rows) != c.want {
			t.Errorf("%s: %d rows, want %d", c.name, len(rows), c.want)
		}
	}
}

func TestOperatorMetadata(t *testing.T) {
	cm := codemodel.NewCatalog()
	li := tbl(t, "lineitem")
	orders := tbl(t, "orders")
	liKey := colRef(t, li.Schema(), "l_orderkey")
	oKey := colRef(t, orders.Schema(), "o_orderkey")

	inner, err := NewIndexLookup(orders, orders.IndexOn("o_orderkey"), nil)
	if err != nil {
		t.Fatal(err)
	}
	nl := NewNestLoopJoin(NewSeqScan(li, nil, nil), inner, liKey, nil, cm.MustModule("NestLoop"))
	hj := NewHashJoin(NewSeqScan(li, nil, nil), NewSeqScan(orders, nil, nil), liKey, oKey,
		cm.MustModule("HashBuild"), cm.MustModule("HashProbe"))
	mj := NewMergeJoin(NewSeqScan(li, nil, nil), NewSeqScan(orders, nil, nil), liKey, oKey, cm.MustModule("MergeJoin"))
	srt := NewSort(NewSeqScan(li, nil, nil), []SortKey{{Expr: liKey, Desc: true}}, nil)
	fil := NewFilter(NewSeqScan(li, nil, nil), shipdateFilter(t, li.Schema(), "1995-06-17"), nil)
	agg := mustAgg(t, NewSeqScan(li, nil, nil))
	lim := NewLimit(NewSeqScan(li, nil, nil), 3)
	ifs, err := NewIndexFullScan(orders, orders.IndexOn("o_orderkey"), nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	width := len(li.Schema()) + len(orders.Schema())
	cases := []struct {
		op           Operator
		nameContains string
		children     int
		schemaWidth  int
	}{
		{nl, "NestLoopJoin", 2, width},
		{hj, "HashJoin", 2, width},
		{mj, "MergeJoin", 2, width},
		{srt, "Sort", 1, len(li.Schema())},
		{fil, "Filter", 1, len(li.Schema())},
		{agg, "Aggregate", 1, 1},
		{lim, "Limit(3)", 1, len(li.Schema())},
		{ifs, "IndexFullScan", 0, len(orders.Schema())},
		{inner, "IndexLookup", 0, len(orders.Schema())},
	}
	for _, c := range cases {
		if !strings.Contains(c.op.Name(), c.nameContains) {
			t.Errorf("name %q missing %q", c.op.Name(), c.nameContains)
		}
		if len(c.op.Children()) != c.children {
			t.Errorf("%s children = %d, want %d", c.op.Name(), len(c.op.Children()), c.children)
		}
		if len(c.op.Schema()) != c.schemaWidth {
			t.Errorf("%s schema width = %d, want %d", c.op.Name(), len(c.op.Schema()), c.schemaWidth)
		}
	}
	if hj.probeModule != cm.MustModule("HashProbe") || hj.buildModule != cm.MustModule("HashBuild") {
		t.Error("hash join modules wired wrong")
	}
	if mj.module != cm.MustModule("MergeJoin") || nl.module != cm.MustModule("NestLoop") {
		t.Error("join modules wired wrong")
	}
	// Trace labels settable everywhere.
	nl.SetTraceLabel('x')
	hj.SetTraceLabel('x')
	mj.SetTraceLabel('x')
	srt.SetTraceLabel('x')
	fil.SetTraceLabel('x')
	ifs.SetTraceLabel('x')
	inner.SetTraceLabel('x')
}

func TestAggFuncNames(t *testing.T) {
	v := expr.NewColRef(0, "v", storage.TypeInt64)
	got := AggFuncNames([]expr.AggSpec{
		{Func: expr.AggCountStar},
		{Func: expr.AggCount, Arg: v},
		{Func: expr.AggSum, Arg: v},
		{Func: expr.AggAvg, Arg: v},
		{Func: expr.AggMin, Arg: v},
		{Func: expr.AggMax, Arg: v},
	})
	want := "count count sum avg min max"
	if strings.Join(got, " ") != want {
		t.Errorf("AggFuncNames = %v", got)
	}
}

func TestKeyEvalErrors(t *testing.T) {
	sch := storage.Schema{{Name: "s", Type: storage.TypeString}}
	rows := []storage.Row{{storage.NewString("x")}}
	k := expr.NewColRef(0, "s", storage.TypeString)
	hj := NewHashJoin(NewValues(sch, rows), NewValues(sch, rows), k, k, nil, nil)
	ctx := &Context{Catalog: testDB}
	if err := hj.Open(ctx); err == nil {
		// build side evaluates the key during Open
		t.Error("string join key accepted")
	}
}

func TestInstrumentedBranchOutcomesVary(t *testing.T) {
	// The predicate outcome feeds data-dependent branch sites: a highly
	// selective and an unselective scan must produce different
	// misprediction profiles.
	cm := codemodel.NewCatalog()
	li := tbl(t, "lineitem")
	run := func(cutoff string) uint64 {
		ctx := instrumentedCtx(t, cm)
		scan := NewSeqScan(li, shipdateFilter(t, li.Schema(), cutoff), cm.MustModule("SeqScanPred"))
		if _, err := Run(ctx, scan); err != nil {
			t.Fatal(err)
		}
		return ctx.CPU.Counters().Mispredicts
	}
	selective := run("1992-03-01") // almost never true
	balanced := run("1995-06-17")  // ~50/50
	if balanced <= selective {
		t.Errorf("balanced predicate mispredicts (%d) not above selective (%d)", balanced, selective)
	}
}
