package plan

import (
	"reflect"
	"strings"
	"testing"

	"bufferdb/internal/codemodel"
	"bufferdb/internal/exec"
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

func shipdateBefore(t *testing.T, table *storage.Table, date string) expr.Expr {
	t.Helper()
	d, err := storage.ParseDate(date)
	if err != nil {
		t.Fatal(err)
	}
	i, _ := table.Schema().ColumnIndex("", "l_shipdate")
	return expr.MustBinary(expr.OpLe,
		expr.NewColRef(i, "l_shipdate", storage.TypeDate), expr.NewConst(d))
}

// q1Plan builds the paper's Query 1 shape.
func q1Plan(t *testing.T) *Node {
	t.Helper()
	li := tbl(t, "lineitem")
	scan := SeqScan(li, shipdateBefore(t, li, "1998-09-02"))
	price := MustCol(scan, "l_extendedprice")
	qty := MustCol(scan, "l_quantity")
	agg, err := Aggregate(scan, nil, []expr.AggSpec{
		{Func: expr.AggSum, Arg: price, As: "sum_charge"},
		{Func: expr.AggAvg, Arg: qty, As: "avg_qty"},
		{Func: expr.AggCountStar, As: "count_order"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return agg
}

func TestEstimates(t *testing.T) {
	li := tbl(t, "lineitem")
	all := SeqScan(li, nil)
	if all.EstRows != float64(li.NumRows()) {
		t.Errorf("unfiltered scan estimate %v, want %d", all.EstRows, li.NumRows())
	}
	half := SeqScan(li, shipdateBefore(t, li, "1995-06-17"))
	frac := half.EstRows / float64(li.NumRows())
	if frac < 0.3 || frac > 0.7 {
		t.Errorf("mid-cutoff selectivity estimate %v", frac)
	}
	none := SeqScan(li, shipdateBefore(t, li, "1970-01-01"))
	if none.EstRows <= 0 || none.EstRows > 50 {
		t.Errorf("empty-range estimate %v, want small positive", none.EstRows)
	}

	orders := tbl(t, "orders")
	pk, err := IndexLookup(orders, orders.IndexOn("o_orderkey"))
	if err != nil {
		t.Fatal(err)
	}
	if pk.EstRows != 1 {
		t.Errorf("unique index lookup estimate %v, want 1", pk.EstRows)
	}
	fk, err := IndexLookup(li, li.IndexOn("l_orderkey"))
	if err != nil {
		t.Fatal(err)
	}
	if fk.EstRows < 1.5 || fk.EstRows > 7 {
		t.Errorf("fk rows-per-key estimate %v, want ≈ 4", fk.EstRows)
	}
	if _, err := IndexLookup(li, nil); err == nil {
		t.Error("IndexLookup without index accepted")
	}
}

func TestAggregateNodeSchema(t *testing.T) {
	agg := q1Plan(t)
	sch := agg.Schema()
	if len(sch) != 3 || sch[0].Name != "sum_charge" || sch[2].Name != "count_order" {
		t.Errorf("agg schema = %v", sch)
	}
	if agg.EstRows != 1 {
		t.Errorf("ungrouped agg estimate %v", agg.EstRows)
	}
	li := tbl(t, "lineitem")
	scan := SeqScan(li, nil)
	g, err := Aggregate(scan, []expr.Expr{MustCol(scan, "l_returnflag")},
		[]expr.AggSpec{{Func: expr.AggCountStar}})
	if err != nil {
		t.Fatal(err)
	}
	if g.EstRows <= 1 || len(g.Schema()) != 2 {
		t.Errorf("grouped agg: est %v schema %v", g.EstRows, g.Schema())
	}
}

func TestExplain(t *testing.T) {
	out := Explain(q1Plan(t))
	if !strings.Contains(out, "Aggregate") || !strings.Contains(out, "SeqScan(lineitem") {
		t.Errorf("Explain = %q", out)
	}
	if !strings.Contains(out, "rows≈") {
		t.Error("Explain missing estimates")
	}
}

func TestBuildAndRunQ1(t *testing.T) {
	op, err := Compile(q1Plan(t), nil, EngineVolcano)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := exec.Run(&exec.Context{Catalog: testDB}, op)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][2].I == 0 {
		t.Errorf("Q1 = %v", rows)
	}
}

// buildJoinPlans constructs the paper's three Query 3 join variants.
func buildJoinPlans(t *testing.T) map[string]*Node {
	t.Helper()
	li := tbl(t, "lineitem")
	orders := tbl(t, "orders")
	filter := shipdateBefore(t, li, "1995-06-17")

	aggOver := func(join *Node) *Node {
		total := MustCol(join, "o_totalprice")
		disc := MustCol(join, "l_discount")
		agg, err := Aggregate(join, nil, []expr.AggSpec{
			{Func: expr.AggSum, Arg: total},
			{Func: expr.AggCountStar},
			{Func: expr.AggAvg, Arg: disc},
		})
		if err != nil {
			t.Fatal(err)
		}
		return agg
	}

	// Nested loop.
	scan1 := SeqScan(li, filter)
	inner, err := IndexLookup(orders, orders.IndexOn("o_orderkey"))
	if err != nil {
		t.Fatal(err)
	}
	nl, err := NestLoopJoin(scan1, inner, MustCol(scan1, "l_orderkey"), nil)
	if err != nil {
		t.Fatal(err)
	}

	// Hash join.
	scan2 := SeqScan(li, filter)
	oscan := SeqScan(orders, nil)
	hj := HashJoin(scan2, oscan, MustCol(scan2, "l_orderkey"), MustCol(oscan, "o_orderkey"))

	// Merge join.
	scan3 := SeqScan(li, filter)
	sorted := Sort(scan3, []exec.SortKey{{Expr: MustCol(scan3, "l_orderkey")}})
	oidx, err := IndexFullScan(orders, orders.IndexOn("o_orderkey"), nil)
	if err != nil {
		t.Fatal(err)
	}
	mj := MergeJoin(sorted, oidx, MustCol(sorted, "l_orderkey"), MustCol(oidx, "o_orderkey"))

	return map[string]*Node{
		"nestloop": aggOver(nl),
		"hash":     aggOver(hj),
		"merge":    aggOver(mj),
	}
}

func TestJoinPlansAgree(t *testing.T) {
	plans := buildJoinPlans(t)
	var want string
	for name, p := range plans {
		op, err := Compile(p, nil, EngineVolcano)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rows, err := exec.Run(&exec.Context{Catalog: testDB}, op)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(rows) != 1 {
			t.Fatalf("%s returned %d rows", name, len(rows))
		}
		got := rows[0].String()
		if want == "" {
			want = got
		} else if got != want {
			t.Errorf("%s result %q differs from %q", name, got, want)
		}
	}
}

func TestRefineQ1InsertsBuffer(t *testing.T) {
	cm := codemodel.NewCatalog()
	refined, res, err := Refine(q1Plan(t), cm, RefineOptions{CardinalityThreshold: 100})
	if err != nil {
		t.Fatal(err)
	}
	if CountKind(refined, KindBuffer) != 1 {
		t.Fatalf("refined Q1 has %d buffers, want 1:\n%s", CountKind(refined, KindBuffer), Explain(refined))
	}
	// The buffer sits between the aggregate and the scan.
	if refined.Kind != KindAggregate || refined.Children[0].Kind != KindBuffer ||
		refined.Children[0].Children[0].Kind != KindSeqScan {
		t.Errorf("refined shape wrong:\n%s", Explain(refined))
	}
	if len(res.Groups) != 2 {
		t.Errorf("groups = %d, want 2\n%s", len(res.Groups), res)
	}
	// The original plan is untouched.
	if CountKind(q1Plan(t), KindBuffer) != 0 {
		t.Error("Refine mutated its input")
	}
}

func TestRefineQ2NoBuffer(t *testing.T) {
	cm := codemodel.NewCatalog()
	li := tbl(t, "lineitem")
	scan := SeqScan(li, shipdateBefore(t, li, "1998-09-02"))
	agg, err := Aggregate(scan, nil, []expr.AggSpec{{Func: expr.AggCountStar}})
	if err != nil {
		t.Fatal(err)
	}
	refined, _, err := Refine(agg, cm, RefineOptions{CardinalityThreshold: 100})
	if err != nil {
		t.Fatal(err)
	}
	if CountKind(refined, KindBuffer) != 0 {
		t.Errorf("refined Q2 has buffers:\n%s", Explain(refined))
	}
}

func TestRefineJoinPlans(t *testing.T) {
	cm := codemodel.NewCatalog()
	plans := buildJoinPlans(t)

	// Nested loop: exactly one buffer (above the join), none above the
	// inner index lookup.
	nl, _, err := Refine(plans["nestloop"], cm, RefineOptions{CardinalityThreshold: 100})
	if err != nil {
		t.Fatal(err)
	}
	if CountKind(nl, KindBuffer) != 1 {
		t.Errorf("nestloop buffers = %d, want 1:\n%s", CountKind(nl, KindBuffer), Explain(nl))
	}
	// Hash join: buffers above both scans and above the probe.
	hj, _, err := Refine(plans["hash"], cm, RefineOptions{CardinalityThreshold: 100})
	if err != nil {
		t.Fatal(err)
	}
	if CountKind(hj, KindBuffer) != 3 {
		t.Errorf("hash buffers = %d, want 3:\n%s", CountKind(hj, KindBuffer), Explain(hj))
	}
	// Merge join: buffers above lineitem scan (below sort), the index
	// scan, and the join; never above the sort itself.
	mj, _, err := Refine(plans["merge"], cm, RefineOptions{CardinalityThreshold: 100})
	if err != nil {
		t.Fatal(err)
	}
	if CountKind(mj, KindBuffer) != 3 {
		t.Errorf("merge buffers = %d, want 3:\n%s", CountKind(mj, KindBuffer), Explain(mj))
	}
	Walk(mj, func(n *Node) {
		if n.Kind == KindBuffer && n.Children[0].Kind == KindSort {
			t.Error("buffer above blocking sort")
		}
	})

	// Refined plans still compute the same answers.
	for name, p := range map[string]*Node{"nl": nl, "hj": hj, "mj": mj} {
		op, err := Compile(p, nil, EngineVolcano)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rows, err := exec.Run(&exec.Context{Catalog: testDB}, op)
		if err != nil || len(rows) != 1 {
			t.Fatalf("%s: %v %v", name, rows, err)
		}
	}
}

func TestBuildErrors(t *testing.T) {
	li := tbl(t, "lineitem")
	orders := tbl(t, "orders")
	// Nest-loop inner must be an IndexLookup node.
	scan := SeqScan(li, nil)
	if _, err := NestLoopJoin(scan, SeqScan(orders, nil), MustCol(scan, "l_orderkey"), nil); err == nil {
		t.Error("nest-loop over seq-scan inner accepted")
	}
	// A bare HashBuild cannot compile.
	hb := &Node{Kind: KindHashBuild, Children: []*Node{SeqScan(orders, nil)}}
	if _, err := Compile(hb, nil, EngineVolcano); err == nil {
		t.Error("bare HashBuild compiled")
	}
	// Refine requires a code model.
	if _, _, err := Refine(SeqScan(li, nil), nil, RefineOptions{}); err == nil {
		t.Error("Refine without code model accepted")
	}
}

func TestBufferAndLimitNodes(t *testing.T) {
	li := tbl(t, "lineitem")
	b := Buffer(SeqScan(li, nil), 64)
	op, err := Compile(b, nil, EngineVolcano)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := exec.Run(&exec.Context{Catalog: testDB}, op)
	if err != nil || len(rows) != li.NumRows() {
		t.Fatalf("buffer node run: %d rows, %v", len(rows), err)
	}
	l := Limit(SeqScan(li, nil), 5)
	op, err = Compile(l, nil, EngineVolcano)
	if err != nil {
		t.Fatal(err)
	}
	rows, err = exec.Run(&exec.Context{Catalog: testDB}, op)
	if err != nil || len(rows) != 5 {
		t.Fatalf("limit node run: %d rows, %v", len(rows), err)
	}
	if l.EstRows != 5 {
		t.Errorf("limit estimate %v", l.EstRows)
	}
	if CountKind(l, KindSeqScan) != 1 {
		t.Error("CountKind miscounts")
	}
}

func TestKindStrings(t *testing.T) {
	for k := KindSeqScan; k <= KindCachedSource; k++ {
		if strings.HasPrefix(k.String(), "Kind(") {
			t.Errorf("kind %d has no name", k)
		}
	}
	if k := KindCachedSource + 1; !strings.HasPrefix(k.String(), "Kind(") {
		t.Errorf("kind %d is named %q: extend the loops above to it", k, k.String())
	}
}

// TestNodeBlocking pins the one definition of blocking, which refinement
// reads: sort and hash build break the pipeline; every other kind,
// Aggregate included (paper §6), does not.
func TestNodeBlocking(t *testing.T) {
	blocking := map[Kind]bool{KindSort: true, KindHashBuild: true}
	for k := KindSeqScan; k <= KindCachedSource; k++ {
		if got := (&Node{Kind: k}).Blocking(); got != blocking[k] {
			t.Errorf("%v.Blocking() = %v, want %v", k, got, blocking[k])
		}
	}
}

// TestGroupKeysDoNotCollide is the regression test for the hashed group key:
// rendered as the key values joined by '|', it merged ('x|y','z') with
// ('x','y|z') and SQL NULL with the string 'NULL'. Four distinct key rows
// must come back as four groups from every engine, from the block operator
// (no code model) and from the engine's own aggregate alike.
func TestGroupKeysDoNotCollide(t *testing.T) {
	tb := storage.NewTable("t", storage.Schema{
		{Table: "t", Name: "a", Type: storage.TypeString},
		{Table: "t", Name: "b", Type: storage.TypeString},
	})
	str := storage.NewString
	for _, r := range []storage.Row{
		{str("x|y"), str("z")}, {str("x"), str("y|z")},
		{storage.Null, str("w")}, {str("NULL"), str("w")},
	} {
		tb.MustAppend(r)
	}
	for i, engine := range append(Engines(), Engines()...) {
		scan := SeqScan(tb, nil)
		agg, err := Aggregate(scan, []expr.Expr{MustCol(scan, "a"), MustCol(scan, "b")},
			[]expr.AggSpec{{Func: expr.AggCountStar}})
		if err != nil {
			t.Fatal(err)
		}
		var cm *codemodel.Catalog
		if i >= len(Engines()) {
			cm = codemodel.NewCatalog()
		}
		op, err := Compile(agg, cm, engine)
		if err != nil {
			t.Fatalf("%v: %v", engine, err)
		}
		if compilesToBlock(op) != (cm == nil) {
			t.Fatalf("%v: code model %v, block operator %v", engine, cm != nil, cm == nil)
		}
		rows, err := exec.Run(&exec.Context{}, op)
		if err != nil {
			t.Fatalf("%v: %v", engine, err)
		}
		one := storage.NewInt(1)
		want := []storage.Row{ // NULL sorts first, then 'NULL' < 'x' < 'x|y'
			{storage.Null, str("w"), one}, {str("NULL"), str("w"), one},
			{str("x"), str("y|z"), one}, {str("x|y"), str("z"), one},
		}
		if !reflect.DeepEqual(rows, want) {
			t.Errorf("%v: groups %v, want %v", engine, rows, want)
		}
	}
}
