package push

import (
	"reflect"
	"strings"
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

var countStar = []expr.AggSpec{{Func: expr.AggCountStar}}

// joinCount builds scan(lineitem) → probe(orders) → COUNT(*) GROUP BY
// o_orderpriority, returning the pipeline with its build and aggregate
// handles.
func joinCount(t *testing.T) (pl *Pipeline, build, agg exec.Named) {
	t.Helper()
	li, orders := tbl(t, "lineitem"), tbl(t, "orders")
	b := NewBuilder()
	b.Scan(li, nil, nil, nil)
	inner := NewBuilder()
	inner.Scan(orders, nil, nil, nil)
	_, build = b.Probe(inner, colRef(t, li.Schema(), "l_orderkey"), colRef(t, orders.Schema(), "o_orderkey"), nil, nil)
	joined := li.Schema().Concat(orders.Schema())
	agg = b.Aggregate([]expr.Expr{colRef(t, joined, "o_orderpriority")}, countStar, nil)
	pl, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return pl, build, agg
}

func TestBuilderMisuse(t *testing.T) {
	li := tbl(t, "lineitem")
	key := colRef(t, li.Schema(), "l_orderkey")
	scanned := func() *Builder {
		b := NewBuilder()
		b.Scan(li, nil, nil, nil)
		return b
	}
	for _, tc := range []struct {
		name string
		use  func(b *Builder)
		want string
	}{
		{"empty", func(*Builder) {}, "empty pipeline"},
		{"filter before a source", func(b *Builder) { b.Filter(key, nil) }, "stage before source"},
		{"project before a source", func(b *Builder) { b.Project([]expr.Expr{key}, []string{"k"}, nil) }, "stage before source"},
		{"aggregate before a source", func(b *Builder) { b.Aggregate(nil, countStar, nil) }, "aggregate before source"},
		{"probe before a source", func(b *Builder) { b.Probe(scanned(), key, key, nil, nil) }, "needs both"},
		{"probe with a sourceless build side", func(b *Builder) {
			b.Scan(li, nil, nil, nil)
			b.Probe(NewBuilder(), key, key, nil, nil)
		}, "needs both"},
		{"probe with a failed build side", func(b *Builder) {
			b.Scan(li, nil, nil, nil)
			inner := scanned()
			inner.Project(nil, nil, nil)
			b.Probe(inner, key, key, nil, nil)
		}, "needs a target list"},
		{"two sources", func(b *Builder) {
			b.Scan(li, nil, nil, nil)
			b.Scan(li, nil, nil, nil)
		}, "already has a source"},
		{"project names/exprs mismatch", func(b *Builder) {
			b.Scan(li, nil, nil, nil)
			b.Project([]expr.Expr{key}, []string{"a", "b"}, nil)
		}, "names/exprs mismatch"},
		{"aggregate without aggregates", func(b *Builder) {
			b.Scan(li, nil, nil, nil)
			b.Aggregate([]expr.Expr{key}, nil, nil)
		}, "at least one aggregate"},
		{"the first error sticks", func(b *Builder) {
			b.Filter(key, nil)
			b.Scan(li, nil, nil, nil)
			b.Limit(1)
		}, "stage before source"},
	} {
		b := NewBuilder()
		tc.use(b)
		if pl, err := b.Build(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Build = %v, %v; want an error containing %q", tc.name, pl, err, tc.want)
		}
	}
}

func TestPipelineConformance(t *testing.T) {
	exectest.Conformance(t, "Push(scan→probe→aggregate)", func() exec.Operator {
		pl, _, _ := joinCount(t)
		return pl
	})
}

func TestPipelineMatchesVolcano(t *testing.T) {
	li, orders := tbl(t, "lineitem"), tbl(t, "orders")
	hj := exec.NewHashJoin(exec.NewSeqScan(li, nil, nil), exec.NewSeqScan(orders, nil, nil),
		colRef(t, li.Schema(), "l_orderkey"), colRef(t, orders.Schema(), "o_orderkey"), nil, nil)
	agg, err := exec.NewAggregate(hj, []expr.Expr{colRef(t, hj.Schema(), "o_orderpriority")}, countStar, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := exec.Run(&exec.Context{Catalog: testDB}, agg)
	if err != nil {
		t.Fatal(err)
	}
	pl, _, _ := joinCount(t)
	got, err := exec.Run(&exec.Context{Catalog: testDB}, pl)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 || exec.HashRows(got) != exec.HashRows(want) || !reflect.DeepEqual(pl.Schema(), agg.Schema()) {
		t.Fatalf("pipeline: %v %v\nvolcano:  %v %v", pl.Schema(), got, agg.Schema(), want)
	}
}

// TestReopenReleasesStaleCharges: a pipeline re-Opened without Close — after
// a complete run and after a run that died mid-build — starts its breakers'
// accounting over instead of stacking a second build on the first.
func TestReopenReleasesStaleCharges(t *testing.T) {
	pl, _, _ := joinCount(t)
	ctx := &exec.Context{Catalog: testDB, Mem: exec.NewMemTracker("q", 0, nil)}
	run := func() int64 {
		t.Helper()
		if err := pl.Open(ctx); err != nil {
			t.Fatal(err)
		}
		if row, err := pl.Next(ctx); err != nil || row == nil {
			t.Fatalf("first row: %v, %v", row, err)
		}
		return ctx.Mem.Bytes()
	}
	first := run()
	if first == 0 {
		t.Fatal("a join and an aggregate charged nothing")
	}
	if again := run(); again != first {
		t.Fatalf("re-Open holds %d bytes, the first run held %d", again, first)
	}

	if err := pl.Close(ctx); err != nil || ctx.Mem.Bytes() != 0 {
		t.Fatalf("Close: %v, %d bytes still charged", err, ctx.Mem.Bytes())
	}

	// A budget the build outgrows: the failed run's partial charges are
	// stale too.
	ctx.Mem = exec.NewMemTracker("q", first/2, nil)
	if err := pl.Open(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := pl.Next(ctx); err == nil {
		t.Fatal("half the budget sufficed")
	}
	if ctx.Mem.Bytes() == 0 {
		t.Fatal("the failed build charged nothing")
	}
	if err := pl.Open(ctx); err != nil {
		t.Fatal(err)
	}
	if got := ctx.Mem.Bytes(); got != 0 {
		t.Fatalf("re-Open after a failed build holds %d bytes", got)
	}
	if err := pl.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestSetSharedRejectsForeignHandles(t *testing.T) {
	_, build, agg := joinCount(t)
	sb, sa := &exec.SharedBuild{}, &exec.SharedAgg{}
	if !SetSharedBuild(build, sb) || !SetSharedAgg(agg, sa) {
		t.Fatal("the handles Probe and Aggregate returned were rejected")
	}
	for _, h := range []exec.Named{nil, agg} {
		if SetSharedBuild(h, sb) {
			t.Errorf("SetSharedBuild accepted %T", h)
		}
	}
	for _, h := range []exec.Named{nil, build} {
		if SetSharedAgg(h, sa) {
			t.Errorf("SetSharedAgg accepted %T", h)
		}
	}
}
