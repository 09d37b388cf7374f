package core

import (
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"bufferdb/internal/codemodel"
	"bufferdb/internal/cpusim"
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

func lineitem(t *testing.T) *storage.Table {
	t.Helper()
	tb, err := testDB.Table("lineitem")
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

func runOp(t *testing.T, op exec.Operator) []storage.Row {
	t.Helper()
	rows, err := exec.Run(&exec.Context{Catalog: testDB}, op)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return rows
}

func rowsEqual(a, b []storage.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].String() != b[i].String() {
			return false
		}
	}
	return true
}

func TestBufferTransparency(t *testing.T) {
	li := lineitem(t)
	want := runOp(t, exec.NewSeqScan(li, nil, nil))
	for _, size := range []int{1, 2, 7, 100, li.NumRows(), li.NumRows() * 2} {
		got := runOp(t, NewBuffer(exec.NewSeqScan(li, nil, nil), size, nil))
		if !rowsEqual(want, got) {
			t.Errorf("buffer size %d changed the result: %d vs %d rows", size, len(got), len(want))
		}
	}
}

func TestBufferDefaultSize(t *testing.T) {
	b := NewBuffer(exec.NewValues(nil, nil), 0, nil)
	if b.Size != DefaultBufferSize {
		t.Errorf("default size = %d", b.Size)
	}
}

func TestBufferEmptyChild(t *testing.T) {
	sch := storage.Schema{{Name: "v", Type: storage.TypeInt64}}
	got := runOp(t, NewBuffer(exec.NewValues(sch, nil), 16, nil))
	if len(got) != 0 {
		t.Errorf("buffer over empty child returned %d rows", len(got))
	}
}

func TestBufferSchemaAndMeta(t *testing.T) {
	li := lineitem(t)
	scan := exec.NewSeqScan(li, nil, nil)
	b := NewBuffer(scan, 8, nil)
	if b.Schema().String() != scan.Schema().String() {
		t.Error("buffer schema differs from child")
	}
	if len(b.Children()) != 1 || b.Children()[0] != exec.Operator(scan) {
		t.Error("buffer children wrong")
	}
	if !strings.Contains(b.Name(), "Buffer(size=8)") {
		t.Errorf("name = %q", b.Name())
	}
	if _, err := b.Next(&exec.Context{Catalog: testDB}); err == nil {
		t.Error("Next before Open succeeded")
	}
}

// TestBufferExecutionSequence reproduces the paper's Figure 1: with a
// buffer of size 5, the child runs in batches of 5 and the parent drains in
// batches of 5, instead of strict alternation.
func TestBufferExecutionSequence(t *testing.T) {
	sch := storage.Schema{{Name: "v", Type: storage.TypeInt64}}
	var rows []storage.Row
	for i := 0; i < 10; i++ {
		rows = append(rows, storage.Row{storage.NewInt(int64(i))})
	}

	// Original: parent pulls child directly — PCPCPC…
	vals := exec.NewValues(sch, rows)
	vals.SetTraceLabel('C')
	tr := exec.NewTracer(256)
	parentDrain(t, tr, vals)
	if got := stripLabels(tr.String(), "AB"); !strings.HasPrefix(got, "PCPCPCPC") {
		t.Errorf("original sequence = %q, want alternation", got)
	}

	// Buffered with size 5: PBCCCCC…, then P-served-from-buffer runs.
	vals2 := exec.NewValues(sch, rows)
	vals2.SetTraceLabel('C')
	buf := NewBuffer(vals2, 5, nil)
	buf.SetTraceLabel('B')
	tr2 := exec.NewTracer(256)
	parentDrain(t, tr2, buf)
	seq := tr2.String()
	// Strip the buffer's and aggregate root's own marks to compare
	// parent/child batching.
	pc := stripLabels(seq, "AB")
	if !strings.HasPrefix(pc, "PCCCCCPPPPP") {
		t.Errorf("buffered sequence = %q (parent/child view %q), want PCCCCCPPPPP…", seq, pc)
	}
}

// stripLabels removes the given label characters from a trace string.
func stripLabels(s, labels string) string {
	return strings.Map(func(r rune) rune {
		if strings.ContainsRune(labels, r) {
			return -1
		}
		return r
	}, s)
}

// parentDrain pulls all rows through a traced parent labeled 'P'.
func parentDrain(t *testing.T, tr *exec.Tracer, child exec.Operator) {
	t.Helper()
	v := expr.NewColRef(0, "v", storage.TypeInt64)
	agg, err := exec.NewAggregate(&tracedPuller{child: child}, nil,
		[]expr.AggSpec{{Func: expr.AggSum, Arg: v}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exec.Run(&exec.Context{Catalog: testDB, Trace: tr}, agg); err != nil {
		t.Fatal(err)
	}
}

// tracedPuller marks each pull with 'P' before delegating, making the
// parent's per-tuple demand visible in the trace.
type tracedPuller struct {
	child exec.Operator
}

func (p *tracedPuller) Open(ctx *exec.Context) error  { return p.child.Open(ctx) }
func (p *tracedPuller) Close(ctx *exec.Context) error { return p.child.Close(ctx) }
func (p *tracedPuller) Next(ctx *exec.Context) (storage.Row, error) {
	if ctx.Trace != nil {
		ctx.Trace.Record('P', "Parent")
	}
	return p.child.Next(ctx)
}
func (p *tracedPuller) Schema() storage.Schema    { return p.child.Schema() }
func (p *tracedPuller) Children() []exec.Operator { return []exec.Operator{p.child} }
func (p *tracedPuller) Name() string              { return "Parent" }

func TestCopyBufferTransparency(t *testing.T) {
	li := lineitem(t)
	want := runOp(t, exec.NewSeqScan(li, nil, nil))
	got := runOp(t, NewCopyBuffer(exec.NewSeqScan(li, nil, nil), 64, nil))
	if !rowsEqual(want, got) {
		t.Error("copy buffer changed the result")
	}
	cb := NewCopyBuffer(exec.NewValues(nil, nil), 0, nil)
	if cb.Size != DefaultBufferSize {
		t.Errorf("copy buffer default size = %d", cb.Size)
	}
	if _, err := cb.Next(&exec.Context{Catalog: testDB}); err == nil {
		t.Error("CopyBuffer.Next before Open succeeded")
	}
	if !strings.Contains(cb.Name(), "CopyBuffer") {
		t.Errorf("name = %q", cb.Name())
	}
}

// Property: buffering never changes a scan's result, for any buffer size
// and row count.
func TestBufferTransparencyProperty(t *testing.T) {
	sch := storage.Schema{{Name: "v", Type: storage.TypeInt64}}
	f := func(vals []int16, size uint8) bool {
		rows := make([]storage.Row, len(vals))
		for i, v := range vals {
			rows[i] = storage.Row{storage.NewInt(int64(v))}
		}
		direct, err := exec.Run(&exec.Context{}, exec.NewValues(sch, rows))
		if err != nil {
			return false
		}
		buffered, err := exec.Run(&exec.Context{},
			NewBuffer(exec.NewValues(sch, rows), int(size%64)+1, nil))
		if err != nil {
			return false
		}
		return rowsEqual(direct, buffered)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestBufferedQuery1EndToEnd is the headline result (paper Fig. 10) at test
// scale: on the simulated CPU, adding one buffer between scan and
// aggregation must cut L1I misses dramatically and improve simulated time.
func TestBufferedQuery1EndToEnd(t *testing.T) {
	cm := codemodel.NewCatalog()
	li := lineitem(t)
	sch := li.Schema()
	shipIdx, _ := sch.ColumnIndex("", "l_shipdate")
	price, _ := sch.ColumnIndex("", "l_extendedprice")

	build := func(buffered bool) (exec.Operator, error) {
		filter := expr.MustBinary(expr.OpLe,
			expr.NewColRef(shipIdx, "l_shipdate", storage.TypeDate),
			expr.NewConst(storage.DateFromYMD(1998, 9, 2)))
		var child exec.Operator = exec.NewSeqScan(li, filter, cm.MustModule("SeqScanPred"))
		if buffered {
			child = NewBuffer(child, 0, cm.MustModule("Buffer"))
		}
		aggMod, err := cm.AggModule([]string{"sum", "avg", "count"})
		if err != nil {
			return nil, err
		}
		p := expr.NewColRef(price, "l_extendedprice", storage.TypeFloat64)
		return exec.NewAggregate(child, nil, []expr.AggSpec{
			{Func: expr.AggSum, Arg: p},
			{Func: expr.AggAvg, Arg: p},
			{Func: expr.AggCountStar},
		}, aggMod)
	}

	var misses [2]uint64
	var seconds [2]float64
	var results [2]string
	for i, buffered := range []bool{false, true} {
		cpu := cpusim.MustNew(cpusim.DefaultConfig(), cm.TextSegmentBytes())
		placements := exec.PlaceCatalog(cpu, testDB)
		plan, err := build(buffered)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := exec.Run(&exec.Context{Catalog: testDB, CPU: cpu, Placements: placements}, plan)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 1 {
			t.Fatalf("Q1 returned %d rows", len(rows))
		}
		results[i] = rows[0].String()
		misses[i] = cpu.Counters().L1IMisses
		seconds[i] = cpu.ElapsedSeconds()
	}
	if results[0] != results[1] {
		t.Fatalf("buffering changed the answer: %s vs %s", results[0], results[1])
	}
	red := 1 - float64(misses[1])/float64(misses[0])
	if red < 0.6 {
		t.Errorf("buffer reduced L1I misses by %.0f%% (%d → %d), want ≥ 60%%",
			red*100, misses[0], misses[1])
	}
	if seconds[1] >= seconds[0] {
		t.Errorf("buffered plan slower: %.4fs vs %.4fs", seconds[1], seconds[0])
	}
}

// TestBufferCloseReleasesArray asserts Close drops the pointer array so a
// large buffer does not pin the last batch's tuples after the query ends,
// and that the buffer still works when reopened.
func TestBufferCloseReleasesArray(t *testing.T) {
	li := lineitem(t)
	for _, b := range []*Buffer{
		NewBuffer(exec.NewSeqScan(li, nil, nil), 64, nil),
		&NewCopyBuffer(exec.NewSeqScan(li, nil, nil), 64, nil).Buffer,
	} {
		ctx := &exec.Context{Catalog: testDB}
		if err := b.Open(ctx); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Next(ctx); err != nil {
			t.Fatal(err)
		}
		if len(b.buf) == 0 {
			t.Fatalf("%s: no tuples buffered after Next", b.Name())
		}
		if err := b.Close(ctx); err != nil {
			t.Fatal(err)
		}
		if b.buf != nil {
			t.Errorf("%s: Close kept the pointer array (len %d, cap %d)", b.Name(), len(b.buf), cap(b.buf))
		}
		// Reopen must re-make the array and serve the full result.
		want := li.NumRows()
		got := len(runOp(t, b))
		if got != want {
			t.Errorf("%s: reopen after Close returned %d rows, want %d", b.Name(), got, want)
		}
	}
}

// TestBufferConformance runs the shared operator lifecycle harness over
// both buffer variants.
func TestBufferConformance(t *testing.T) {
	li := lineitem(t)
	exectest.Conformance(t, "Buffer", func() exec.Operator {
		return NewBuffer(exec.NewSeqScan(li, nil, nil), 64, nil)
	})
	exectest.Conformance(t, "CopyBuffer", func() exec.Operator {
		return NewCopyBuffer(exec.NewSeqScan(li, nil, nil), 64, nil)
	})
}

// TestBufferArraySizedToInput: a buffer over a few rows allocates a few
// slots, not its Size-slot array (1,024 × 24 B zeroed per Open before).
// The bound covers the Buffer value and its array over a 4-row input.
func TestBufferArraySizedToInput(t *testing.T) {
	sch := storage.Schema{{Name: "v", Type: storage.TypeInt64}}
	rows := make([]storage.Row, 4)
	for i := range rows {
		rows[i] = storage.Row{storage.NewInt(int64(i))}
	}
	ctx := &exec.Context{Catalog: testDB}
	drain := func(op exec.Operator) {
		if err := op.Open(ctx); err != nil {
			t.Fatal(err)
		}
		n := 0
		for {
			row, err := op.Next(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if row == nil {
				break
			}
			n++
		}
		if err := op.Close(ctx); err != nil {
			t.Fatal(err)
		}
		if n != len(rows) {
			t.Fatalf("drained %d rows, want %d", n, len(rows))
		}
	}
	bytesPer := func(run func()) float64 {
		const runs = 100
		run()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	child := bytesPer(func() { drain(exec.NewValues(sch, rows)) })
	buffered := bytesPer(func() { drain(NewBuffer(exec.NewValues(sch, rows), DefaultBufferSize, nil)) })
	if got := buffered - child; got >= 1024 {
		t.Errorf("a buffer over %d rows allocated %.0f B, want under 1 KB", len(rows), got)
	}
}
