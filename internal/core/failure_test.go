package core

import (
	"errors"
	"strings"
	"testing"

	"bufferdb/internal/exec"
	"bufferdb/internal/expr"
	"bufferdb/internal/storage"
)

// failingOp is an operator that errors after emitting a set number of rows,
// for failure-injection tests.
type failingOp struct {
	sch    storage.Schema
	emitN  int
	failAt int
	pos    int
	opened bool
	// closed counts Close calls so tests can assert cleanup.
	closed int
}

var errInjected = errors.New("injected failure")

func (f *failingOp) Open(*exec.Context) error {
	f.pos = 0
	f.opened = true
	return nil
}

func (f *failingOp) Next(*exec.Context) (storage.Row, error) {
	if !f.opened {
		return nil, errors.New("not open")
	}
	if f.pos == f.failAt {
		return nil, errInjected
	}
	if f.pos >= f.emitN {
		return nil, nil
	}
	f.pos++
	return storage.Row{storage.NewInt(int64(f.pos))}, nil
}

func (f *failingOp) Close(*exec.Context) error {
	f.opened = false
	f.closed++
	return nil
}

func (f *failingOp) Schema() storage.Schema    { return f.sch }
func (f *failingOp) Children() []exec.Operator { return nil }
func (f *failingOp) Name() string              { return "failing" }

func intSchema() storage.Schema {
	return storage.Schema{{Name: "v", Type: storage.TypeInt64}}
}

func TestBufferPropagatesChildError(t *testing.T) {
	// Failure during the refill loop (mid-batch).
	child := &failingOp{sch: intSchema(), emitN: 100, failAt: 7}
	buf := NewBuffer(child, 16, nil)
	_, err := exec.Run(&exec.Context{}, buf)
	if !errors.Is(err, errInjected) {
		t.Errorf("buffer swallowed the child error: %v", err)
	}
	if child.closed != 1 {
		t.Errorf("child closed %d times", child.closed)
	}
}

func TestBufferErrorAfterServedBatch(t *testing.T) {
	// First batch succeeds; failure strikes in the second refill.
	child := &failingOp{sch: intSchema(), emitN: 100, failAt: 20}
	buf := NewBuffer(child, 16, nil)
	ctx := &exec.Context{}
	if err := buf.Open(ctx); err != nil {
		t.Fatal(err)
	}
	served := 0
	var err error
	for {
		var row storage.Row
		row, err = buf.Next(ctx)
		if err != nil || row == nil {
			break
		}
		served++
	}
	if !errors.Is(err, errInjected) {
		t.Fatalf("expected injected error after %d rows, got %v", served, err)
	}
	if served != 16 {
		t.Errorf("served %d rows before the failing refill, want the full first batch (16)", served)
	}
	_ = buf.Close(ctx)
}

func TestEvalErrorsSurfaceThroughPipelines(t *testing.T) {
	// Division by zero on some rows must abort the query with an error,
	// whether or not a buffer sits in between.
	sch := storage.Schema{
		{Name: "a", Type: storage.TypeInt64},
		{Name: "b", Type: storage.TypeInt64},
	}
	rows := []storage.Row{
		{storage.NewInt(10), storage.NewInt(2)},
		{storage.NewInt(10), storage.NewInt(0)}, // divide by zero
	}
	div := expr.MustBinary(expr.OpDiv,
		expr.NewColRef(0, "a", storage.TypeInt64),
		expr.NewColRef(1, "b", storage.TypeInt64))

	for _, buffered := range []bool{false, true} {
		var child exec.Operator = exec.NewValues(sch, rows)
		if buffered {
			child = NewBuffer(child, 8, nil)
		}
		agg, err := exec.NewAggregate(child, nil,
			[]expr.AggSpec{{Func: expr.AggSum, Arg: div}}, nil)
		if err != nil {
			t.Fatal(err)
		}
		_, err = exec.Run(&exec.Context{}, agg)
		if err == nil || !strings.Contains(err.Error(), "division by zero") {
			t.Errorf("buffered=%v: division error lost: %v", buffered, err)
		}
	}
}

func TestJoinPropagatesSideErrors(t *testing.T) {
	sch := intSchema()
	key := expr.NewColRef(0, "v", storage.TypeInt64)
	good := func() exec.Operator {
		return exec.NewValues(sch, []storage.Row{{storage.NewInt(1)}})
	}
	// Build-side (inner) failure shows at Open.
	hj := exec.NewHashJoin(good(), &failingOp{sch: sch, emitN: 10, failAt: 3}, key, key, nil, nil)
	if err := hj.Open(&exec.Context{}); !errors.Is(err, errInjected) {
		t.Errorf("hash join build error lost: %v", err)
	}
	// Probe-side (outer) failure shows during Next.
	hj2 := exec.NewHashJoin(&failingOp{sch: sch, emitN: 10, failAt: 3}, good(), key, key, nil, nil)
	_, err := exec.Run(&exec.Context{}, hj2)
	if !errors.Is(err, errInjected) {
		t.Errorf("hash join probe error lost: %v", err)
	}
	// Merge join: left failure.
	mj := exec.NewMergeJoin(&failingOp{sch: sch, emitN: 10, failAt: 0}, good(), key, key, nil)
	_, err = exec.Run(&exec.Context{}, mj)
	if !errors.Is(err, errInjected) {
		t.Errorf("merge join error lost: %v", err)
	}
}

func TestSortPropagatesChildError(t *testing.T) {
	child := &failingOp{sch: intSchema(), emitN: 100, failAt: 5}
	s := exec.NewSort(child, []exec.SortKey{{Expr: expr.NewColRef(0, "v", storage.TypeInt64)}}, nil)
	_, err := exec.Run(&exec.Context{}, s)
	if !errors.Is(err, errInjected) {
		t.Errorf("sort error lost: %v", err)
	}
}

func TestRunClosesOnError(t *testing.T) {
	child := &failingOp{sch: intSchema(), emitN: 100, failAt: 2}
	buf := NewBuffer(child, 4, nil)
	_, err := exec.Run(&exec.Context{}, buf)
	if err == nil {
		t.Fatal("error lost")
	}
	if child.closed == 0 {
		t.Error("Run did not close the plan after the error")
	}
}
