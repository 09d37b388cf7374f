package exec

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"bufferdb/internal/codemodel"
	"bufferdb/internal/storage"
)

// spanScans builds one span-bounded SeqScan per partition of a table.
func spanScans(t *testing.T, table *storage.Table, workers int) []Operator {
	t.Helper()
	spans := table.Partitions(workers)
	parts := make([]Operator, len(spans))
	for i := range spans {
		parts[i] = NewSeqScanSpan(table, nil, nil, &spans[i])
	}
	return parts
}

func TestExchangeGathersInPartitionOrder(t *testing.T) {
	li := tbl(t, "lineitem")
	want := runPlan(t, NewSeqScan(li, nil, nil))
	for _, workers := range []int{1, 2, 3, 7, 16} {
		ex, err := NewExchange(spanScans(t, li, workers))
		if err != nil {
			t.Fatal(err)
		}
		got := runPlan(t, ex)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d rows, want %d", workers, len(got), len(want))
		}
		if HashRows(got) != HashRows(want) {
			t.Fatalf("workers=%d: gathered rows differ from sequential scan", workers)
		}
	}
}

func TestExchangeSerialWhenInstrumented(t *testing.T) {
	li := tbl(t, "lineitem")
	ex, err := NewExchange(spanScans(t, li, 4))
	if err != nil {
		t.Fatal(err)
	}
	// A tracer forces serial inline execution (the simulated machine is
	// single-core); results must still match.
	ctx := &Context{Catalog: testDB, Trace: NewTracer(16)}
	rows, err := Run(ctx, ex)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != li.NumRows() {
		t.Fatalf("serial gather produced %d rows, want %d", len(rows), li.NumRows())
	}
}

func TestExchangeConformance(t *testing.T) {
	li := tbl(t, "lineitem")
	Conformance(t, "Exchange", func() Operator {
		ex, err := NewExchange(spanScans(t, li, 3))
		if err != nil {
			t.Fatal(err)
		}
		return ex
	})
}

func TestExchangeEmptyPartitions(t *testing.T) {
	if _, err := NewExchange(nil); err == nil {
		t.Error("NewExchange with no partitions succeeded")
	}
}

// failingOp errors after serving a few rows, to test worker error surfacing.
type failingOp struct {
	n      int
	served int
	opened bool
}

func (f *failingOp) Open(*Context) error { f.served = 0; f.opened = true; return nil }
func (f *failingOp) Next(*Context) (storage.Row, error) {
	if !f.opened {
		return nil, errNotOpen(f.Name())
	}
	if f.served >= f.n {
		return nil, fmt.Errorf("failingOp: deliberate failure")
	}
	f.served++
	return storage.Row{storage.NewInt(int64(f.served))}, nil
}
func (f *failingOp) Close(*Context) error { f.opened = false; return nil }
func (f *failingOp) Schema() storage.Schema {
	return storage.Schema{{Name: "x", Type: storage.TypeInt64}}
}
func (f *failingOp) Children() []Operator      { return nil }
func (f *failingOp) Name() string              { return "failingOp" }
func (f *failingOp) Module() *codemodel.Module { return nil }
func (f *failingOp) Blocking() bool            { return false }

func TestExchangeSurfacesWorkerError(t *testing.T) {
	parts := []Operator{
		&failingOp{n: 1 << 30}, // never fails within the test's pulls
		&failingOp{n: 5},
	}
	parts[0].(*failingOp).n = 5_000 // finite so the healthy partition drains
	ex, err := NewExchange(parts)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(&Context{Catalog: testDB}, ex)
	if err == nil || !strings.Contains(err.Error(), "deliberate failure") {
		t.Fatalf("Run = %v, want the worker's error", err)
	}
}

func TestExchangeCancellation(t *testing.T) {
	li := tbl(t, "lineitem")
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	ex, err := NewExchange(spanScans(t, li, 4))
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(&Context{Catalog: testDB, Ctx: cctx}, ex)
	if err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("Run on canceled ctx = %v, want nil or context.Canceled", err)
	}
}
