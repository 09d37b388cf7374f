package vec

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"bufferdb/internal/codemodel"
	"bufferdb/internal/exec"
	"bufferdb/internal/storage"
)

// The cases of exec's exchange_test.go against the batch wrapper of the
// same exec.Gather core, driven through ToVolcano.

// spanScans builds one span-bounded batch scan per partition of a table.
func spanScans(table *storage.Table, workers, batchSize int) []Operator {
	spans := table.Partitions(workers)
	parts := make([]Operator, len(spans))
	for i := range spans {
		parts[i] = NewSeqScanSpan(table, nil, nil, batchSize, &spans[i])
	}
	return parts
}

func gather(t *testing.T, parts []Operator) exec.Operator {
	t.Helper()
	ex, err := NewExchange(parts)
	if err != nil {
		t.Fatal(err)
	}
	return NewToVolcano(ex)
}

func TestExchangeGathersInPartitionOrder(t *testing.T) {
	li := tbl(t, "lineitem")
	want := runVec(t, NewSeqScan(li, nil, nil, 0))
	for _, workers := range []int{1, 2, 3, 7, 16} {
		got := runVolcano(t, gather(t, spanScans(li, workers, 0)))
		assertSameRows(t, fmt.Sprintf("workers=%d", workers), got, want)
	}
}

func TestExchangeSerialWhenInstrumented(t *testing.T) {
	li := tbl(t, "lineitem")
	// A tracer forces serial inline execution (the simulated machine is
	// single-core); results must still match.
	ctx := &exec.Context{Catalog: testDB, Trace: exec.NewTracer(16)}
	rows, err := exec.Run(ctx, gather(t, spanScans(li, 4, 0)))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != li.NumRows() {
		t.Fatalf("serial gather produced %d rows, want %d", len(rows), li.NumRows())
	}
}

func TestExchangeConformance(t *testing.T) {
	li := tbl(t, "lineitem")
	exec.Conformance(t, "VecExchange", func() exec.Operator { return gather(t, spanScans(li, 3, 0)) })
}

func TestExchangeEmptyPartitions(t *testing.T) {
	if _, err := NewExchange(nil); err == nil {
		t.Error("NewExchange with no partitions succeeded")
	}
}

// failingOp errors after serving a few rows, to test worker error surfacing.
type failingOp struct {
	n, served int
}

func (f *failingOp) Open(*exec.Context) error { f.served = 0; return nil }
func (f *failingOp) Next(*exec.Context) (storage.Row, error) {
	if f.served >= f.n {
		return nil, fmt.Errorf("failingOp: deliberate failure")
	}
	f.served++
	return storage.Row{storage.NewInt(int64(f.served))}, nil
}
func (f *failingOp) Close(*exec.Context) error { return nil }
func (f *failingOp) Schema() storage.Schema {
	return storage.Schema{{Name: "x", Type: storage.TypeInt64}}
}
func (f *failingOp) Children() []exec.Operator { return nil }
func (f *failingOp) Name() string              { return "failingOp" }
func (f *failingOp) Module() *codemodel.Module { return nil }
func (f *failingOp) Blocking() bool            { return false }

func TestExchangeSurfacesWorkerError(t *testing.T) {
	op := gather(t, []Operator{
		NewFromVolcano(&failingOp{n: 5_000}, 0, nil),
		NewFromVolcano(&failingOp{n: 5}, 0, nil),
	})
	rows, err := exec.Run(&exec.Context{Catalog: testDB}, op)
	if err == nil || !strings.Contains(err.Error(), "deliberate failure") {
		t.Fatalf("Run = %d rows, %v, want the worker's error", len(rows), err)
	}
}

func TestExchangeCancellation(t *testing.T) {
	li := tbl(t, "lineitem")
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := exec.Run(&exec.Context{Catalog: testDB, Ctx: cctx}, gather(t, spanScans(li, 4, 0)))
	if err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("Run on canceled ctx = %v, want nil or context.Canceled", err)
	}
}

// TestExchangeEarlyCloseReleasesQueuedBatches closes the gather after one
// batch, with the workers parked on full channels: every queued batch's
// charge comes back and every worker exits.
func TestExchangeEarlyCloseReleasesQueuedBatches(t *testing.T) {
	li := tbl(t, "lineitem")
	base := runtime.NumGoroutine()
	// 64-row batches: a partition outruns its channel.
	ex, err := NewExchange(spanScans(li, 4, 64))
	if err != nil {
		t.Fatal(err)
	}
	ctx := &exec.Context{Catalog: testDB, Mem: exec.NewMemTracker("q", 0, nil)}
	for round := 0; round < 3; round++ { // re-Open after an early Close, too
		if err := ex.Open(ctx); err != nil {
			t.Fatal(err)
		}
		if batch, err := ex.NextBatch(ctx); err != nil || len(batch) == 0 {
			t.Fatalf("first batch: %d rows, %v", len(batch), err)
		}
		for i := 0; ctx.Mem.Bytes() == 0; i++ {
			if i == 1000 {
				t.Fatal("no batch was ever queued")
			}
			time.Sleep(time.Millisecond)
		}
		if err := ex.Close(ctx); err != nil {
			t.Fatal(err)
		}
		if got := ctx.Mem.Bytes(); got != 0 {
			t.Fatalf("early Close left %d bytes charged", got)
		}
	}
	for i := 0; runtime.NumGoroutine() > base; i++ {
		if i == 1000 {
			t.Fatalf("%d goroutines running, %d before", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}
