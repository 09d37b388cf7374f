package exec

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"bufferdb/internal/storage"
)

// partitions serves lineitem's rows as n contiguous slices, one CachedRows
// per slice — the shape of a coordinator's scatter legs, shard by shard.
func partitions(t *testing.T, n int) []Operator {
	t.Helper()
	li := tbl(t, "lineitem")
	rows := li.Rows()
	parts := make([]Operator, n)
	for i := range parts {
		parts[i] = NewCachedRows(li.Schema(), rows[i*len(rows)/n:(i+1)*len(rows)/n])
	}
	return parts
}

// waitGoroutines waits for the goroutine count to fall back to base.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	for i := 0; runtime.NumGoroutine() > base; i++ {
		if i == 1000 {
			t.Fatalf("%d goroutines running, %d before", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestExchangeGathersInPartitionOrder(t *testing.T) {
	want := runPlan(t, NewSeqScan(tbl(t, "lineitem"), nil, nil))
	for _, n := range []int{1, 2, 3, 7, 16} {
		ex, err := NewExchange(partitions(t, n))
		if err != nil {
			t.Fatal(err)
		}
		got := runPlan(t, ex)
		if len(got) != len(want) {
			t.Fatalf("partitions=%d: %d rows, want %d", n, len(got), len(want))
		}
		if HashRows(got) != HashRows(want) {
			t.Fatalf("partitions=%d: gathered rows differ from sequential scan", n)
		}
	}
}

func TestExchangeEmptyPartitions(t *testing.T) {
	if _, err := NewExchange(nil); err == nil {
		t.Error("NewExchange with no partitions succeeded")
	}
}

// failingOp errors (or, with panics set, panics) after serving n rows.
type failingOp struct {
	n      int
	panics bool
	served int
	opened bool
}

func (f *failingOp) Open(*Context) error { f.served = 0; f.opened = true; return nil }
func (f *failingOp) Next(*Context) (storage.Row, error) {
	if !f.opened {
		return nil, errNotOpen(f.Name())
	}
	if f.served >= f.n {
		if f.panics {
			panic("failingOp: deliberate panic")
		}
		return nil, fmt.Errorf("failingOp: deliberate failure")
	}
	f.served++
	return storage.Row{storage.NewInt(int64(f.served))}, nil
}
func (f *failingOp) Close(*Context) error { f.opened = false; return nil }
func (f *failingOp) Schema() storage.Schema {
	return storage.Schema{{Name: "x", Type: storage.TypeInt64}}
}
func (f *failingOp) Children() []Operator { return nil }
func (f *failingOp) Name() string         { return "failingOp" }

// drainUntilError pulls rows until the first error, returning how many
// rows came before it.
func drainUntilError(t *testing.T, ex *Exchange) (int, error) {
	t.Helper()
	ctx := &Context{Catalog: testDB}
	if err := ex.Open(ctx); err != nil {
		t.Fatal(err)
	}
	defer ex.Close(ctx)
	for n := 0; ; n++ {
		row, err := ex.Next(ctx)
		if err != nil {
			return n, err
		}
		if row == nil {
			return n, nil
		}
	}
}

// TestExchangeSurfacesWorkerError: a failing partition's error surfaces
// after every row of the partitions before it and after the whole chunks
// it sent itself before failing.
func TestExchangeSurfacesWorkerError(t *testing.T) {
	failing := &failingOp{n: 2*exchangeChunk + 5}
	healthy := make([]storage.Row, 5_000)
	for i := range healthy {
		healthy[i] = storage.Row{storage.NewInt(int64(i))}
	}
	ex, err := NewExchange([]Operator{NewCachedRows(failing.Schema(), healthy), failing})
	if err != nil {
		t.Fatal(err)
	}
	n, err := drainUntilError(t, ex)
	if err == nil || !strings.Contains(err.Error(), "deliberate failure") {
		t.Fatalf("Next = %v, want the worker's error", err)
	}
	if want := 5_000 + 2*exchangeChunk; n != want {
		t.Errorf("%d rows before the error, want %d", n, want)
	}
}

// TestExchangeContainsWorkerPanic: a panicking partition becomes a typed
// error on the consumer, and its worker exits.
func TestExchangeContainsWorkerPanic(t *testing.T) {
	base := runtime.NumGoroutine()
	parts := partitions(t, 2)
	parts = append(parts, &failingOp{n: 10, panics: true})
	ex, err := NewExchange(parts)
	if err != nil {
		t.Fatal(err)
	}
	n, err := drainUntilError(t, ex)
	if !errors.Is(err, ErrOperatorPanic) || !strings.Contains(err.Error(), "failingOp") {
		t.Fatalf("Next = %v, want ErrOperatorPanic naming failingOp", err)
	}
	if want := tbl(t, "lineitem").NumRows(); n != want {
		t.Errorf("%d rows before the panic, want %d", n, want)
	}
	waitGoroutines(t, base)
}

func TestExchangeCancellation(t *testing.T) {
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	ex, err := NewExchange(partitions(t, 4))
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(&Context{Catalog: testDB, Ctx: cctx}, ex)
	if err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("Run on canceled ctx = %v, want nil or context.Canceled", err)
	}
}

// TestExchangeEarlyCloseReleasesQueuedChunks closes the gather after one
// row, with the workers parked on full channels: every queued chunk's
// charge comes back and every worker exits.
func TestExchangeEarlyCloseReleasesQueuedChunks(t *testing.T) {
	base := runtime.NumGoroutine()
	ex, err := NewExchange(partitions(t, 4))
	if err != nil {
		t.Fatal(err)
	}
	ctx := &Context{Catalog: testDB, Mem: NewMemTracker("q", 0, nil)}
	for round := 0; round < 3; round++ { // re-Open after an early Close, too
		if err := ex.Open(ctx); err != nil {
			t.Fatal(err)
		}
		if row, err := ex.Next(ctx); err != nil || row == nil {
			t.Fatalf("first row: %v, %v", row, err)
		}
		for i := 0; ctx.Mem.Bytes() == 0; i++ {
			if i == 1000 {
				t.Fatal("no chunk was ever queued")
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
	waitGoroutines(t, base)
}
