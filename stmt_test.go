package bufferdb

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"bufferdb/internal/plan"
)

const stmtQuery = `
	SELECT l_returnflag, COUNT(*) AS n, SUM(l_quantity) AS qty
	FROM lineitem
	WHERE l_shipdate <= DATE '1997-01-01'
	GROUP BY l_returnflag
	ORDER BY l_returnflag`

func TestPrepareMatchesAdHoc(t *testing.T) {
	ctx := context.Background()
	stmt, err := testDB.Prepare(stmtQuery)
	if err != nil {
		t.Fatal(err)
	}
	want, err := testDB.Query(ctx, stmtQuery)
	if err != nil {
		t.Fatal(err)
	}
	// Repeated executions keep producing the same result — each binds a
	// private copy of the shape's plan template, so state never leaks
	// between them.
	for i := 0; i < 3; i++ {
		got, err := stmt.Query(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got.Rows) != fmt.Sprint(want.Rows) {
			t.Fatalf("execution %d: prepared result %v, ad hoc %v", i, got.Rows, want.Rows)
		}
	}
	if stmt.Text() != stmtQuery {
		t.Errorf("Text() = %q", stmt.Text())
	}
	p, err := testDB.plan(stmt.Text())
	if err != nil {
		t.Fatal(err)
	}
	if got := plan.Explain(p); !strings.Contains(got, "Buffer") {
		t.Errorf("prepared plan not refined:\n%s", got)
	}
}

// TestPrepareOptions: options fixed at Prepare time apply to every
// execution — a generous limit leaves the answer alone, a tiny budget fails
// each run typed.
func TestPrepareOptions(t *testing.T) {
	ctx := context.Background()
	stmt, err := testDB.Prepare(stmtQuery, WithTimeout(time.Minute), WithMemoryBudget(1<<30))
	if err != nil {
		t.Fatal(err)
	}
	got, err := stmt.Query(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want, err := testDB.Query(ctx, stmtQuery)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got.Rows) != fmt.Sprint(want.Rows) {
		t.Fatalf("limited prepared result %v, ad hoc %v", got.Rows, want.Rows)
	}
	tiny, err := testDB.Prepare(stmtQuery, WithMemoryBudget(64))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := tiny.Query(ctx); !errors.Is(err, ErrMemoryBudgetExceeded) {
			t.Fatalf("run %d under a 64-byte budget: %v, want ErrMemoryBudgetExceeded", i, err)
		}
	}
	if _, err := testDB.Prepare("SELEKT"); err == nil {
		t.Error("parse error not reported at Prepare time")
	}
}

func TestPrepareConcurrent(t *testing.T) {
	ctx := context.Background()
	stmt, err := testDB.Prepare(stmtQuery)
	if err != nil {
		t.Fatal(err)
	}
	want, err := stmt.Query(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := stmt.Query(ctx)
			if err != nil {
				errs <- err
				return
			}
			if fmt.Sprint(got.Rows) != fmt.Sprint(want.Rows) {
				errs <- fmt.Errorf("concurrent execution diverged: %v", got.Rows)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
