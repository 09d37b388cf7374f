package bufferdb

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
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
	// Repeated executions of the cached plan keep producing the same
	// result — each run clones the plan, so state never leaks between.
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
	if !strings.Contains(stmt.Explain(), "Buffer") {
		t.Errorf("prepared plan not refined:\n%s", stmt.Explain())
	}
}

func TestPrepareOptions(t *testing.T) {
	ctx := context.Background()
	stmt, err := testDB.Prepare(stmtQuery, WithEngine(EngineVec))
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
		t.Fatalf("vec prepared result %v, volcano ad hoc %v", got.Rows, want.Rows)
	}
	if _, err := testDB.Prepare(stmtQuery, WithEngine(Engine("gpu"))); err == nil {
		t.Error("unknown engine not rejected at Prepare time")
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

// BenchmarkPreparedVsAdHoc shows what plan caching buys: the prepared path
// skips parsing, optimization and refinement on every execution.
func BenchmarkPreparedVsAdHoc(b *testing.B) {
	ctx := context.Background()
	db, err := OpenTPCH(0.002, Options{})
	if err != nil {
		b.Fatal(err)
	}
	q := `SELECT COUNT(*) FROM lineitem WHERE l_quantity > 45`
	b.Run("adhoc", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := db.Query(ctx, q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("prepared", func(b *testing.B) {
		stmt, err := db.Prepare(q)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := stmt.Query(ctx); err != nil {
				b.Fatal(err)
			}
		}
	})
}
