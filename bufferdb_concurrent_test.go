package bufferdb

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// concurrentQueries is the mixed workload the concurrency tests drive: a
// streaming scan, grouped aggregation, and a join, so goroutines exercise
// every operator family plus the shared code model at once.
var concurrentQueries = []string{
	`SELECT COUNT(*) AS n FROM lineitem WHERE l_shipdate <= DATE '1995-06-17'`,
	`SELECT l_returnflag, COUNT(*) FROM lineitem GROUP BY l_returnflag ORDER BY l_returnflag`,
	`SELECT SUM(o_totalprice), COUNT(*) FROM lineitem, orders
	 WHERE l_orderkey = o_orderkey AND l_shipdate <= DATE '1995-06-17'`,
	`SELECT l_orderkey, l_extendedprice * (1 - l_discount) AS rev
	 FROM lineitem WHERE l_quantity > 45`,
}

// resultKey renders a materialized result for equality comparison.
func resultKey(res *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%v\n", res.Columns)
	for _, r := range res.Rows {
		fmt.Fprintf(&b, "%v\n", r)
	}
	return b.String()
}

// TestConcurrentQueries runs ≥8 goroutines of mixed statements against one
// DB (on all three engines) and checks every
// answer against the sequential baseline. Run under -race this is the
// thread-safety acceptance test.
func TestConcurrentQueries(t *testing.T) {
	db, err := OpenTPCH(0.002, Options{})
	if err != nil {
		t.Fatal(err)
	}
	baseline := make([]string, len(concurrentQueries))
	for i, q := range concurrentQueries {
		res, err := db.Query(context.Background(), q)
		if err != nil {
			t.Fatalf("baseline %d: %v", i, err)
		}
		baseline[i] = resultKey(res)
	}

	const goroutines = 12
	const iters = 4
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// The goroutines split evenly over the three engines.
			engine := WithEngine([]Engine{EngineVolcano, EngineVec, EnginePush}[g%3])
			for i := 0; i < iters; i++ {
				qi := (g + i) % len(concurrentQueries)
				res, err := db.Query(context.Background(), concurrentQueries[qi], engine)
				if err != nil {
					errc <- fmt.Errorf("goroutine %d query %d: %w", g, qi, err)
					return
				}
				if got := resultKey(res); got != baseline[qi] {
					errc <- fmt.Errorf("goroutine %d query %d: result differs from sequential baseline", g, qi)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestConcurrentProfile runs simulated-CPU profiling from several goroutines
// at once: each Profile builds private CPUs and placements, so they must not
// interfere.
func TestConcurrentProfile(t *testing.T) {
	db, err := OpenTPCH(0.001, Options{})
	if err != nil {
		t.Fatal(err)
	}
	q := `SELECT COUNT(*) AS n FROM lineitem WHERE l_shipdate <= DATE '1995-06-17'`
	want, err := db.Profile(q)
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 4
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			prof, err := db.Profile(q)
			if err != nil {
				errc <- err
				return
			}
			// The simulation is deterministic: concurrent runs must report
			// exactly the sequential counters.
			if prof.Original.Uops != want.Original.Uops || prof.Buffered.Uops != want.Buffered.Uops {
				errc <- fmt.Errorf("concurrent profile diverged: uops %d/%d, want %d/%d",
					prof.Original.Uops, prof.Buffered.Uops, want.Original.Uops, want.Buffered.Uops)
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

func TestQueryStreamRows(t *testing.T) {
	rows, err := testDB.QueryStream(context.Background(),
		`SELECT l_orderkey, l_extendedprice FROM lineitem WHERE l_quantity > 45`)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if cols := rows.Columns(); len(cols) != 2 || cols[0] != "l_orderkey" {
		t.Errorf("columns = %v", cols)
	}
	n := 0
	for rows.Next() {
		var key int64
		var price float64
		if err := rows.Scan(&key, &price); err != nil {
			t.Fatal(err)
		}
		if key <= 0 || price <= 0 {
			t.Fatalf("bad row: key=%d price=%v", key, price)
		}
		n++
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("stream produced no rows")
	}
	// Must match the materializing path.
	res, err := testDB.Query(context.Background(), `SELECT l_orderkey, l_extendedprice FROM lineitem WHERE l_quantity > 45`)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(res.Rows) {
		t.Errorf("streamed %d rows, Query returned %d", n, len(res.Rows))
	}
}

func TestRowsEarlyClose(t *testing.T) {
	rows, err := testDB.QueryStream(context.Background(), `SELECT l_orderkey FROM lineitem`)
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatalf("first Next failed: %v", rows.Err())
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	if rows.Next() {
		t.Error("Next succeeded after Close")
	}
	if err := rows.Err(); err != nil {
		t.Errorf("Err after early Close = %v, want nil", err)
	}
	if err := rows.Scan(new(int64)); !errors.Is(err, ErrRowsClosed) {
		t.Errorf("Scan after Close = %v, want ErrRowsClosed", err)
	}
	if err := rows.Close(); err != nil {
		t.Errorf("second Close = %v", err)
	}
}

func TestQueryStreamCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	rows, err := testDB.QueryStream(ctx, `SELECT l_orderkey FROM lineitem`)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if !rows.Next() {
		t.Fatalf("first Next failed: %v", rows.Err())
	}
	cancel()
	for rows.Next() {
	}
	if err := rows.Err(); !errors.Is(err, context.Canceled) {
		t.Errorf("Err after cancel = %v, want context.Canceled in its chain", err)
	}
}

func TestQueryStreamPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rows, err := testDB.QueryStream(ctx, `SELECT l_orderkey FROM lineitem`)
	if err != nil {
		// Open may already observe the canceled context; that is fine.
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("QueryStream = %v, want context.Canceled in its chain", err)
		}
		return
	}
	defer rows.Close()
	if rows.Next() {
		t.Error("Next succeeded on a pre-canceled context")
	}
	if err := rows.Err(); !errors.Is(err, context.Canceled) {
		t.Errorf("Err = %v, want context.Canceled in its chain", err)
	}
}

func TestSentinelErrors(t *testing.T) {
	if _, err := testDB.Query(context.Background(), `SELECT 1 FROM ghost`); !errors.Is(err, ErrUnknownTable) {
		t.Errorf("missing table error = %v, want ErrUnknownTable in its chain", err)
	}
	_, err := testDB.Query(context.Background(), `SELECT COUNT(*) FROM lineitem`, WithForceJoin("bogus"))
	if !errors.Is(err, ErrBadJoinMethod) {
		t.Errorf("bad join method error = %v, want ErrBadJoinMethod in its chain", err)
	}
	if _, err := testDB.Query(context.Background(), `SELECT COUNT(*) FROM lineitem`, WithEngine("turbo")); !errors.Is(err, ErrUnknownEngine) {
		t.Errorf("unknown engine error = %v, want ErrUnknownEngine in its chain", err)
	}
}
