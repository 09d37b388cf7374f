package server_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"bufferdb"
	"bufferdb/internal/client"
	"bufferdb/internal/obsv"
	"bufferdb/internal/server"
	"bufferdb/internal/wire"
)

// testSF is small enough to generate in milliseconds but large enough that
// a full lineitem scan streams dozens of row batches.
const testSF = 0.002

// newDB builds a test database with memory tracking live.
func newDB(t testing.TB, opts bufferdb.Options) *bufferdb.DB {
	t.Helper()
	if opts.MemoryLimit == 0 {
		opts.MemoryLimit = 256 << 20
	}
	db, err := bufferdb.OpenTPCH(testSF, opts)
	if err != nil {
		t.Fatalf("OpenTPCH: %v", err)
	}
	return db
}

// startServer serves cfg on a loopback listener and tears it down with the
// test. It returns the server and its dial address.
func startServer(t testing.TB, cfg server.Config) (*server.Server, string) {
	t.Helper()
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-done; err != nil && err != server.ErrServerClosed {
			t.Errorf("serve returned: %v", err)
		}
	})
	return srv, l.Addr().String()
}

// dial connects a client and closes it with the test.
func dial(t testing.TB, addr string, cfg client.Config) *client.Client {
	t.Helper()
	c, err := client.Dial(addr, cfg)
	if err != nil {
		t.Fatalf("client.Dial: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// resultString canonicalizes a materialized result for comparison.
func resultString(cols []string, rows [][]any) string {
	var b strings.Builder
	fmt.Fprintln(&b, cols)
	for _, r := range rows {
		fmt.Fprintln(&b, r)
	}
	return b.String()
}

// waitFor polls until cond is true or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// waitGoroutines retries until the goroutine count settles back to (or
// below) the baseline.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	var n int
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		n = runtime.NumGoroutine()
		if n <= base {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutine leak: %d running, baseline %d", n, base)
}

const aggQuery = `SELECT l_returnflag, COUNT(*), SUM(l_extendedprice) FROM lineitem
 WHERE l_quantity > 10 GROUP BY l_returnflag ORDER BY l_returnflag`

// slowQuery streams the whole lineitem table; paired with slowHook it
// stays genuinely in flight for seconds, so tests can cancel, disconnect
// or shut down mid-stream without racing query completion. (Without the
// throttle the full result fits in kernel socket buffers and the server
// finishes before the client reads row two.)
// resultCacheBytes is the result cache's charged bytes. It is one gauge
// for the process, and each test's server empties its cache when the test
// ends, so a test reads its own cache's bytes.
var resultCacheBytes = obsv.Default.Gauge("bufferdbd_result_cache_bytes")

const slowQuery = `SELECT l_orderkey, l_extendedprice FROM lineitem WHERE l_orderkey > 0`

// slowHook throttles slowQuery server-side: 2ms per scanned row.
func slowHook(sql string) *bufferdb.FaultInjector {
	if !strings.Contains(sql, "l_orderkey > 0") {
		return nil
	}
	return bufferdb.NewFaultInjector(1, bufferdb.Fault{
		Match: "Scan", Kind: bufferdb.FaultLatency, Latency: 2 * time.Millisecond, Every: 1,
	})
}

// TestQueryRoundTrip asserts a remote query returns exactly what the
// embedded engine returns, across value types.
func TestQueryRoundTrip(t *testing.T) {
	db := newDB(t, bufferdb.Options{})
	_, addr := startServer(t, server.Config{DB: db})
	c := dial(t, addr, client.Config{})

	queries := []string{
		aggQuery,
		`SELECT COUNT(*) FROM lineitem`,
		// Dates, strings, floats and NULL-free ints in one projection.
		`SELECT l_orderkey, l_linenumber, l_shipdate, l_comment, l_discount FROM lineitem
		 WHERE l_orderkey < 100 ORDER BY l_orderkey, l_linenumber LIMIT 20`,
		`SELECT COUNT(*) FROM lineitem, orders WHERE l_orderkey = o_orderkey AND o_totalprice > 1000`,
	}
	for _, q := range queries {
		local, err := db.Query(context.Background(), q)
		if err != nil {
			t.Fatalf("local %q: %v", q, err)
		}
		remote, err := c.QueryAll(context.Background(), q)
		if err != nil {
			t.Fatalf("remote %q: %v", q, err)
		}
		want := resultString(local.Columns, local.Rows)
		got := resultString(remote.Columns, remote.Rows)
		if got != want {
			t.Fatalf("query %q:\nremote %s\nlocal %s", q, got, want)
		}
	}
}

// TestQueryErrors asserts statement failures come back as typed error
// frames that keep the session usable.
func TestQueryErrors(t *testing.T) {
	db := newDB(t, bufferdb.Options{})
	_, addr := startServer(t, server.Config{DB: db})
	c := dial(t, addr, client.Config{})

	_, err := c.QueryAll(context.Background(), "SELECT * FROM nosuchtable")
	var serr *client.ServerError
	if !errors.As(err, &serr) || serr.Code != wire.CodeQuery {
		t.Fatalf("unknown table: got %v, want ServerError with CodeQuery", err)
	}
	if !strings.Contains(serr.Msg, "nosuchtable") {
		t.Fatalf("error message lost the table name: %q", serr.Msg)
	}
	if _, err := c.QueryAll(context.Background(), "SELECT"); err == nil {
		t.Fatal("parse error did not surface")
	}
	// The session survives failed statements.
	if _, err := c.QueryAll(context.Background(), "SELECT COUNT(*) FROM nation"); err != nil {
		t.Fatalf("query after errors: %v", err)
	}
}

// TestTables asserts the catalog frame.
func TestTables(t *testing.T) {
	db := newDB(t, bufferdb.Options{})
	_, addr := startServer(t, server.Config{DB: db})
	c := dial(t, addr, client.Config{})
	tabs, err := c.Tables(context.Background())
	if err != nil {
		t.Fatalf("Tables: %v", err)
	}
	if len(tabs) != 8 {
		t.Fatalf("got %d tables: %v", len(tabs), tabs)
	}
	byName := map[string]uint64{}
	for _, ti := range tabs {
		byName[ti.Name] = ti.Rows
	}
	if byName["nation"] != 25 {
		t.Fatalf("nation rows = %d, want 25", byName["nation"])
	}
}

// TestConcurrentClients drives 32 concurrent client connections through
// the admission-controlled engine and asserts every query answers
// correctly — the issue's end-to-end concurrency bar.
func TestConcurrentClients(t *testing.T) {
	db := newDB(t, bufferdb.Options{
		Admission: bufferdb.AdmissionConfig{MaxConcurrent: 8, MaxQueued: 64},
	})
	_, addr := startServer(t, server.Config{DB: db})

	want, err := db.Query(context.Background(), aggQuery)
	if err != nil {
		t.Fatal(err)
	}
	wantStr := resultString(want.Columns, want.Rows)

	const clients = 32
	const queriesEach = 3
	var wg sync.WaitGroup
	errs := make(chan error, clients*queriesEach)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := client.Dial(addr, client.Config{MaxConns: 1})
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for j := 0; j < queriesEach; j++ {
				res, err := c.QueryAll(context.Background(), aggQuery)
				if err != nil {
					errs <- err
					return
				}
				if got := resultString(res.Columns, res.Rows); got != wantStr {
					errs <- fmt.Errorf("wrong result:\n%s", got)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if db.TrackedBytes() != 0 {
		t.Fatalf("tracked bytes after drain: %d", db.TrackedBytes())
	}
}

// TestBusyTypedAndRetry asserts admission shedding surfaces as
// bufferdb.ErrServerBusy through the wire once the client's retries run
// out, and that its backoff-retry path rides out transient saturation.
func TestBusyTypedAndRetry(t *testing.T) {
	db := newDB(t, bufferdb.Options{
		Admission: bufferdb.AdmissionConfig{MaxConcurrent: 1, MaxQueued: 0},
	})
	// shortQuery scans nation's 25 rows at 1ms each: it holds the slot for
	// about 25 ms and then frees it by itself.
	const shortQuery = `SELECT n_name FROM nation WHERE n_nationkey >= 0`
	hook := func(sql string) *bufferdb.FaultInjector {
		if sql == shortQuery {
			return bufferdb.NewFaultInjector(1, bufferdb.Fault{
				Match: "Scan", Kind: bufferdb.FaultLatency, Latency: time.Millisecond, Every: 1,
			})
		}
		return slowHook(sql)
	}
	_, addr := startServer(t, server.Config{DB: db, FaultHook: hook, BatchRows: 32})

	holder := dial(t, addr, client.Config{MaxConns: 2})
	// Hold the only slot: stream without draining (the slot is released at
	// the last row frame or Close).
	rows, err := holder.Query(context.Background(), slowQuery)
	if err != nil {
		t.Fatalf("holder query: %v", err)
	}
	if !rows.Next() {
		t.Fatalf("holder stream empty: %v", rows.Err())
	}

	// The slot stays held through every retry: the busy error surfaces,
	// typed.
	_, err = holder.QueryAll(context.Background(), "SELECT COUNT(*) FROM nation")
	if !errors.Is(err, bufferdb.ErrServerBusy) {
		t.Fatalf("got %v, want ErrServerBusy", err)
	}
	rows.Close()
	waitFor(t, "admission slot release", func() bool {
		_, err := holder.QueryAll(context.Background(), "SELECT COUNT(*) FROM nation")
		return err == nil
	})

	// The slot frees while the client backs off (its retries come 10, 30
	// and 70 ms after the first attempt), and the query succeeds.
	short, err := holder.Query(context.Background(), shortQuery)
	if err != nil {
		t.Fatalf("short holder query: %v", err)
	}
	defer short.Close()
	retrier := dial(t, addr, client.Config{MaxConns: 1})
	start := time.Now()
	if _, err := retrier.QueryAll(context.Background(), "SELECT COUNT(*) FROM nation"); err != nil {
		t.Fatalf("retried query failed: %v", err)
	}
	if waited := time.Since(start); waited < 10*time.Millisecond {
		t.Fatalf("query ran after %v: it was never shed, so no retry was exercised", waited)
	}
}

// TestMemoryBudgetOverWire asserts a memory-limit overrun crosses the wire
// typed.
func TestMemoryBudgetOverWire(t *testing.T) {
	db := newDB(t, bufferdb.Options{MemoryLimit: 32 << 10})
	_, addr := startServer(t, server.Config{DB: db})
	c := dial(t, addr, client.Config{})
	_, err := c.QueryAll(context.Background(),
		"SELECT COUNT(*) FROM lineitem, orders WHERE l_orderkey = o_orderkey")
	if !errors.Is(err, bufferdb.ErrMemoryBudgetExceeded) {
		t.Fatalf("got %v, want ErrMemoryBudgetExceeded", err)
	}
	if db.TrackedBytes() != 0 {
		t.Fatalf("tracked bytes after OOM: %d", db.TrackedBytes())
	}
}

// TestCancelMidStream cancels a query's context while its result streams
// and asserts the cancel frame reaches the server: the slot frees, memory
// drains, and the connection serves the next query.
func TestCancelMidStream(t *testing.T) {
	db := newDB(t, bufferdb.Options{
		Admission: bufferdb.AdmissionConfig{MaxConcurrent: 1, MaxQueued: 0},
	})
	_, addr := startServer(t, server.Config{DB: db, FaultHook: slowHook, BatchRows: 32})
	c := dial(t, addr, client.Config{MaxConns: 2})

	ctx, cancel := context.WithCancel(context.Background())
	rows, err := c.Query(ctx, slowQuery)
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if !rows.Next() {
		t.Fatalf("no first row: %v", rows.Err())
	}
	cancel()
	for rows.Next() {
	}
	if err := rows.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	rows.Close()

	// The canceled query's admission slot (MaxConcurrent=1) must be free.
	waitFor(t, "admission slot release", func() bool {
		_, err := c.QueryAll(context.Background(), "SELECT COUNT(*) FROM nation")
		return err == nil
	})
	waitFor(t, "tracked bytes drain", func() bool { return db.TrackedBytes() == 0 })
}

// TestGoroutineLeakClientDisconnect kills a raw connection mid-stream and
// asserts the server cancels the query, frees its admission slot, returns
// tracked memory to zero and leaks no goroutines.
func TestGoroutineLeakClientDisconnect(t *testing.T) {
	db := newDB(t, bufferdb.Options{
		Admission: bufferdb.AdmissionConfig{MaxConcurrent: 1, MaxQueued: 0},
	})
	_, addr := startServer(t, server.Config{DB: db, FaultHook: slowHook, BatchRows: 32})
	base := runtime.NumGoroutine()

	// Speak the protocol by hand so the disconnect is abrupt: no Cancel
	// frame, no drain — just a dead socket mid-stream.
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	var hello wire.Builder
	hello.U32(wire.Magic)
	hello.U8(wire.Version)
	if err := wire.WriteFrame(nc, wire.THello, hello.Bytes()); err != nil {
		t.Fatal(err)
	}
	if ft, _, err := wire.ReadFrame(nc); err != nil || ft != wire.THelloOK {
		t.Fatalf("handshake: %v %v", ft, err)
	}
	var q wire.Builder
	q.Opts(wire.QueryOpts{})
	q.String(slowQuery)
	if err := wire.WriteFrame(nc, wire.TQuery, q.Bytes()); err != nil {
		t.Fatal(err)
	}
	if ft, _, err := wire.ReadFrame(nc); err != nil || ft != wire.TColumns {
		t.Fatalf("columns: %v %v", ft, err)
	}
	if ft, _, err := wire.ReadFrame(nc); err != nil || ft != wire.TRowBatch {
		t.Fatalf("first batch: %v %v", ft, err)
	}
	nc.Close()

	waitFor(t, "tracked bytes drain after disconnect", func() bool { return db.TrackedBytes() == 0 })
	// The slot must be free for the next client.
	c := dial(t, addr, client.Config{})
	waitFor(t, "admission slot release after disconnect", func() bool {
		_, err := c.QueryAll(context.Background(), "SELECT COUNT(*) FROM nation")
		return err == nil
	})
	c.Close()
	waitGoroutines(t, base)
}

// TestGoroutineLeakServerShutdown shuts the server down with a query
// streaming and asserts everything unwinds: Shutdown returns, the query's
// memory drains, no goroutines leak, and the client sees a typed error.
func TestGoroutineLeakServerShutdown(t *testing.T) {
	db := newDB(t, bufferdb.Options{})
	srv, err := server.New(server.Config{DB: db, FaultHook: slowHook, BatchRows: 32})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()

	c, err := client.Dial(l.Addr().String(), client.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rows, err := c.Query(context.Background(), slowQuery)
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatalf("no first row: %v", rows.Err())
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-done; err != server.ErrServerClosed {
		t.Fatalf("serve returned %v", err)
	}
	// Drain the client cursor; it must terminate (shutdown error frame or
	// closed connection), not hang.
	for rows.Next() {
	}
	if rows.Err() == nil {
		t.Fatal("stream survived server shutdown without an error")
	}
	rows.Close()
	c.Close()

	waitFor(t, "tracked bytes drain after shutdown", func() bool { return db.TrackedBytes() == 0 })
	waitGoroutines(t, base)
}

// TestPreparedReuse asserts prepared statements execute correctly and that
// the database's plan cache shares one plan across connections: a prepared
// statement is its text, so each execution binds the template the ad hoc
// query left.
func TestPreparedReuse(t *testing.T) {
	db := newDB(t, bufferdb.Options{})
	_, addr := startServer(t, server.Config{DB: db})

	hits := obsv.Default.Counter("bufferdb_plan_cache_hits_total")
	misses := obsv.Default.Counter("bufferdb_plan_cache_misses_total")
	h0, m0 := hits.Value(), misses.Value()

	want, err := db.Query(context.Background(), aggQuery)
	if err != nil {
		t.Fatal(err)
	}
	wantStr := resultString(want.Columns, want.Rows)

	c1 := dial(t, addr, client.Config{MaxConns: 1})
	st := c1.Prepare(aggQuery)
	for i := 0; i < 3; i++ {
		res, err := st.QueryAll(context.Background())
		if err != nil {
			t.Fatalf("execute %d: %v", i, err)
		}
		if got := resultString(res.Columns, res.Rows); got != wantStr {
			t.Fatalf("execute %d: wrong result", i)
		}
	}
	// The ad hoc query planned the text; each of the three executions
	// bound its template.
	if got := misses.Value() - m0; got != 1 {
		t.Fatalf("plan cache misses = %d, want 1", got)
	}
	if got := hits.Value() - h0; got != 3 {
		t.Fatalf("plan cache hits = %d, want 3", got)
	}

	// A second client preparing the same SQL shares the plan too.
	c2 := dial(t, addr, client.Config{MaxConns: 1})
	if _, err := c2.Prepare(aggQuery).QueryAll(context.Background()); err != nil {
		t.Fatalf("second client: %v", err)
	}
	if got := hits.Value() - h0; got != 4 {
		t.Fatalf("plan cache hits = %d, want 4", got)
	}
	if got := misses.Value() - m0; got != 1 {
		t.Fatalf("plan cache misses = %d, want 1", got)
	}

	// An invalid statement fails typed at its first execution.
	if _, err := c1.Prepare("SELECT * FROM ghost").QueryAll(context.Background()); err == nil {
		t.Fatal("prepare of unknown table succeeded")
	}
}

// TestPreparedResultCache: a prepared statement takes the Query path, so
// on a daemon with a result cache it shares the entry of its text. The ad
// hoc run is the text's first sighting and caches nothing; the first
// prepared execution is the second sighting and stores the result; the
// next replays it, byte for byte. An INSERT into its table makes it execute
// again and see the new row.
func TestPreparedResultCache(t *testing.T) {
	db := newDB(t, bufferdb.Options{DataDir: t.TempDir()})
	t.Cleanup(func() { db.Close() })
	_, addr := startServer(t, server.Config{DB: db, ResultCacheBytes: 1 << 20})
	c := dial(t, addr, client.Config{MaxConns: 1})

	cached := obsv.Default.Counter(`bufferdbd_queries_total{source="cached"}`)
	const q = "SELECT r_regionkey, r_name FROM region ORDER BY r_regionkey"
	st := c.Prepare(q)

	c0 := cached.Value()
	adhoc, err := c.QueryAll(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if got := resultCacheBytes.Value(); got != 0 {
		t.Fatalf("a first sighting left %v bytes in the result cache", got)
	}
	var res *client.Result
	for i, wantReplays := range []uint64{0, 1} {
		if res, err = st.QueryAll(context.Background()); err != nil {
			t.Fatal(err)
		}
		if got := cached.Value() - c0; got != wantReplays {
			t.Fatalf("prepared execution %d: %d cached replays, want %d", i+1, got, wantReplays)
		}
		if !reflect.DeepEqual(res, adhoc) {
			t.Fatalf("prepared execution %d: %v differs from the ad hoc result %v", i+1, res, adhoc)
		}
	}

	if _, err := c.QueryAll(context.Background(),
		`INSERT INTO region VALUES (7, 'MU', 'hypothetical')`); err != nil {
		t.Fatal(err)
	}
	c1 := cached.Value()
	res, err = st.QueryAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := cached.Value() - c1; got != 0 {
		t.Fatal("prepared execution after an INSERT was replayed from the cache")
	}
	if len(res.Rows) != len(adhoc.Rows)+1 {
		t.Fatalf("after INSERT: %d rows, want %d", len(res.Rows), len(adhoc.Rows)+1)
	}
	if last := res.Rows[len(res.Rows)-1]; last[0] != int64(7) || last[1] != "MU" {
		t.Fatalf("after INSERT: last row %v, want [7 MU]", last)
	}
}

// TestResultCacheReuse asserts the opt-in result cache replays identical
// read-only queries byte-for-byte and honors the per-statement opt-out.
func TestResultCacheReuse(t *testing.T) {
	db := newDB(t, bufferdb.Options{})
	_, addr := startServer(t, server.Config{DB: db, ResultCacheBytes: 1 << 20})
	c := dial(t, addr, client.Config{MaxConns: 1})

	hits := obsv.Default.Counter("bufferdbd_result_cache_hits_total")
	cached := obsv.Default.Counter(`bufferdbd_queries_total{source="cached"}`)
	h0, c0 := hits.Value(), cached.Value()

	// The first sighting is deferred, the second stored, the third replayed.
	var runs [3]string
	for i := range runs {
		res, err := c.QueryAll(context.Background(), aggQuery)
		if err != nil {
			t.Fatal(err)
		}
		runs[i] = resultString(res.Columns, res.Rows)
		if i == 0 && resultCacheBytes.Value() != 0 {
			t.Fatalf("a first sighting left %v bytes in the result cache", resultCacheBytes.Value())
		}
		if i == 1 && hits.Value() != h0 {
			t.Fatalf("the second sighting hit the cache (%d hits)", hits.Value()-h0)
		}
	}
	if runs[0] != runs[1] || runs[0] != runs[2] {
		t.Fatal("cached replay differs from the original result")
	}
	if hits.Value()-h0 != 1 || cached.Value()-c0 != 1 {
		t.Fatalf("cache hit not recorded (hits %d, cached %d)", hits.Value()-h0, cached.Value()-c0)
	}

	// Opt-out skips the cache.
	if _, err := c.QueryAll(context.Background(), aggQuery, client.WithoutResultCache()); err != nil {
		t.Fatal(err)
	}
	if hits.Value()-h0 != 1 {
		t.Fatal("opt-out query hit the cache")
	}

	// Frame for frame: the batches the session encodes from the cursor's
	// typed rows are what the cache stores, so a replay is byte-equal to the
	// stream that filled it — dates, strings and floats included.
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	_ = nc.SetDeadline(time.Now().Add(30 * time.Second))
	var hello wire.Builder
	hello.U32(wire.Magic)
	hello.U8(wire.Version)
	if err := wire.WriteFrame(nc, wire.THello, hello.Bytes()); err != nil {
		t.Fatal(err)
	}
	if ft, _, err := wire.ReadFrame(nc); err != nil || ft != wire.THelloOK {
		t.Fatalf("handshake: %v %v", ft, err)
	}
	exchange := func() (frames [][]byte) {
		t.Helper()
		var q wire.Builder
		q.Opts(wire.QueryOpts{})
		q.String(`SELECT l_orderkey, l_shipdate, l_comment, l_discount FROM lineitem WHERE l_orderkey < 400`)
		if err := wire.WriteFrame(nc, wire.TQuery, q.Bytes()); err != nil {
			t.Fatal(err)
		}
		for {
			ft, p, err := wire.ReadFrame(nc)
			if err != nil {
				t.Fatalf("reading the stream: %v", err)
			}
			frames = append(frames, append([]byte{byte(ft)}, p...))
			if ft == wire.TDone {
				return frames
			}
			if ft != wire.TColumns && ft != wire.TRowBatch {
				t.Fatalf("unexpected %s frame: %q", ft, p)
			}
		}
	}
	exchange() // first sighting: deferred
	fresh := exchange()
	replay := exchange()
	if hits.Value()-h0 != 2 {
		t.Fatalf("third raw exchange was not a cache hit (hits %d)", hits.Value()-h0)
	}
	if len(fresh) < 4 {
		t.Fatalf("stream of %d frames; want several row batches", len(fresh))
	}
	if len(replay) != len(fresh) {
		t.Fatalf("replay has %d frames, fresh stream %d", len(replay), len(fresh))
	}
	for i := range fresh {
		if !bytes.Equal(fresh[i], replay[i]) {
			t.Fatalf("frame %d of the replay differs from the fresh stream", i)
		}
	}
}

// TestResultCachePerTableInvalidation: an INSERT drops exactly the cached
// results that read its target table — entries over untouched tables keep
// replaying, and the re-executed query sees the new rows.
func TestResultCachePerTableInvalidation(t *testing.T) {
	db := newDB(t, bufferdb.Options{DataDir: t.TempDir()})
	t.Cleanup(func() { db.Close() })
	_, addr := startServer(t, server.Config{DB: db, ResultCacheBytes: 1 << 20})
	c := dial(t, addr, client.Config{MaxConns: 1})

	hits := obsv.Default.Counter("bufferdbd_result_cache_hits_total")
	invals := obsv.Default.Counter("bufferdbd_result_cache_invalidations_total")

	const regionCount = "SELECT COUNT(*) FROM region"
	const nationCount = "SELECT COUNT(*) FROM nation"
	run := func(q string) int64 {
		t.Helper()
		res, err := c.QueryAll(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		return res.Rows[0][0].(int64)
	}

	// First sightings cache nothing; the second populate both entries.
	before := run(regionCount)
	run(nationCount)
	if got := resultCacheBytes.Value(); got != 0 {
		t.Fatalf("first sightings left %v bytes in the result cache", got)
	}
	run(regionCount)
	run(nationCount)

	// Both replay from the cache.
	h0 := hits.Value()
	run(regionCount)
	run(nationCount)
	if got := hits.Value() - h0; got != 2 {
		t.Fatalf("warm replays recorded %d hits, want 2", got)
	}

	// A write to region must drop the region entry but spare nation.
	i0 := invals.Value()
	if _, err := c.QueryAll(context.Background(),
		`INSERT INTO region VALUES (7, 'MU', 'hypothetical')`); err != nil {
		t.Fatal(err)
	}
	if got := invals.Value() - i0; got != 1 {
		t.Fatalf("INSERT invalidated %d entries, want exactly 1 (the region result)", got)
	}

	// The region query re-executes and sees the insert; nation still replays.
	h1 := hits.Value()
	if after := run(regionCount); after != before+1 {
		t.Fatalf("region count after INSERT = %d, want %d (stale replay?)", after, before+1)
	}
	run(nationCount)
	if got := hits.Value() - h1; got != 1 {
		t.Fatalf("post-write queries recorded %d hits, want 1 (nation only)", got)
	}

	// A JOIN … ON statement reads both of its tables: an INSERT into
	// either one drops its entry.
	const joinCount = "SELECT COUNT(*) FROM nation JOIN region ON n_regionkey = r_regionkey"
	run(joinCount) // first sighting
	for _, w := range []struct {
		insert string
		added  int64 // joined rows the insert adds
	}{
		{`INSERT INTO region VALUES (8, 'NU', 'no nations')`, 0},
		{`INSERT INTO nation VALUES (25, 'ATLANTIS', 0, 'sunk')`, 1},
	} {
		before := run(joinCount)
		h := hits.Value()
		run(joinCount)
		if got := hits.Value() - h; got != 1 {
			t.Fatalf("join replay before %q recorded %d hits, want 1", w.insert, got)
		}
		if _, err := c.QueryAll(context.Background(), w.insert); err != nil {
			t.Fatal(err)
		}
		h = hits.Value()
		if after := run(joinCount); after != before+w.added {
			t.Fatalf("join count after %q = %d, want %d", w.insert, after, before+w.added)
		}
		if got := hits.Value() - h; got != 0 {
			t.Fatalf("join after %q was replayed from the cache", w.insert)
		}
	}
}

// TestResultCacheWriteOutsideSession: a write that never passes through a
// session — here one made in-process on the served database — still makes
// the cached results over its table stale, because an entry is judged by
// its read set's epochs when it is looked up. The text is stored on its
// second run and replayed on its third.
func TestResultCacheWriteOutsideSession(t *testing.T) {
	db := newDB(t, bufferdb.Options{DataDir: t.TempDir()})
	t.Cleanup(func() { db.Close() })
	_, addr := startServer(t, server.Config{DB: db, ResultCacheBytes: 1 << 20})
	c := dial(t, addr, client.Config{MaxConns: 1})

	cached := obsv.Default.Counter(`bufferdbd_queries_total{source="cached"}`)
	const q = "SELECT COUNT(*) FROM region"
	count := func() int64 {
		t.Helper()
		res, err := c.QueryAll(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		return res.Rows[0][0].(int64)
	}

	c0 := cached.Value()
	before := count()
	for i, wantReplays := range []uint64{0, 1} {
		if again := count(); again != before || cached.Value()-c0 != wantReplays {
			t.Fatalf("run %d: count %d, %d cached replays; want %d and %d", i+2, again, cached.Value()-c0, before, wantReplays)
		}
	}
	if _, err := db.Query(context.Background(),
		`INSERT INTO region VALUES (7, 'MU', 'hypothetical')`); err != nil {
		t.Fatal(err)
	}
	if after := count(); after != before+1 {
		t.Fatalf("count after an in-process INSERT = %d, want %d (stale replay)", after, before+1)
	}
}

// TestResultCacheOneOffTexts: a served mix of one-off texts caches nothing.
// Each of 2 000 point lookups carries its own sentinel literal, so neither
// its bound shape (the result cache's key) nor its join build (the reuse cache's)
// is ever seen twice: both caches defer every one and stay empty. A
// dashboard text run three times is stored on its second run and replayed
// on its third.
func TestResultCacheOneOffTexts(t *testing.T) {
	db := newDB(t, bufferdb.Options{ReuseCache: true})
	t.Cleanup(func() { db.Close() })
	_, addr := startServer(t, server.Config{DB: db, ResultCacheBytes: 8 << 20})
	c := dial(t, addr, client.Config{MaxConns: 1})
	ctx := context.Background()

	reuseBytes := obsv.Default.Gauge("bufferdb_reuse_bytes")
	deferred := obsv.Default.Counter("bufferdbd_result_cache_deferred_total")
	cached := obsv.Default.Counter(`bufferdbd_queries_total{source="cached"}`)
	d0, c0 := deferred.Value(), cached.Value()
	const lookups = 2000
	for i := 0; i < lookups; i++ {
		q := fmt.Sprintf("SELECT n_name, r_name FROM nation, region WHERE n_regionkey = r_regionkey"+
			" AND n_nationkey = %d AND n_nationkey <> %d AND r_regionkey <> %d", i%25, -i-1, -i-1)
		res, err := c.QueryAll(ctx, q)
		if err != nil {
			t.Fatalf("lookup %d: %v", i, err)
		}
		if len(res.Rows) != 1 {
			t.Fatalf("lookup %d: %d rows, want 1", i, len(res.Rows))
		}
	}
	if got := deferred.Value() - d0; got != lookups {
		t.Errorf("result cache deferred %d of %d one-off texts", got, lookups)
	}
	if st := db.ReuseStats(); st.Bytes != 0 || st.Entries != 0 || st.Deferred < lookups {
		t.Errorf("reuse cache after %d one-off lookups: %+v, want empty with every build deferred", lookups, st)
	}
	if rb, cb := reuseBytes.Value(), resultCacheBytes.Value(); rb != 0 || cb != 0 {
		t.Errorf("bufferdb_reuse_bytes %v and bufferdbd_result_cache_bytes %v after one-off texts, want 0 and 0", rb, cb)
	}

	const dashboard = "SELECT l_shipmode AS grp, SUM(l_extendedprice * (1 - l_discount)) AS revenue, COUNT(*) AS n" +
		" FROM lineitem WHERE l_shipdate >= DATE '1995-01-01' AND l_shipdate < DATE '1996-01-01'" +
		" GROUP BY l_shipmode ORDER BY 1"
	var first string
	for run, wantReplays := range []uint64{0, 0, 1} {
		res, err := c.QueryAll(ctx, dashboard)
		if err != nil {
			t.Fatalf("dashboard run %d: %v", run+1, err)
		}
		if got := resultString(res.Columns, res.Rows); run == 0 {
			first = got
		} else if got != first {
			t.Fatalf("dashboard run %d differs from the first:\n%s\nwant\n%s", run+1, got, first)
		}
		if got := cached.Value() - c0; got != wantReplays {
			t.Fatalf("dashboard run %d: %d replays, want %d", run+1, got, wantReplays)
		}
		// A result is stored after its Done frame went out, so the client
		// can read the gauge before the second run's store; the session
		// stores it before it reads the third run's query.
		if stored := resultCacheBytes.Value() > 0; run != 1 && stored != (run == 2) {
			t.Fatalf("dashboard run %d: result cache holds %v bytes", run+1, resultCacheBytes.Value())
		}
	}
}

// TestResultCacheShapeIdentity: the result cache is keyed by the slice and
// the statement's bound shape, not its text. A dashboard and a variant
// that renames its output aliases and changes keyword case, whitespace and
// comments share one entry, each replayed under its own header. A bound
// literal keeps its text, so = 1 and = 01 are two entries, and one slice
// never replays another slice's entry.
func TestResultCacheShapeIdentity(t *testing.T) {
	dbs, err := bufferdb.OpenTPCHReplicas(testSF, bufferdb.Options{MemoryLimit: 256 << 20}, 3, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for _, db := range dbs {
			db.Close()
		}
	})
	_, addr := startServer(t, server.Config{DB: dbs[0], Slices: dbs, ResultCacheBytes: 1 << 20})
	c := dial(t, addr, client.Config{MaxConns: 1})
	cached := obsv.Default.Counter(`bufferdbd_queries_total{source="cached"}`)
	run := func(q string, wantReplays uint64, opts ...client.Option) *client.Result {
		t.Helper()
		c0 := cached.Value()
		res, err := c.QueryAll(context.Background(), q, opts...)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		if got := cached.Value() - c0; got != wantReplays {
			t.Fatalf("%q: %d replays, want %d", q, got, wantReplays)
		}
		return res
	}

	const dashboard = "SELECT l_shipmode AS grp, SUM(l_extendedprice * (1 - l_discount)) AS revenue, COUNT(*) AS n" +
		" FROM lineitem WHERE l_shipdate >= DATE '1995-01-01' AND l_shipdate < DATE '1996-01-01'" +
		" GROUP BY l_shipmode ORDER BY 1"
	const variant = "select l_shipmode as Mode, sum(l_extendedprice * (1 - l_discount)) as REV, count(*) as cnt" +
		" -- the dashboard, renamed\n  from lineitem where l_shipdate >= date '1995-01-01'" +
		"\tand l_shipdate < date '1996-01-01' group by l_shipmode order by 1"
	first := run(dashboard, 0)
	run(dashboard, 0) // the key's second miss: stored
	for _, tc := range []struct {
		text string
		cols []string
	}{{variant, []string{"Mode", "REV", "cnt"}}, {dashboard, []string{"grp", "revenue", "n"}}} {
		res := run(tc.text, 1)
		if !reflect.DeepEqual(res.Columns, tc.cols) {
			t.Errorf("%q replayed under %q, want %q", tc.text, res.Columns, tc.cols)
		}
		if !reflect.DeepEqual(res.Rows, first.Rows) {
			t.Errorf("%q replayed rows differ from the dashboard's", tc.text)
		}
	}

	// A literal's text is part of the key: 01 and 2 miss where 1 is stored.
	const nation = "SELECT n_name FROM nation WHERE n_nationkey = "
	var one *client.Result
	for _, want := range []uint64{0, 0, 1} {
		one = run(nation+"1", want)
	}
	if res := run(nation+"01", 0); !reflect.DeepEqual(res.Rows, one.Rows) {
		t.Fatalf("= 01 returned %v, = 1 %v", res.Rows, one.Rows)
	}
	if res := run(nation+"2", 0); reflect.DeepEqual(res.Rows, one.Rows) {
		t.Fatalf("= 2 returned = 1's rows %v", res.Rows)
	}

	// Each slice answers from its own entries.
	const count = "SELECT COUNT(*) FROM lineitem"
	for _, want := range []uint64{0, 0, 1} {
		run(count, want, client.WithSlice(0))
	}
	res := run(count, 0, client.WithSlice(1))
	local, err := dbs[1].Query(context.Background(), count)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Rows[0][0], local.Rows[0][0]; got != want {
		t.Fatalf("slice 1 counted %v rows, its database %v", got, want)
	}
}

// TestServerMetrics spot-checks the serving-layer counters.
func TestServerMetrics(t *testing.T) {
	db := newDB(t, bufferdb.Options{})
	_, addr := startServer(t, server.Config{DB: db})

	conns := obsv.Default.Counter("bufferdbd_connections_total")
	adhoc := obsv.Default.Counter(`bufferdbd_queries_total{source="adhoc"}`)
	bytesSent := obsv.Default.Counter("bufferdbd_bytes_sent_total")
	c0, a0, b0 := conns.Value(), adhoc.Value(), bytesSent.Value()

	c := dial(t, addr, client.Config{MaxConns: 1})
	if _, err := c.QueryAll(context.Background(), "SELECT COUNT(*) FROM nation"); err != nil {
		t.Fatal(err)
	}
	if conns.Value()-c0 != 1 {
		t.Fatalf("connections delta = %d", conns.Value()-c0)
	}
	if adhoc.Value()-a0 != 1 {
		t.Fatalf("adhoc queries delta = %d", adhoc.Value()-a0)
	}
	if bytesSent.Value() == b0 {
		t.Fatal("bytes sent did not move")
	}
	var sb strings.Builder
	if err := bufferdb.WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "bufferdbd_connections_total") {
		t.Fatal("serving metrics missing from the registry export")
	}
}

// TestOptionConformanceOverWire asserts the served query options —
// timeout, per-query memory budget, result-cache opt-out — are applied
// server-side with the same semantics as the embedded API: valid values
// leave results unchanged, invalid values are rejected with the server's
// validation errors, and budget overruns come back typed.
func TestOptionConformanceOverWire(t *testing.T) {
	db := newDB(t, bufferdb.Options{})
	_, addr := startServer(t, server.Config{DB: db})
	c := dial(t, addr, client.Config{})

	join := `SELECT o_orderpriority, COUNT(*) FROM lineitem, orders
	 WHERE l_orderkey = o_orderkey GROUP BY o_orderpriority ORDER BY o_orderpriority`
	want, err := db.Query(context.Background(), join)
	if err != nil {
		t.Fatalf("local join: %v", err)
	}
	ref := resultString(want.Columns, want.Rows)

	for _, opt := range []struct {
		name string
		o    client.Option
	}{
		{"timeout", client.WithTimeout(time.Minute)},
		{"no result cache", client.WithoutResultCache()},
	} {
		res, err := c.QueryAll(context.Background(), join, opt.o)
		if err != nil {
			t.Fatalf("%s: %v", opt.name, err)
		}
		if got := resultString(res.Columns, res.Rows); got != ref {
			t.Fatalf("%s: result diverged from embedded engine:\n%s\nwant:\n%s", opt.name, got, ref)
		}
	}

	// Server-side validation: negative values are rejected before
	// execution, as CodeQuery with the server's message.
	rejections := []struct {
		name string
		o    client.Option
		msg  string
	}{
		{"negative budget", client.WithMemoryBudget(-1), "negative memory budget"},
		{"negative timeout", client.WithTimeout(-time.Millisecond), "negative timeout"},
	}
	for _, rj := range rejections {
		_, err := c.QueryAll(context.Background(), join, rj.o)
		var serr *client.ServerError
		if !errors.As(err, &serr) || serr.Code != wire.CodeQuery {
			t.Fatalf("%s: got %v, want CodeQuery ServerError", rj.name, err)
		}
		if !strings.Contains(err.Error(), rj.msg) {
			t.Fatalf("%s: message %q does not mention %q", rj.name, err, rj.msg)
		}
	}

	// A per-query budget (not a server-wide limit) must trip typed, and
	// release everything it tracked.
	_, err = c.QueryAll(context.Background(), join, client.WithMemoryBudget(512))
	if !errors.Is(err, bufferdb.ErrMemoryBudgetExceeded) {
		t.Fatalf("tiny budget: got %v, want ErrMemoryBudgetExceeded", err)
	}
	if db.TrackedBytes() != 0 {
		t.Fatalf("tracked bytes after per-query OOM: %d", db.TrackedBytes())
	}

	// A generous budget on the same query succeeds with the same rows.
	res, err := c.QueryAll(context.Background(), join, client.WithMemoryBudget(128<<20))
	if err != nil {
		t.Fatalf("generous budget: %v", err)
	}
	if got := resultString(res.Columns, res.Rows); got != ref {
		t.Fatalf("budgeted run diverged from embedded engine")
	}
}

// TestAdmissionWaitOverWire asserts the daemon's admission wait holds over
// the wire: with the only slot held, a query sheds as ErrServerBusy in
// roughly the configured wait instead of queueing indefinitely.
func TestAdmissionWaitOverWire(t *testing.T) {
	db := newDB(t, bufferdb.Options{
		Admission: bufferdb.AdmissionConfig{MaxConcurrent: 1, MaxQueued: 4, WaitTimeout: 50 * time.Millisecond},
	})
	_, addr := startServer(t, server.Config{DB: db, FaultHook: slowHook, BatchRows: 32})
	holder := dial(t, addr, client.Config{})
	c := dial(t, addr, client.Config{})

	// Occupy the single slot with a throttled stream.
	rows, err := holder.Query(context.Background(), slowQuery)
	if err != nil {
		t.Fatalf("holder query: %v", err)
	}
	defer rows.Close()
	if !rows.Next() {
		t.Fatalf("holder stream produced no rows: %v", rows.Err())
	}

	start := time.Now()
	_, err = c.QueryAll(context.Background(), "SELECT COUNT(*) FROM nation")
	if !errors.Is(err, bufferdb.ErrServerBusy) {
		t.Fatalf("got %v, want ErrServerBusy", err)
	}
	var serr *client.ServerError
	if !errors.As(err, &serr) || serr.Code != wire.CodeBusy {
		t.Fatalf("busy error not typed over wire: %v", err)
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("admission wait ignored; waited %v", waited)
	}

	// Release the slot; the same query now succeeds.
	rows.Close()
	res, err := c.QueryAll(context.Background(), "SELECT COUNT(*) FROM nation")
	if err != nil {
		t.Fatalf("after release: %v", err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != int64(25) {
		t.Fatalf("unexpected result: %v", res.Rows)
	}
}

// TestRecyclersFollowWrites runs one fixed-seed history of reads and
// INSERTs against a paged database served with both recyclers — the result
// cache and the reuse cache — and against a twin database with neither:
// after every read the served rows must equal the twin's. Most writes go
// through the session, a few are made in process; either way every cached
// result or intermediate that read the written table must stop answering.
func TestRecyclersFollowWrites(t *testing.T) {
	db := newDB(t, bufferdb.Options{DataDir: t.TempDir(), ReuseCache: true})
	twin := newDB(t, bufferdb.Options{DataDir: t.TempDir()})
	defer twin.Close()
	base := runtime.NumGoroutine()

	srv, err := server.New(server.Config{DB: db, ResultCacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	c, err := client.Dial(l.Addr().String(), client.Config{MaxConns: 1})
	if err != nil {
		t.Fatal(err)
	}

	reads := []string{
		"SELECT COUNT(*) FROM nation",
		"SELECT COUNT(*) FROM region",
		"SELECT n_regionkey, COUNT(*) FROM nation GROUP BY n_regionkey ORDER BY n_regionkey",
		"SELECT n_regionkey AS rk, COUNT(*) AS cnt FROM nation GROUP BY n_regionkey ORDER BY 1",
		"SELECT r_name, COUNT(*) FROM nation, region WHERE n_regionkey = r_regionkey GROUP BY r_name ORDER BY r_name",
		"SELECT r_name AS region, COUNT(*) AS nations FROM nation, region WHERE r_regionkey = n_regionkey GROUP BY r_name ORDER BY 1",
		"SELECT l_returnflag, COUNT(*), SUM(l_quantity) FROM lineitem GROUP BY l_returnflag ORDER BY l_returnflag",
		"SELECT COUNT(*), SUM(o_totalprice) FROM lineitem, orders WHERE l_orderkey = o_orderkey AND l_quantity > 45",
	}
	insert := func(table string, k int) string {
		switch table {
		case "nation":
			return fmt.Sprintf("INSERT INTO nation VALUES (%d, 'NATION %d', %d, 'history')", 100+k, k, k%7)
		case "region":
			return fmt.Sprintf("INSERT INTO region VALUES (%d, 'REGION %d', 'history')", 100+k, k)
		}
		return fmt.Sprintf("INSERT INTO lineitem VALUES (%d, 1, 1, %d, %d.0, 1000.5, 0.04, 0.02, 'N', 'O',"+
			" DATE '1995-02-01', DATE '1995-03-01', DATE '1995-03-15', 'NONE', 'RAIL', 'history')", 1+k%7, 100+k, 40+k%11)
	}

	counter := func(event string) *obsv.Counter {
		return obsv.Default.Counter("bufferdbd_result_cache_" + event + "_total")
	}
	hits0, inval0 := counter("hits").Value(), counter("invalidations").Value()
	ctx := context.Background()
	rng := rand.New(rand.NewSource(54))
	for step := 0; step < 300; step++ {
		if rng.Intn(5) > 0 {
			q := reads[rng.Intn(len(reads))]
			want, err := twin.Query(ctx, q)
			if err != nil {
				t.Fatalf("step %d: twin %q: %v", step, q, err)
			}
			got, err := c.QueryAll(ctx, q)
			if err != nil {
				t.Fatalf("step %d: served %q: %v", step, q, err)
			}
			if g, w := resultString(got.Columns, got.Rows), resultString(want.Columns, want.Rows); g != w {
				t.Fatalf("step %d: %q served\n%s\nthe twin answers\n%s", step, q, g, w)
			}
			continue
		}
		w := insert([]string{"nation", "region", "lineitem"}[rng.Intn(3)], step)
		if _, err := twin.Query(ctx, w); err != nil {
			t.Fatalf("step %d: twin %q: %v", step, w, err)
		}
		if rng.Intn(4) == 0 {
			_, err = db.Query(ctx, w)
		} else {
			_, err = c.QueryAll(ctx, w)
		}
		if err != nil {
			t.Fatalf("step %d: %q: %v", step, w, err)
		}
	}

	if counter("hits").Value() == hits0 || counter("invalidations").Value() == inval0 {
		t.Errorf("result cache: %d hits, %d invalidations; want at least one of each",
			counter("hits").Value()-hits0, counter("invalidations").Value()-inval0)
	}
	if st := db.ReuseStats(); st.Hits == 0 || st.Invalidations == 0 {
		t.Errorf("reuse cache: %+v; want at least one hit and one invalidation", st)
	}

	c.Close()
	shutdown, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdown); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-done; err != server.ErrServerClosed {
		t.Fatalf("serve returned %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if got := db.TrackedBytes(); got != 0 {
		t.Fatalf("%d tracked bytes after close", got)
	}
	waitGoroutines(t, base)
}
