package server

import (
	"context"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"bufferdb"
	"bufferdb/internal/reuse"
	"bufferdb/internal/storage"
	"bufferdb/internal/wire"
)

// pipeSession runs a session over an in-memory net.Pipe. The pipe is
// unbuffered, so every server write blocks until the test reads it — which
// makes "the client walked away mid-stream" exactly reproducible instead
// of a race against kernel socket buffers.
func pipeSession(t *testing.T, cfg Config) net.Conn {
	t.Helper()
	cli, _ := countedPipeSession(t, cfg)
	return cli
}

// countingConn counts the Write calls a session makes on its connection:
// each is one flush of the session's buffered writer. The count moves before
// the write is handed to the pipe, so once the client has read a frame the
// write that carried it is counted.
type countingConn struct {
	net.Conn
	writes atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// countedPipeSession is pipeSession that also returns the session's
// write-counting connection.
func countedPipeSession(t *testing.T, cfg Config) (net.Conn, *countingConn) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	cli, pipeEnd := net.Pipe()
	srvEnd := &countingConn{Conn: pipeEnd}
	_ = cli.SetDeadline(time.Now().Add(30 * time.Second))
	done := make(chan struct{})
	ss := newSession(srv, srvEnd)
	go func() {
		ss.run()
		close(done)
	}()
	t.Cleanup(func() {
		cli.Close()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Error("session did not unwind after the client closed")
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})

	var hello wire.Builder
	hello.U32(wire.Magic)
	hello.U8(wire.Version)
	writeFrame(t, cli, wire.THello, hello.Bytes())
	if ft, _ := readFrame(t, cli); ft != wire.THelloOK {
		t.Fatalf("handshake answered %s", ft)
	}
	return cli, srvEnd
}

func writeFrame(t *testing.T, c net.Conn, ft wire.Type, payload []byte) {
	t.Helper()
	if err := wire.WriteFrame(c, ft, payload); err != nil {
		t.Fatalf("write %s: %v", ft, err)
	}
}

func readFrame(t *testing.T, c net.Conn) (wire.Type, []byte) {
	t.Helper()
	ft, p, err := wire.ReadFrame(c)
	if err != nil {
		t.Fatalf("read frame: %v", err)
	}
	return ft, p
}

// TestAbandonedStreamNotCached is a regression test for result-cache
// poisoning: a cacheable query canceled mid-stream must not be stored as a
// complete result, or later identical queries replay truncated data with a
// successful Done frame.
func TestAbandonedStreamNotCached(t *testing.T) {
	db, err := bufferdb.OpenTPCH(0.002, bufferdb.Options{MemoryLimit: 256 << 20})
	if err != nil {
		t.Fatalf("OpenTPCH: %v", err)
	}
	cli := pipeSession(t, Config{DB: db, ResultCacheBytes: 8 << 20, BatchRows: 8})

	want, err := db.RowCount("lineitem")
	if err != nil {
		t.Fatal(err)
	}

	const q = "SELECT l_orderkey, l_extendedprice FROM lineitem"
	sendQuery := func() {
		var b wire.Builder
		b.Opts(wire.QueryOpts{})
		b.String(q)
		writeFrame(t, cli, wire.TQuery, b.Bytes())
	}

	// First run: read the column header and one row batch, then cancel.
	// With BatchRows = 8 the result is ~1500 batches, and the pipe
	// guarantees the server is parked mid-stream when the Cancel lands.
	sendQuery()
	if ft, _ := readFrame(t, cli); ft != wire.TColumns {
		t.Fatalf("stream opened with %s", ft)
	}
	if ft, _ := readFrame(t, cli); ft != wire.TRowBatch {
		t.Fatalf("first stream frame after Columns was %s", ft)
	}
	writeFrame(t, cli, wire.TCancel, nil)
	for {
		ft, p := readFrame(t, cli)
		if ft == wire.TRowBatch {
			continue
		}
		if ft != wire.TError {
			t.Fatalf("canceled stream terminated with %s", ft)
		}
		r := wire.NewReader(p)
		if code := wire.Code(r.U16()); code != wire.CodeCanceled {
			t.Fatalf("canceled stream reported %s", code)
		}
		break
	}

	// Second run: the truncated first attempt must not replay from the
	// cache — the stream has to deliver the full table again.
	sendQuery()
	if ft, _ := readFrame(t, cli); ft != wire.TColumns {
		t.Fatalf("second stream opened with %s", ft)
	}
	for {
		ft, p := readFrame(t, cli)
		switch ft {
		case wire.TRowBatch:
			continue
		case wire.TDone:
			r := wire.NewReader(p)
			if total := r.U64(); total != uint64(want) {
				t.Fatalf("query after abandoned stream returned %d rows, want %d (truncated result was cached)", total, want)
			}
			return
		default:
			t.Fatalf("second stream terminated with %s", ft)
		}
	}
}

// sendQuery writes an ad hoc Query frame for sql.
func sendQuery(t *testing.T, cli net.Conn, sql string) {
	t.Helper()
	var b wire.Builder
	b.Opts(wire.QueryOpts{})
	b.String(sql)
	writeFrame(t, cli, wire.TQuery, b.Bytes())
}

// drain reads one result stream through its Done frame and returns the
// frame types seen and the row total Done reported.
func drain(t *testing.T, cli net.Conn) ([]wire.Type, uint64) {
	t.Helper()
	var seen []wire.Type
	for {
		ft, p := readFrame(t, cli)
		seen = append(seen, ft)
		switch ft {
		case wire.TColumns, wire.TRowBatch:
		case wire.TDone:
			r := wire.NewReader(p)
			return seen, r.U64()
		default:
			t.Fatalf("stream carried %s after %v", ft, seen)
		}
	}
}

// TestSessionWritesPerResult pins how many socket writes a result costs:
// the column header goes out alone (a client learns its query was admitted
// while rows are still coming), a one-batch result's batch shares Done's
// write, and a result-cache replay is a single write. The cache admits a
// text on its second sighting, so the third is the first replay.
func TestSessionWritesPerResult(t *testing.T) {
	db, err := bufferdb.OpenTPCH(0.002, bufferdb.Options{MemoryLimit: 256 << 20})
	if err != nil {
		t.Fatalf("OpenTPCH: %v", err)
	}
	cli, conn := countedPipeSession(t, Config{DB: db, ResultCacheBytes: 1 << 20})
	const q = "SELECT n_name, r_name FROM nation, region WHERE n_regionkey = r_regionkey AND n_nationkey = 3"

	for _, tc := range []struct {
		name   string
		writes int64
	}{
		{"first sighting", 2},  // Columns, then RowBatch+Done; nothing cached
		{"second sighting", 2}, // executed again, and now cached
		{"replayed", 1},        // Columns+RowBatch+Done from the result cache
	} {
		w0 := conn.writes.Load()
		sendQuery(t, cli, q)
		seen, total := drain(t, cli)
		if total != 1 || len(seen) != 3 {
			t.Fatalf("%s: stream %v with %d rows, want Columns, RowBatch, Done with 1 row", tc.name, seen, total)
		}
		if got := conn.writes.Load() - w0; got != tc.writes {
			t.Errorf("%s result took %d writes, want %d", tc.name, got, tc.writes)
		}
	}
}

// TestSessionFlushesFullBatches: a result longer than BatchRows puts each
// full batch on the wire before the cursor produces the next batch's first
// row, so a client consumes a long stream while it is being produced.
func TestSessionFlushesFullBatches(t *testing.T) {
	const batchRows, total = 4, 10
	cur := &probeCursor{n: total}
	cli, conn := countedPipeSession(t, Config{Backend: probeBackend{cur}, BatchRows: batchRows})
	cur.conn = conn
	w0 := conn.writes.Load()
	cur.base = w0

	sendQuery(t, cli, "probe")
	seen, got := drain(t, cli)
	if got != total {
		t.Fatalf("stream %v reported %d rows, want %d", seen, got, total)
	}
	// Columns, one write per full batch, then the last batch with Done.
	if w := conn.writes.Load() - w0; w != 1+total/batchRows+1 {
		t.Errorf("%d-row stream took %d writes, want %d", total, w, 1+total/batchRows+1)
	}
	for i, w := range cur.seen {
		// Before row i: Columns plus every batch completed by then.
		if want := int64(1 + i/batchRows); w != want {
			t.Errorf("row %d was produced after %d writes, want %d", i, w, want)
		}
	}
}

// probeBackend serves every statement from one probeCursor.
type probeBackend struct{ cur *probeCursor }

func (b probeBackend) QueryStream(context.Context, string, wire.QueryOpts) (Cursor, error) {
	return b.cur, nil
}

func (b probeBackend) Tables(context.Context, int32) ([]wire.TableInfo, error) { return nil, nil }

// probeCursor yields n one-column rows and notes, as it produces each row,
// how many writes the session has made since base.
type probeCursor struct {
	n    int
	conn *countingConn
	base int64
	seen []int64
	row  storage.Row
}

func (c *probeCursor) Columns() []string { return []string{"i"} }

func (c *probeCursor) Next() bool {
	if len(c.seen) == c.n {
		return false
	}
	c.seen = append(c.seen, c.conn.writes.Load()-c.base)
	c.row = storage.Row{storage.NewInt(int64(len(c.seen)))}
	return true
}

func (c *probeCursor) Values() storage.Row { return c.row }
func (c *probeCursor) Err() error          { return nil }
func (c *probeCursor) Close() error        { return nil }

// TestResultCacheWriteMidStream: an INSERT that commits after an admitted
// SELECT over its table started executing, but before the stream ends,
// keeps that result out of the cache — the read set's epochs were snapshotted at
// execution start.
func TestResultCacheWriteMidStream(t *testing.T) {
	db, err := bufferdb.OpenTPCH(0.002, bufferdb.Options{MemoryLimit: 256 << 20, DataDir: t.TempDir()})
	if err != nil {
		t.Fatalf("OpenTPCH: %v", err)
	}
	t.Cleanup(func() { db.Close() })
	cli := pipeSession(t, Config{DB: db, ResultCacheBytes: 1 << 20, BatchRows: 8})
	const q = "SELECT n_nationkey FROM nation"

	// A first sighting: the cache defers it, so the next one is admitted
	// and would be stored.
	sendQuery(t, cli, q)
	drain(t, cli)

	// Read the header and the first batch: the pipe parks the session on
	// the second batch, mid-stream.
	sendQuery(t, cli, q)
	for _, want := range []wire.Type{wire.TColumns, wire.TRowBatch} {
		if ft, _ := readFrame(t, cli); ft != want {
			t.Fatalf("stream frame %s, want %s", ft, want)
		}
	}
	if _, err := db.Query(context.Background(), "INSERT INTO nation VALUES (25, 'ATLANTIS', 0, 'sunk')"); err != nil {
		t.Fatal(err)
	}
	drain(t, cli)

	// Had the pre-write stream been stored, this would replay 25 rows.
	sendQuery(t, cli, q)
	if _, total := drain(t, cli); total != 26 {
		t.Fatalf("query after the mid-stream INSERT returned %d rows, want 26 (stale result cached)", total)
	}
}

// TestResultCacheNoReadSetNotCached: an entry is current only while its read
// set's epochs hold, so a fill whose cursor has no read set (an INSERT's, or
// a plan that reads no table, which SQL cannot express) is never stored,
// while the same fill over a SELECT's cursor is.
func TestResultCacheNoReadSetNotCached(t *testing.T) {
	db, err := bufferdb.OpenTPCH(0.002, bufferdb.Options{})
	if err != nil {
		t.Fatalf("OpenTPCH: %v", err)
	}
	c := reuse.NewNamed("bufferdbd_result_cache_", 1<<20, nil, db.ReserveMemory)
	t.Cleanup(c.Close) // zeroes the process's bufferdbd_result_cache_bytes
	fill := func(rows *bufferdb.Rows) {
		f := &fillCursor{Rows: rows, cache: c, key: "k", res: &cachedResult{}}
		f.recordBatch([]byte{0, 0, 0, 0}, 0)
		f.recordDone()
	}

	fill(new(bufferdb.Rows))
	if c.Stats().Entries != 0 {
		t.Fatal("result without a read set was cached")
	}
	rows, err := db.QueryStream(context.Background(), "SELECT COUNT(*) FROM region")
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	fill(rows)
	if c.Stats().Entries != 1 {
		t.Fatal("result with a read set was not cached")
	}
}
