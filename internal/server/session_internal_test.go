package server

import (
	"context"
	"net"
	"testing"
	"time"

	"bufferdb"
	"bufferdb/internal/wire"
)

// pipeSession runs a session over an in-memory net.Pipe. The pipe is
// unbuffered, so every server write blocks until the test reads it — which
// makes "the client walked away mid-stream" exactly reproducible instead
// of a race against kernel socket buffers.
func pipeSession(t *testing.T, cfg Config) net.Conn {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	cli, srvEnd := net.Pipe()
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
	return cli
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
	db, err := bufferdb.OpenTPCH(0.002, bufferdb.Options{CardinalityThreshold: 100, MemoryLimit: 256 << 20})
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

// TestResultCacheStaleEpochDropped pins the invalidation race: a query
// that snapshots its epoch, then sees a write invalidate the cache while
// it streams, must not park its pre-write result afterwards.
func TestResultCacheStaleEpochDropped(t *testing.T) {
	c := newResultCache(new(bufferdb.DB), 1024)
	res := func() *cachedResult {
		return &cachedResult{cols: []string{"a"}, size: 16}
	}

	epoch := c.writeEpoch()
	c.invalidateAll() // the write commits mid-query
	c.put("k", res(), epoch, nil, nil)
	if len(c.entries) != 0 {
		t.Fatal("result from before the invalidation was cached")
	}

	// A query that started after the invalidation caches normally.
	c.put("k", res(), c.writeEpoch(), nil, nil)
	if len(c.entries) != 1 {
		t.Fatal("fresh result was not cached")
	}
}
