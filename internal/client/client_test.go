package client_test

import (
	"context"
	"encoding/binary"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"bufferdb/internal/client"
	"bufferdb/internal/wire"
)

// serveOnce accepts one connection, answers the handshake, waits for the
// first request frame and hands the connection to respond. It lets tests
// play a malicious or broken server without a real daemon. The returned
// channel is closed once the client has torn the connection down.
func serveOnce(t *testing.T, l net.Listener, respond func(conn net.Conn)) <-chan struct{} {
	t.Helper()
	hungUp := make(chan struct{})
	go func() {
		defer close(hungUp)
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if ft, _, err := wire.ReadFrame(conn); err != nil || ft != wire.THello {
			return
		}
		var hello wire.Builder
		hello.U8(wire.Version)
		hello.String("fake")
		if err := wire.WriteFrame(conn, wire.THelloOK, hello.Bytes()); err != nil {
			return
		}
		if _, _, err := wire.ReadFrame(conn); err != nil {
			return
		}
		respond(conn)
		// Hold the connection open until the client tears it down.
		_, _, _ = wire.ReadFrame(conn)
	}()
	return hungUp
}

// TestMalformedCountsRejected asserts the client bounds peer-declared
// element counts against the payload size instead of trusting them — a
// 5-byte frame claiming four billion rows must fail fast, not allocate —
// and that decoding a batch costs in proportion to the bytes it decodes: a
// malformed cell ends the stream as a transport failure on a connection
// that is closed, not pooled.
func TestMalformedCountsRejected(t *testing.T) {
	// nullTags declares as many two-column rows as its megabytes of NULL
	// tags cover, so the count bound passes; cell 10 is not a kind. Sized
	// from the count it would be a 160 MiB arena.
	nullTags := make([]byte, 4+4<<20)
	binary.BigEndian.PutUint32(nullTags, 2<<20)
	nullTags[4+10] = 0x7f

	t.Run("row batch", func(t *testing.T) {
		for name, tc := range map[string]struct {
			batch []byte
			want  string
		}{
			"count over payload": {[]byte{0xff, 0xff, 0xff, 0xff, 0}, "4294967295 rows declared in 5 payload bytes"},
			"null tags":          {nullTags, "unknown value kind 0x7f at offset 14"},
			"truncated mid-cell": {[]byte{0, 0, 0, 1, 0, 2, 1, 2, 3}, "truncated payload reading u64"},
			"unknown kind":       {[]byte{0, 0, 0, 1, 0, 6}, "unknown value kind 0x06 at offset 5"},
		} {
			t.Run(name, func(t *testing.T) {
				l, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				defer l.Close()
				hungUp := serveOnce(t, l, func(conn net.Conn) {
					var cols wire.Builder
					cols.U32(2)
					cols.String("a")
					cols.String("b")
					_ = wire.WriteFrame(conn, wire.TColumns, cols.Bytes())
					_ = wire.WriteFrame(conn, wire.TRowBatch, tc.batch)
				})
				c, err := client.Dial(l.Addr().String(), client.Config{MaxConns: 1})
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				rows, err := c.Query(context.Background(), "SELECT 1")
				if err != nil {
					t.Fatal(err)
				}
				defer rows.Close()

				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				if rows.Next() {
					t.Fatal("Next produced a row from a malformed batch")
				}
				runtime.ReadMemStats(&after)
				// The frame itself, read twice over (socket buffer, payload), and
				// an arena for the cells that did decode — not for the declared.
				if got := after.TotalAlloc - before.TotalAlloc; got > 16<<20 {
					t.Fatalf("rejecting a %d-byte batch allocated %d bytes", len(tc.batch), got)
				}

				err = rows.Err()
				if err == nil || !strings.Contains(err.Error(), "client: malformed row batch: ") || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("err = %v, want malformed row batch: … %s", err, tc.want)
				}
				if !client.IsTransport(err) {
					t.Fatalf("%v is not a transport failure: a replica would not be tried", err)
				}
				if rows.Row() != nil || rows.Values() != nil {
					t.Fatal("a failed cursor still has a current row")
				}
				select {
				case <-hungUp:
				case <-time.After(5 * time.Second):
					t.Fatal("the connection that carried a malformed batch was not closed")
				}
			})
		}
	})

	t.Run("columns", func(t *testing.T) {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		serveOnce(t, l, func(conn net.Conn) {
			var cols wire.Builder
			cols.U32(0xFFFF_FFFF)
			_ = wire.WriteFrame(conn, wire.TColumns, cols.Bytes())
		})
		c, err := client.Dial(l.Addr().String(), client.Config{MaxConns: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, err := c.Query(context.Background(), "SELECT 1"); err == nil || !strings.Contains(err.Error(), "malformed Columns") {
			t.Fatalf("err = %v, want malformed Columns frame", err)
		}
	})
}
