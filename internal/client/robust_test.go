package client_test

import (
	"context"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"bufferdb"
	"bufferdb/internal/client"
	"bufferdb/internal/wire"
)

// fakeDaemon accepts connections, answers each handshake, and hands the
// connection (with its zero-based accept index) to handle on its own
// goroutine. It lets tests play pathological servers — persistently busy,
// wedged mid-request — without a real daemon.
func fakeDaemon(t *testing.T, handle func(i int, c net.Conn)) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		for i := 0; ; i++ {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func(i int, conn net.Conn) {
				defer conn.Close()
				if ft, _, err := wire.ReadFrame(conn); err != nil || ft != wire.THello {
					return
				}
				var hello wire.Builder
				hello.U8(wire.Version)
				hello.String("fake")
				if wire.WriteFrame(conn, wire.THelloOK, hello.Bytes()) != nil {
					return
				}
				handle(i, conn)
			}(i, conn)
		}
	}()
	return l.Addr().String()
}

// writeErrorFrame replies one TError frame with the given code.
func writeErrorFrame(c net.Conn, code wire.Code, msg string) error {
	var b wire.Builder
	b.U16(uint16(code))
	b.String(msg)
	return wire.WriteFrame(c, wire.TError, b.Bytes())
}

// TestBusyRetryBounded pins the retry loop's worst case: against a server
// that sheds every attempt, the query is tried once and retried three
// times (10, 20 and 40 ms apart), then fails with the busy error.
func TestBusyRetryBounded(t *testing.T) {
	var attempts atomic.Int64
	addr := fakeDaemon(t, func(_ int, c net.Conn) {
		for {
			ft, _, err := wire.ReadFrame(c)
			if err != nil || ft != wire.TQuery {
				return
			}
			attempts.Add(1)
			if writeErrorFrame(c, wire.CodeBusy, "shed") != nil {
				return
			}
		}
	})

	cl, err := client.Dial(addr, client.Config{})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()

	start := time.Now()
	_, err = cl.Query(context.Background(), `SELECT 1`)
	elapsed := time.Since(start)
	if !errors.Is(err, bufferdb.ErrServerBusy) {
		t.Fatalf("persistently busy server: %v, want ErrServerBusy", err)
	}
	if got := attempts.Load(); got != 4 { // initial try + 3 retries
		t.Fatalf("attempts = %d, want 4", got)
	}
	if elapsed < 70*time.Millisecond || elapsed > 2*time.Second {
		t.Fatalf("bounded retry took %v", elapsed)
	}
}

// TestWedgedHeadReleasesConn is the regression test for the pinned-pool
// bug: a server that accepts a query and never answers used to hold the
// pooled connection (and its pool slot) until the process exited, because
// the response-head read ignored the caller's context. With MaxConns=1 the
// whole client wedged. Now the abandoned read must release the slot so the
// next query can dial fresh.
func TestWedgedHeadReleasesConn(t *testing.T) {
	addr := fakeDaemon(t, func(i int, c net.Conn) {
		if i == 0 {
			// First connection (the one Dial pools): swallow every request,
			// answer nothing — a server wedged mid-execution.
			for {
				if _, _, err := wire.ReadFrame(c); err != nil {
					return
				}
			}
		}
		// Replacement connections behave: empty result for every query.
		for {
			ft, _, err := wire.ReadFrame(c)
			if err != nil {
				return
			}
			if ft != wire.TQuery {
				continue
			}
			var cols wire.Builder
			cols.U32(0)
			if wire.WriteFrame(c, wire.TColumns, cols.Bytes()) != nil {
				return
			}
			var done wire.Builder
			done.U64(0)
			if wire.WriteFrame(c, wire.TDone, done.Bytes()) != nil {
				return
			}
		}
	})

	cl, err := client.Dial(addr, client.Config{MaxConns: 1})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := cl.Query(ctx, `SELECT 1`); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("wedged-head query: %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("giving up on a wedged head took %v", elapsed)
	}
	if client.IsTransport(context.DeadlineExceeded) {
		t.Fatal("local deadline expiry misclassified as a transport failure")
	}

	// The single pool slot must be free again: this query has to dial a
	// fresh connection and complete. Before the fix it blocked forever on
	// the slot the wedged connection still held.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	rows, err := cl.Query(ctx2, `SELECT 1`)
	if err != nil {
		t.Fatalf("query after wedged head: %v", err)
	}
	for rows.Next() {
	}
	if err := rows.Err(); err != nil {
		t.Fatalf("rows after wedged head: %v", err)
	}
	rows.Close()
}

// TestTransportClassification pins IsTransport's contract, which failover
// and the circuit breakers depend on: server-typed errors prove liveness
// (except an explicit shutdown), local give-ups are not node failures, and
// everything else is.
func TestTransportClassification(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"busy", &client.ServerError{Code: wire.CodeBusy}, false},
		{"query", &client.ServerError{Code: wire.CodeQuery}, false},
		{"shutdown", &client.ServerError{Code: wire.CodeShutdown}, true},
		{"canceled", context.Canceled, false},
		{"deadline", context.DeadlineExceeded, false},
		{"closed", client.ErrClosed, false},
		{"io", errors.New("read tcp: connection reset by peer"), true},
	}
	for _, tc := range cases {
		if got := client.IsTransport(tc.err); got != tc.want {
			t.Errorf("IsTransport(%s) = %v, want %v", tc.name, got, tc.want)
		}
	}
}
