package dist_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"bufferdb"
	"bufferdb/internal/client"
	"bufferdb/internal/dist"
	"bufferdb/internal/exec"
	"bufferdb/internal/server"
	"bufferdb/internal/storage"
	"bufferdb/internal/wire"
)

// The session-protocol conformance suite drives the one session loop over
// a raw socket against both backends: a resident database and a
// coordinator over a 3-node rf-2 in-process fleet. Every case ends with
// goroutines back at their baseline and the backend's TrackedBytes at 0.

const (
	// streamQuery returns ~12k rows; under the slow hook it stays in flight
	// for a second or more, so mid-stream events land mid-stream.
	streamQuery = `SELECT l_orderkey, l_comment FROM lineitem`
	// bigQuery returns ~330k rows of three comment columns, tens of
	// megabytes encoded: more than the socket buffers between a server and a
	// client that never reads can absorb.
	bigQuery = `SELECT a.l_comment, b.l_comment, c.l_comment FROM lineitem a, lineitem b, lineitem c
		WHERE a.l_orderkey = b.l_orderkey AND b.l_orderkey = c.l_orderkey`
	smallQuery = `SELECT COUNT(*) FROM nation`
)

// slowSwitch is a fault hook the suite turns on for the cases that need a
// stream to still be running when the next frame arrives.
type slowSwitch struct{ on atomic.Bool }

func (s *slowSwitch) hook(sql string) *bufferdb.FaultInjector {
	if !s.on.Load() {
		return nil
	}
	return slowLineitem(sql)
}

// conformanceTarget is one backend under test.
type conformanceTarget struct {
	// config returns a fresh server configuration over the shared backend.
	config func() server.Config
	// warm brings connection pools behind the backend to their steady
	// state, so the goroutines of pooled shard connections are part of the
	// baseline and not mistaken for a leak.
	warm    func(t *testing.T)
	tracked func() int64
	slow    *slowSwitch
}

func dbTarget(t *testing.T) conformanceTarget {
	sw := &slowSwitch{}
	db := singleNode(t)
	return conformanceTarget{
		config:  func() server.Config { return server.Config{DB: db, FaultHook: sw.hook} },
		warm:    func(*testing.T) {},
		tracked: db.TrackedBytes,
		slow:    sw,
	}
}

func coordinatorTarget(t *testing.T) conformanceTarget {
	sw := &slowSwitch{}
	hooks := map[int]func(string) *bufferdb.FaultInjector{0: sw.hook, 1: sw.hook, 2: sw.hook}
	fleet := startReplicaFleet(t, 3, 2, dist.Config{}, hooks)
	return conformanceTarget{
		config: func() server.Config { return server.Config{Backend: fleet.co} },
		warm: func(t *testing.T) {
			rows, err := fleet.co.Query(context.Background(), `SELECT COUNT(*) FROM lineitem`)
			if err != nil {
				t.Fatalf("warm-up: %v", err)
			}
			drainCoord(t, rows)
		},
		tracked: fleet.co.TrackedBytes,
		slow:    sw,
	}
}

// liveServer is what a case gets: a running server over the target.
type liveServer struct {
	srv  *server.Server
	addr string
	// idle is the goroutine count of this server with no session open.
	idle    int
	tracked func() int64
}

// settled polls until the backend tracks no bytes and at most max
// goroutines run.
func settled(t *testing.T, tracked func() int64, max int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) && (tracked() != 0 || runtime.NumGoroutine() > max) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := tracked(); n != 0 {
		t.Errorf("backend tracked bytes = %d, want 0", n)
	}
	if n := runtime.NumGoroutine(); n > max {
		t.Errorf("goroutine leak: %d running, want at most %d", n, max)
	}
}

// rawConn speaks frames, not the client library, so it can break the
// protocol on purpose.
type rawConn struct {
	t *testing.T
	net.Conn
}

func dialRaw(t *testing.T, addr string) *rawConn {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	_ = c.SetDeadline(time.Now().Add(30 * time.Second))
	t.Cleanup(func() { c.Close() })
	return &rawConn{t, c}
}

func (c *rawConn) send(ft wire.Type, payload []byte) {
	c.t.Helper()
	if err := wire.WriteFrame(c, ft, payload); err != nil {
		c.t.Fatalf("write %s: %v", ft, err)
	}
}

func (c *rawConn) hello(magic uint32, version byte) {
	var b wire.Builder
	b.U32(magic)
	b.U8(version)
	c.send(wire.THello, b.Bytes())
}

// open completes a good handshake.
func (c *rawConn) open() {
	c.t.Helper()
	c.hello(wire.Magic, wire.Version)
	if ft, _ := c.recv(); ft != wire.THelloOK {
		c.t.Fatalf("handshake answered %s", ft)
	}
}

func (c *rawConn) recv() (wire.Type, []byte) {
	c.t.Helper()
	ft, p, err := wire.ReadFrame(c)
	if err != nil {
		c.t.Fatalf("read frame: %v", err)
	}
	return ft, p
}

func (c *rawConn) query(sql string) {
	var b wire.Builder
	b.Opts(wire.QueryOpts{})
	b.String(sql)
	c.send(wire.TQuery, b.Bytes())
}

// wantColumns reads the frame that opens a result stream.
func (c *rawConn) wantColumns() {
	c.t.Helper()
	if ft, p := c.recv(); ft != wire.TColumns {
		c.t.Fatalf("stream opened with %s %q", ft, p)
	}
}

// wantError skips row batches up to the terminal Error frame and checks
// its code.
func (c *rawConn) wantError(code wire.Code) {
	c.t.Helper()
	for {
		ft, p := c.recv()
		if ft == wire.TRowBatch {
			continue
		}
		if ft != wire.TError {
			c.t.Fatalf("got %s, want Error(%s)", ft, code)
		}
		r := wire.NewReader(p)
		if got := wire.Code(r.U16()); got != code {
			c.t.Fatalf("error code %s (%s), want %s", got, r.String(), code)
		}
		return
	}
}

// wantClosed asserts the server hung up.
func (c *rawConn) wantClosed() {
	c.t.Helper()
	if ft, _, err := wire.ReadFrame(c); err == nil {
		c.t.Fatalf("connection still open: got %s", ft)
	}
}

// wantUsable runs a small query to completion on the same session.
func (c *rawConn) wantUsable() {
	c.t.Helper()
	c.query(smallQuery)
	c.wantColumns()
	for {
		switch ft, p := c.recv(); ft {
		case wire.TRowBatch:
		case wire.TDone:
			if n := wire.NewReader(p).U64(); n != 1 {
				c.t.Fatalf("%s returned %d rows", smallQuery, n)
			}
			return
		default:
			c.t.Fatalf("stream terminated with %s", ft)
		}
	}
}

type conformanceCase struct {
	name         string
	slow         bool
	writeTimeout time.Duration
	run          func(t *testing.T, s liveServer)
}

// protocolViolation is a case that sends one bad frame and must get
// CodeProtocol followed by a hang-up.
func protocolViolation(name string, handshake bool, bad func(c *rawConn)) conformanceCase {
	return conformanceCase{name: name, run: func(t *testing.T, s liveServer) {
		c := dialRaw(t, s.addr)
		if handshake {
			c.open()
		}
		bad(c)
		c.wantError(wire.CodeProtocol)
		c.wantClosed()
	}}
}

var conformanceCases = []conformanceCase{
	protocolViolation("first frame not Hello", false, func(c *rawConn) { c.query(smallQuery) }),
	protocolViolation("bad magic", false, func(c *rawConn) { c.hello(wire.Magic^1, wire.Version) }),
	protocolViolation("wrong version", false, func(c *rawConn) { c.hello(wire.Magic, wire.Version+1) }),
	protocolViolation("old client version", false, func(c *rawConn) { c.hello(wire.Magic, wire.Version-1) }),
	protocolViolation("truncated Query", true, func(c *rawConn) { c.send(wire.TQuery, []byte{0, 0}) }),
	// Frames 0x03, 0x04 and 0x06 were Prepare, Execute and CloseStmt until
	// protocol version 4: whatever they carry now, they end the session.
	protocolViolation("truncated Prepare", true, func(c *rawConn) { c.send(0x03, []byte{0, 0}) }),
	protocolViolation("truncated Execute", true, func(c *rawConn) { c.send(0x04, []byte{0, 0, 1}) }),
	protocolViolation("truncated CloseStmt", true, func(c *rawConn) { c.send(0x06, []byte{0, 0, 1}) }),
	protocolViolation("retired Prepare", true, func(c *rawConn) {
		var b wire.Builder
		b.Opts(wire.QueryOpts{})
		b.String(smallQuery)
		c.send(0x03, b.Bytes())
	}),
	protocolViolation("retired Execute", true, func(c *rawConn) { c.send(0x04, make([]byte, 8)) }),
	protocolViolation("retired CloseStmt", true, func(c *rawConn) { c.send(0x06, make([]byte, 8)) }),

	{name: "stray frame mid-stream", slow: true, run: func(t *testing.T, s liveServer) {
		c := dialRaw(t, s.addr)
		c.open()
		c.query(streamQuery)
		c.wantColumns()
		c.send(wire.TTables, nil)
		c.wantError(wire.CodeProtocol)
		c.wantClosed()
	}},

	{name: "Cancel mid-stream", slow: true, run: func(t *testing.T, s liveServer) {
		c := dialRaw(t, s.addr)
		c.open()
		c.query(streamQuery)
		c.wantColumns()
		c.send(wire.TCancel, nil)
		c.wantError(wire.CodeCanceled)
		c.wantUsable()
	}},

	{name: "disconnect mid-stream", slow: true, run: func(t *testing.T, s liveServer) {
		c := dialRaw(t, s.addr)
		c.open()
		c.query(streamQuery)
		c.wantColumns()
		c.Close()
		settled(t, s.tracked, s.idle)
	}},

	// A client that stops reading parks the session in conn.Write, where
	// no context can reach it; only the per-frame write deadline unwinds
	// the session and with it the query's memory and (on a coordinator)
	// its shard streams.
	{name: "reader stalls until WriteTimeout", writeTimeout: 300 * time.Millisecond, run: func(t *testing.T, s liveServer) {
		c := dialRaw(t, s.addr)
		c.open()
		c.query(bigQuery)
		// Never read. Had the whole result fit in the socket buffers, the
		// session would now be idle but alive and this would time out.
		settled(t, s.tracked, s.idle)
	}},

	{name: "Shutdown with a stream in flight", slow: true, run: func(t *testing.T, s liveServer) {
		c := dialRaw(t, s.addr)
		c.open()
		c.query(streamQuery)
		c.wantColumns()
		done := make(chan error, 1)
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			done <- s.srv.Shutdown(ctx)
		}()
		c.wantError(wire.CodeShutdown)
		// The session loop, back from the failed stream, says goodbye with
		// a shutdown error of its own before it hangs up.
		c.wantError(wire.CodeShutdown)
		c.wantClosed()
		if err := <-done; err != nil {
			t.Fatalf("Shutdown: %v", err)
		}
	}},
}

func TestSessionConformance(t *testing.T) {
	targets := []struct {
		name  string
		setup func(*testing.T) conformanceTarget
	}{{"db", dbTarget}, {"coordinator", coordinatorTarget}}
	for _, target := range targets {
		t.Run(target.name, func(t *testing.T) {
			tg := target.setup(t)
			for _, c := range conformanceCases {
				t.Run(c.name, func(t *testing.T) {
					tg.slow.on.Store(false)
					tg.warm(t)
					tg.slow.on.Store(c.slow)
					base := runtime.NumGoroutine()
					// Registered first, so it runs last: after the case's
					// connections closed and its server shut down.
					t.Cleanup(func() { settled(t, tg.tracked, base) })
					cfg := tg.config()
					cfg.WriteTimeout = c.writeTimeout
					srv, addr := serveBackend(t, cfg)
					c.run(t, liveServer{srv: srv, addr: addr, idle: base + 1, tracked: tg.tracked})
				})
			}
		})
	}
}

// panicOp is an operator whose Next panics, for a real exec.CallNext
// containment error.
type panicOp struct{ exec.Operator }

func (panicOp) Next(*exec.Context) (storage.Row, error) { panic("boom") }
func (panicOp) Name() string                            { return "panicOp" }

// failingBackend fails every statement with the error registered under
// its text: at stream start for texts prefixed "start:", else from the
// cursor's Err after its (empty) stream.
type failingBackend map[string]error

func (b failingBackend) QueryStream(_ context.Context, sql string, _ wire.QueryOpts) (server.Cursor, error) {
	if strings.HasPrefix(sql, "start:") {
		return nil, b[sql]
	}
	return failedCursor{b[sql]}, nil
}

func (b failingBackend) Tables(context.Context, int32) ([]wire.TableInfo, error) {
	return nil, nil
}

type failedCursor struct{ err error }

func (failedCursor) Columns() []string   { return []string{"c"} }
func (failedCursor) Next() bool          { return false }
func (failedCursor) Values() storage.Row { return nil }
func (c failedCursor) Err() error        { return c.err }
func (failedCursor) Close() error        { return nil }

// TestErrorCodesOverWire pins the one error table for both backends'
// failures: every sentinel, bare and attributed to a shard, must cross a
// real socket as its stable code and unwrap to the same sentinel on the
// client. A *dist.ShardError around anything but an answer from a live
// shard (or the caller's own cancel) is a lost shard.
func TestErrorCodesOverWire(t *testing.T) {
	_, panicErr := exec.CallNext(&exec.Context{Ctx: context.Background()}, panicOp{})
	if !errors.Is(panicErr, bufferdb.ErrQueryPanic) {
		t.Fatalf("exec.CallNext contained the panic as %v", panicErr)
	}
	answered := func(code wire.Code) error { return &client.ServerError{Code: code, Msg: "from the shard"} }

	cases := []struct {
		name string
		err  error
		// bare and onShard are the codes expected for err itself and for
		// err inside a *dist.ShardError; is must match on the client in
		// both forms unless the shard form reads as a lost shard.
		bare, onShard wire.Code
		is            error
	}{
		{"busy", fmt.Errorf("admission: %w", bufferdb.ErrServerBusy), wire.CodeBusy, wire.CodeUnavailable, bufferdb.ErrServerBusy},
		{"deadline", fmt.Errorf("q: %w", bufferdb.ErrDeadlineExceeded), wire.CodeDeadline, wire.CodeUnavailable, bufferdb.ErrDeadlineExceeded},
		{"context deadline", context.DeadlineExceeded, wire.CodeDeadline, wire.CodeUnavailable, context.DeadlineExceeded},
		{"memory budget", fmt.Errorf("q: %w", bufferdb.ErrMemoryBudgetExceeded), wire.CodeOOM, wire.CodeUnavailable, bufferdb.ErrMemoryBudgetExceeded},
		{"merge-pipeline panic", panicErr, wire.CodePanic, wire.CodeUnavailable, bufferdb.ErrQueryPanic},
		{"canceled", context.Canceled, wire.CodeCanceled, wire.CodeCanceled, context.Canceled},
		{"shard unavailable", fmt.Errorf("dial: %w", bufferdb.ErrShardUnavailable), wire.CodeUnavailable, wire.CodeUnavailable, bufferdb.ErrShardUnavailable},
		{"plain", errors.New("no such table"), wire.CodeQuery, wire.CodeUnavailable, nil},
		{"shard said busy", answered(wire.CodeBusy), wire.CodeBusy, wire.CodeBusy, bufferdb.ErrServerBusy},
		{"shard said deadline", answered(wire.CodeDeadline), wire.CodeDeadline, wire.CodeDeadline, bufferdb.ErrDeadlineExceeded},
		{"shard said oom", answered(wire.CodeOOM), wire.CodeOOM, wire.CodeOOM, bufferdb.ErrMemoryBudgetExceeded},
		{"shard said panic", answered(wire.CodePanic), wire.CodePanic, wire.CodePanic, bufferdb.ErrQueryPanic},
		{"shard said query", answered(wire.CodeQuery), wire.CodeQuery, wire.CodeQuery, nil},
		{"shard is draining", answered(wire.CodeShutdown), wire.CodeShutdown, wire.CodeUnavailable, nil},
	}

	backend := failingBackend{}
	type probe struct {
		sql  string
		code wire.Code
		is   error
	}
	var probes []probe
	for _, c := range cases {
		shardErr := &dist.ShardError{Shard: 1, Addr: "10.0.0.1:7", Err: c.err}
		for _, when := range []string{"start:", "stream:"} {
			bare, wrapped := when+c.name, when+c.name+" on a shard"
			backend[bare], backend[wrapped] = c.err, shardErr
			probes = append(probes, probe{bare, c.bare, c.is})
			is := c.is
			if c.onShard == wire.CodeUnavailable {
				is = bufferdb.ErrShardUnavailable
			}
			probes = append(probes, probe{wrapped, c.onShard, is})
		}
	}

	_, addr := serveBackend(t, server.Config{Backend: backend})
	cl, err := client.Dial(addr, client.Config{})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()
	for _, p := range probes {
		t.Run(p.sql, func(t *testing.T) {
			_, err := cl.QueryAll(context.Background(), p.sql)
			var se *client.ServerError
			if !errors.As(err, &se) {
				t.Fatalf("got %v, want a server error", err)
			}
			if se.Code != p.code {
				t.Fatalf("crossed as %s, want %s (%v)", se.Code, p.code, err)
			}
			if p.is != nil && !errors.Is(err, p.is) {
				t.Fatalf("errors.Is(%v, %v) = false on the client", err, p.is)
			}
		})
	}
}
