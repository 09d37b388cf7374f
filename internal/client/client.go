// Package client is the Go client for bufferdbd: a connection pool over
// the internal/wire protocol with streaming results, per-query context
// cancellation propagated as Cancel frames, prepared statements (a text
// with its options fixed, sent as a Query), and retry-with-backoff when
// admission control sheds a query.
//
// Server-side sentinel errors cross the wire as stable codes and surface
// here wrapping the same sentinels the embedded engine returns —
// errors.Is(err, bufferdb.ErrServerBusy) works identically against a
// remote daemon and an in-process DB.
package client

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"bufferdb"
	"bufferdb/internal/wire"
)

// Config tunes a Client. The zero value is usable.
type Config struct {
	// MaxConns caps the pooled connections (and therefore the queries this
	// client runs concurrently). 0 = 4.
	MaxConns int
}

// The connection and retry constants every client uses.
const (
	// dialTimeout bounds each TCP dial + handshake.
	dialTimeout = 5 * time.Second
	// busyRetries is how many times a query shed with ErrServerBusy is
	// retried before the error surfaces; the first retry waits
	// retryBackoff and each later one twice the one before.
	busyRetries  = 3
	retryBackoff = 10 * time.Millisecond
)

// ErrClosed is returned for operations on a closed Client.
var ErrClosed = errors.New("client: closed")

// ServerError is a terminal error frame from the daemon. Its Unwrap chain
// carries the engine sentinel matching the wire code, so errors.Is against
// bufferdb.ErrServerBusy, ErrDeadlineExceeded, ErrMemoryBudgetExceeded,
// ErrQueryPanic and context.Canceled behaves as it does in-process.
type ServerError struct {
	Code wire.Code
	Msg  string
}

// Error renders the code and the server's message.
func (e *ServerError) Error() string {
	return fmt.Sprintf("client: server error (%s): %s", e.Code, e.Msg)
}

// WireCode reports the code the server sent, so a server relaying this
// error onward (the coordinator) can forward it unchanged.
func (e *ServerError) WireCode() wire.Code { return e.Code }

// Unwrap maps the stable code back to engine sentinels.
func (e *ServerError) Unwrap() []error {
	switch e.Code {
	case wire.CodeBusy:
		return []error{bufferdb.ErrServerBusy}
	case wire.CodeDeadline:
		return []error{bufferdb.ErrDeadlineExceeded, context.DeadlineExceeded}
	case wire.CodeOOM:
		return []error{bufferdb.ErrMemoryBudgetExceeded}
	case wire.CodePanic:
		return []error{bufferdb.ErrQueryPanic}
	case wire.CodeCanceled:
		return []error{context.Canceled}
	case wire.CodeUnavailable:
		return []error{bufferdb.ErrShardUnavailable}
	}
	return nil
}

// Option tunes one statement.
type Option func(*wire.QueryOpts)

// WithTimeout bounds the query's wall clock server-side; expiry surfaces
// an error wrapping bufferdb.ErrDeadlineExceeded.
func WithTimeout(d time.Duration) Option {
	return func(o *wire.QueryOpts) { o.TimeoutMS = d.Milliseconds() }
}

// WithoutResultCache opts this statement out of the server's result-reuse
// cache.
func WithoutResultCache() Option {
	return func(o *wire.QueryOpts) { o.NoResultCache = true }
}

// WithMemoryBudget caps the query's tracked allocations server-side at n
// bytes; exceeding it surfaces an error wrapping
// bufferdb.ErrMemoryBudgetExceeded.
func WithMemoryBudget(n int64) Option {
	return func(o *wire.QueryOpts) { o.MemoryBudget = n }
}

// WithSlice addresses hash slice idx on a shard daemon, which hosts a set of
// slices (its own alone at replication 1); without it, or with idx -1, a
// query runs against the node's default (primary) slice. The daemon
// rejects slices it does not host.
func WithSlice(idx int) Option {
	return func(o *wire.QueryOpts) { o.Slice = int32(idx) + 1 }
}

// WithQueryOpts replaces the whole option set with an already-built
// wire.QueryOpts. It exists for holders of a built set — the distributed
// coordinator re-ships the exact options its own client sent, a Stmt the
// ones it was prepared with — and composes left to right like every other
// Option, so later options still override individual fields.
func WithQueryOpts(o wire.QueryOpts) Option {
	return func(dst *wire.QueryOpts) { *dst = o }
}

// BuildOpts folds options into the wire form they are sent as. Forwarding
// tiers use it to inspect or re-ship one statement's option set.
func BuildOpts(opts ...Option) wire.QueryOpts {
	var o wire.QueryOpts
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// Client is a pooled connection to one bufferdbd. Safe for concurrent use;
// each in-flight query occupies one pooled connection.
type Client struct {
	addr string

	// sem bounds total live connections: acquire a token, then reuse an
	// idle connection or dial.
	sem chan struct{}

	mu     sync.Mutex
	idle   []*conn
	closed bool

	// ServerInfo is the daemon's HelloOK identification string, from the
	// first successful handshake.
	serverInfo string
}

// Dial connects to a bufferdbd at addr, performing one handshake eagerly
// so misconfiguration fails fast.
func Dial(addr string, cfg Config) (*Client, error) {
	if cfg.MaxConns <= 0 {
		cfg.MaxConns = 4
	}
	c := &Client{addr: addr, sem: make(chan struct{}, cfg.MaxConns)}
	cn, err := c.dial()
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.idle = append(c.idle, cn)
	c.mu.Unlock()
	return c, nil
}

// ServerInfo returns the daemon's handshake identification string.
func (c *Client) ServerInfo() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.serverInfo
}

// Close closes the client and its idle connections. Connections checked
// out by in-flight queries close as those queries finish.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	idle := c.idle
	c.idle = nil
	c.mu.Unlock()
	for _, cn := range idle {
		cn.close()
	}
	return nil
}

// dial opens and handshakes one connection.
func (c *Client) dial() (*conn, error) {
	nc, err := net.DialTimeout("tcp", c.addr, dialTimeout)
	if err != nil {
		return nil, err
	}
	cn := &conn{c: nc, br: bufio.NewReaderSize(nc, 64<<10), bw: bufio.NewWriterSize(nc, 32<<10)}
	_ = nc.SetDeadline(time.Now().Add(dialTimeout))
	info, err := cn.handshake()
	_ = nc.SetDeadline(time.Time{})
	if err != nil {
		nc.Close()
		return nil, fmt.Errorf("client: handshake with %s: %w", c.addr, err)
	}
	c.mu.Lock()
	c.serverInfo = info
	c.mu.Unlock()
	return cn, nil
}

// acquire checks a connection out of the pool, dialing if no idle one
// exists.
func (c *Client) acquire(ctx context.Context) (*conn, error) {
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return nil, ErrClosed
	}
	select {
	case c.sem <- struct{}{}:
	case <-ctx.Done():
		return nil, fmt.Errorf("client: waiting for a connection: %w", ctx.Err())
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		<-c.sem
		return nil, ErrClosed
	}
	if n := len(c.idle); n > 0 {
		cn := c.idle[n-1]
		c.idle = c.idle[:n-1]
		c.mu.Unlock()
		return cn, nil
	}
	c.mu.Unlock()
	cn, err := c.dial()
	if err != nil {
		<-c.sem
		return nil, err
	}
	return cn, nil
}

// release returns a connection to the pool; a broken connection (or a
// closed client) closes it instead.
func (c *Client) release(cn *conn) {
	c.mu.Lock()
	if cn.broken || c.closed {
		c.mu.Unlock()
		cn.close()
	} else {
		c.idle = append(c.idle, cn)
		c.mu.Unlock()
	}
	<-c.sem
}

// Query sends a statement and returns a streaming cursor. The context
// cancels the query server-side (a Cancel frame) as well as client-side.
// Queries shed by admission control retry with doubling backoff up to
// three times before the busy error surfaces.
func (c *Client) Query(ctx context.Context, sql string, opts ...Option) (*Rows, error) {
	o := BuildOpts(opts...)
	return c.withBusyRetry(ctx, func() (*Rows, error) {
		cn, err := c.acquire(ctx)
		if err != nil {
			return nil, err
		}
		var b wire.Builder
		b.Opts(o)
		b.String(sql)
		return c.startStream(ctx, cn, b.Bytes())
	})
}

// QueryAll runs a statement and materializes the whole result.
func (c *Client) QueryAll(ctx context.Context, sql string, opts ...Option) (*Result, error) {
	rows, err := c.Query(ctx, sql, opts...)
	if err != nil {
		return nil, err
	}
	return collect(rows)
}

// Result is a fully materialized result set.
type Result struct {
	Columns []string
	Rows    [][]any
}

func collect(rows *Rows) (*Result, error) {
	defer rows.Close()
	res := &Result{Columns: rows.Columns()}
	for rows.Next() {
		row := rows.Row()
		res.Rows = append(res.Rows, append([]any(nil), row...))
	}
	if err := rows.Err(); err != nil {
		return nil, err
	}
	return res, rows.Close()
}

// withBusyRetry runs attempt, retrying with doubling backoff while the
// error wraps ErrServerBusy, at most busyRetries times.
func (c *Client) withBusyRetry(ctx context.Context, attempt func() (*Rows, error)) (*Rows, error) {
	backoff := retryBackoff
	for try := 0; ; try++ {
		rows, err := attempt()
		if err == nil || try >= busyRetries || !errors.Is(err, bufferdb.ErrServerBusy) {
			return rows, err
		}
		t := time.NewTimer(backoff)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return nil, fmt.Errorf("client: canceled during busy backoff: %w", ctx.Err())
		}
		backoff *= 2
	}
}

// startStream writes a Query frame on cn and consumes the response head:
// either an immediate error (connection back to the pool, typed error out)
// or a Columns frame opening a row stream. The head read honors ctx — a
// server that accepts the request but never answers (wedged mid-execution)
// releases the connection when the caller gives up instead of pinning it
// and its pool slot indefinitely.
func (c *Client) startStream(ctx context.Context, cn *conn, payload []byte) (*Rows, error) {
	if err := cn.write(wire.TQuery, payload); err != nil {
		cn.broken = true
		c.release(cn)
		return nil, fmt.Errorf("client: send Query: %w", err)
	}
	ft, p, err := cn.readCtx(ctx)
	if err != nil {
		cn.broken = true
		c.release(cn)
		if ctx.Err() != nil {
			return nil, fmt.Errorf("client: awaiting response head: %w", ctx.Err())
		}
		return nil, fmt.Errorf("client: read response: %w", err)
	}
	switch ft {
	case wire.TError:
		serr := decodeError(p)
		c.release(cn)
		return nil, serr
	case wire.TColumns:
		r := wire.NewReader(p)
		n := int(r.U32())
		// Each column name costs at least its 4-byte length prefix; bound
		// the declared count before allocating for it.
		if n > r.Remaining()/4 {
			cn.broken = true
			c.release(cn)
			return nil, fmt.Errorf("client: malformed Columns frame: %d columns declared in %d payload bytes", n, len(p))
		}
		cols := make([]string, 0, n)
		for i := 0; i < n && r.Err() == nil; i++ {
			cols = append(cols, r.String())
		}
		if err := r.Err(); err != nil {
			cn.broken = true
			c.release(cn)
			return nil, err
		}
		rows := &Rows{c: c, cn: cn, ctx: ctx, cols: cols}
		rows.watchCancel()
		return rows, nil
	default:
		cn.broken = true
		c.release(cn)
		return nil, fmt.Errorf("client: unexpected %s frame as response head", ft)
	}
}

// decodeError parses a TError payload.
func decodeError(p []byte) *ServerError {
	r := wire.NewReader(p)
	code := wire.Code(r.U16())
	msg := r.String()
	if err := r.Err(); err != nil {
		return &ServerError{Code: wire.CodeProtocol, Msg: "malformed error frame"}
	}
	return &ServerError{Code: code, Msg: msg}
}

// IsTransport classifies an error from this package for failover: true
// means the peer may be dead or unreachable — a dial failure, a broken or
// truncated stream, a malformed frame — and retrying elsewhere is
// warranted. A *ServerError proves the server is alive and answering, so
// it is not a transport failure, with one deliberate exception:
// CodeShutdown means the node is draining and the work should move to a
// replica. The caller's own context expiry and a closed client are local
// conditions, never transport failures. ServerError is tested first
// because CodeCanceled/CodeDeadline unwrap to the context sentinels.
func IsTransport(err error) bool {
	if err == nil {
		return false
	}
	var se *ServerError
	if errors.As(err, &se) {
		return se.Code == wire.CodeShutdown
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	if errors.Is(err, ErrClosed) {
		return false
	}
	return true
}

// TableInfo is one catalog table, as reported by the daemon.
type TableInfo = wire.TableInfo

// Tables lists the daemon's default catalog.
func (c *Client) Tables(ctx context.Context) ([]TableInfo, error) {
	return c.tables(ctx, nil)
}

// TablesOf lists the catalog of one hosted slice on a replicated daemon.
func (c *Client) TablesOf(ctx context.Context, slice int) ([]TableInfo, error) {
	var b wire.Builder
	b.U32(uint32(slice + 1))
	return c.tables(ctx, b.Bytes())
}

func (c *Client) tables(ctx context.Context, payload []byte) ([]TableInfo, error) {
	cn, err := c.acquire(ctx)
	if err != nil {
		return nil, err
	}
	if err := cn.write(wire.TTables, payload); err != nil {
		cn.broken = true
		c.release(cn)
		return nil, err
	}
	ft, p, err := cn.read()
	if err != nil || ft != wire.TTablesOK {
		cn.broken = true
		c.release(cn)
		if err == nil {
			if ft == wire.TError {
				return nil, decodeError(p)
			}
			err = fmt.Errorf("client: unexpected %s frame", ft)
		}
		return nil, err
	}
	r := wire.NewReader(p)
	n := int(r.U32())
	// Each entry costs at least a 4-byte name prefix plus an 8-byte count.
	if n > r.Remaining()/12 {
		c.release(cn)
		return nil, fmt.Errorf("client: malformed TablesOK frame: %d tables declared in %d payload bytes", n, len(p))
	}
	out := make([]TableInfo, 0, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		out = append(out, TableInfo{Name: r.String(), Rows: r.U64()})
	}
	c.release(cn)
	return out, r.Err()
}

// conn is one pooled protocol connection. At most one request/response
// exchange is in flight on a conn at a time; the write mutex exists only
// for the Cancel frame, which a context's AfterFunc sends while the main
// flow is reading the stream.
type conn struct {
	c  net.Conn
	br *bufio.Reader
	bw *bufio.Writer

	wmu sync.Mutex

	broken bool
}

func (cn *conn) close() { cn.c.Close() }

func (cn *conn) handshake() (info string, err error) {
	var b wire.Builder
	b.U32(wire.Magic)
	b.U8(wire.Version)
	if err := cn.write(wire.THello, b.Bytes()); err != nil {
		return "", err
	}
	ft, p, err := cn.read()
	if err != nil {
		return "", err
	}
	switch ft {
	case wire.THelloOK:
		r := wire.NewReader(p)
		_ = r.U8() // version
		info = r.String()
		return info, r.Err()
	case wire.TError:
		return "", decodeError(p)
	default:
		return "", fmt.Errorf("unexpected %s frame", ft)
	}
}

func (cn *conn) write(t wire.Type, payload []byte) error {
	cn.wmu.Lock()
	defer cn.wmu.Unlock()
	if err := wire.WriteFrame(cn.bw, t, payload); err != nil {
		return err
	}
	return cn.bw.Flush()
}

func (cn *conn) read() (wire.Type, []byte, error) {
	return wire.ReadFrame(cn.br)
}

// readCtx reads one frame, aborting the blocked read if ctx is canceled
// first: an AfterFunc forces the connection's read deadline into the past,
// which fails the pending Read with a timeout. A read that won the race
// waits for a callback already started and clears the deadline it set, so
// the connection is left clean; an aborted read leaves it mid-frame and the
// caller must mark it broken.
func (cn *conn) readCtx(ctx context.Context) (wire.Type, []byte, error) {
	if ctx.Done() == nil {
		return cn.read()
	}
	fired := make(chan struct{})
	stop := context.AfterFunc(ctx, func() {
		_ = cn.c.SetReadDeadline(time.Unix(1, 0))
		close(fired)
	})
	ft, p, err := cn.read()
	if !stop() {
		<-fired
		_ = cn.c.SetReadDeadline(time.Time{})
	}
	return ft, p, err
}
