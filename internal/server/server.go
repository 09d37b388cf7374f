// Package server is bufferdb's network serving layer: a TCP server
// speaking the internal/wire protocol over a Backend — a resident
// *bufferdb.DB on a data node, a *dist.Coordinator in front of a fleet.
// The session loop is the same for both. On a data node every session's
// statements run through the engine's existing resource governor —
// admission control, deadlines, memory budgets, panic containment — and
// the sentinel errors those layers produce cross the connection as stable
// typed error codes. The DB backend adds the reuse layer a long-lived
// daemon makes worthwhile: an opt-in bounded cache replaying encoded result
// streams for repeated identical read-only queries, charged against the
// database's MemoryLimit. Plans are reused below it, by the database's own
// plan cache.
package server

import (
	"context"
	"errors"
	"net"
	"sync"
	"time"

	"bufferdb"
	"bufferdb/internal/wire"
)

// Config configures a Server. One of DB and Backend is required.
type Config struct {
	// DB is the resident database every session queries.
	DB *bufferdb.DB

	// Backend, when set, is served in place of a resident database. The
	// fields that tune the DB backend — DB, Slices, ResultCacheBytes,
	// FaultHook — must then be unset.
	Backend Backend

	// Slices maps hash-slice indices to their databases when this node
	// hosts replicas of several slices. DB stays the default target
	// (QueryOpts.Slice == 0); a request addressing slice k routes to
	// Slices[k], and slices absent from the map are rejected with a query
	// error so a coordinator/node placement mismatch fails loudly instead
	// of silently scanning the wrong rows. Nil means this node serves only
	// its default database.
	Slices map[int]*bufferdb.DB

	// ResultCacheBytes enables the result-reuse cache with a total budget
	// of encoded result bytes; 0 (the default) disables it — reuse of
	// whole results is opt-in.
	ResultCacheBytes int64

	// BatchRows bounds the rows packed into one RowBatch frame
	// (0 = 256); frames also flush early at ~64 KiB of payload.
	BatchRows int

	// WriteTimeout bounds each outgoing frame write. A client that stops
	// reading mid-stream would otherwise park the session goroutine forever
	// on a full TCP buffer, holding its admission slot and tracked memory —
	// context cancellation cannot unblock a blocked conn.Write. 0 selects
	// the default (30s); negative disables the deadline.
	WriteTimeout time.Duration

	// Info is the free-form server identification echoed in HelloOK.
	Info string

	// Logf receives connection-level diagnostics; nil discards them.
	Logf func(format string, args ...any)

	// FaultHook, when set, attaches a fault injector to every statement
	// whose SQL it returns non-nil for. It exists so the chaos suite can
	// drive the fault-injection harness through the network path; nil in
	// production. Statements with an injector bypass both reuse caches.
	FaultHook func(sql string) *bufferdb.FaultInjector
}

// Server accepts connections and serves sessions until Shutdown.
type Server struct {
	cfg     Config
	backend Backend
	// release returns what a backend New built itself still holds (the DB
	// backend's cache reservations) once the sessions are gone.
	release func()

	// ctx is canceled by Shutdown; every session context and in-flight
	// query context descends from it.
	ctx    context.Context
	cancel context.CancelFunc

	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	conns     map[net.Conn]struct{}
	closed    bool

	wg sync.WaitGroup
}

// New builds a Server over cfg.Backend, or over the resident database
// cfg.DB when no backend is given.
func New(cfg Config) (*Server, error) {
	backend, release := cfg.Backend, func() {}
	if backend == nil {
		b, err := newDBBackend(cfg)
		if err != nil {
			return nil, err
		}
		backend, release = b, b.close
	} else if cfg.DB != nil || cfg.Slices != nil || cfg.ResultCacheBytes != 0 || cfg.FaultHook != nil {
		return nil, errors.New("server: Config.Backend excludes DB, Slices, ResultCacheBytes and FaultHook")
	}
	if cfg.BatchRows <= 0 {
		cfg.BatchRows = 256
	}
	if cfg.WriteTimeout == 0 {
		cfg.WriteTimeout = 30 * time.Second
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{
		cfg:       cfg,
		backend:   backend,
		release:   release,
		ctx:       ctx,
		cancel:    cancel,
		listeners: map[net.Listener]struct{}{},
		conns:     map[net.Conn]struct{}{},
	}, nil
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// ErrServerClosed is returned by Serve after Shutdown, mirroring
// net/http.ErrServerClosed.
var ErrServerClosed = errors.New("server: closed")

// Serve accepts sessions on l until Shutdown closes it. Like
// net/http.Server.Serve it blocks, returning ErrServerClosed on a clean
// shutdown.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		l.Close()
		return ErrServerClosed
	}
	s.listeners[l] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.listeners, l)
		s.mu.Unlock()
		l.Close()
	}()

	for {
		conn, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return ErrServerClosed
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return ErrServerClosed
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()

		metricConnections().Inc()
		metricConnsOpen().Add(1)
		go func() {
			defer func() {
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
				metricConnsOpen().Add(-1)
				s.wg.Done()
			}()
			newSession(s, conn).run()
		}()
	}
}

// Shutdown stops accepting, cancels every in-flight query (which frees
// admission slots and drives tracked memory back to zero), and waits for
// sessions to drain. If ctx expires first, remaining connections are
// force-closed and Shutdown waits for their sessions to unwind before
// returning ctx's error.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for l := range s.listeners {
		l.Close()
	}
	s.mu.Unlock()

	// Cancel session + query contexts: blocked queries fail promptly and
	// sessions send a shutdown error frame before exiting.
	s.cancel()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		<-done
	}
	s.release()
	return err
}

// errorCode classifies a query error into its stable wire code, for every
// backend. The order matters: losing a shard outranks whatever the dying
// stream reported last; an error a live shard sent keeps the shard's own
// code, so busy/deadline/budget/panic classification survives the second
// hop (coded is how *client.ServerError is recognized without this package
// knowing the coordinator's internals); a deadline expiry also satisfies
// context cancellation, and a shutdown cancellation must not masquerade as
// a client cancel.
func (s *Server) errorCode(err error) wire.Code {
	var coded interface{ WireCode() wire.Code }
	switch {
	case errors.Is(err, bufferdb.ErrShardUnavailable):
		return wire.CodeUnavailable
	case errors.As(err, &coded):
		return coded.WireCode()
	case errors.Is(err, bufferdb.ErrServerBusy):
		return wire.CodeBusy
	case errors.Is(err, bufferdb.ErrDeadlineExceeded), errors.Is(err, context.DeadlineExceeded):
		return wire.CodeDeadline
	case errors.Is(err, bufferdb.ErrMemoryBudgetExceeded):
		return wire.CodeOOM
	case errors.Is(err, bufferdb.ErrQueryPanic):
		return wire.CodePanic
	case errors.Is(err, context.Canceled):
		if s.ctx.Err() != nil {
			return wire.CodeShutdown
		}
		return wire.CodeCanceled
	default:
		return wire.CodeQuery
	}
}
