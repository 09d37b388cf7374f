package server

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"time"

	"bufferdb/internal/wire"
)

// batchBytes flushes a RowBatch frame early once its payload reaches this
// size, regardless of the row count, so wide rows don't build huge frames.
const batchBytes = 64 << 10

// handshakeTimeout bounds how long a fresh connection may sit silent
// before its Hello arrives.
const handshakeTimeout = 10 * time.Second

// frame is one decoded incoming frame.
type frame struct {
	t       wire.Type
	payload []byte
}

// session serves one connection. All writes happen on the session
// goroutine; a dedicated reader goroutine decodes incoming frames into the
// frames channel so the session can notice Cancel frames and disconnects
// while a result is streaming.
type session struct {
	srv  *Server
	conn net.Conn
	bw   *bufio.Writer

	// frames delivers decoded client frames; the reader goroutine closes
	// it on read error or disconnect.
	frames chan frame
}

func newSession(s *Server, conn net.Conn) *session {
	return &session{
		srv:    s,
		conn:   conn,
		bw:     bufio.NewWriterSize(conn, 32<<10),
		frames: make(chan frame, 1),
	}
}

// readLoop decodes frames off the connection until it fails, then closes
// the frames channel — which the session observes as a disconnect.
func (ss *session) readLoop() {
	defer close(ss.frames)
	for {
		t, p, err := wire.ReadFrame(ss.conn)
		if err != nil {
			return
		}
		ss.frames <- frame{t, p}
	}
}

// run drives the session: handshake, then one request at a time until
// disconnect, protocol error or server shutdown.
func (ss *session) run() {
	defer func() {
		ss.conn.Close()
		// Unblock the reader if it is parked on a send.
		for range ss.frames {
		}
	}()
	go ss.readLoop()

	if err := ss.handshake(); err != nil {
		ss.srv.logf("server: %s: handshake: %v", ss.conn.RemoteAddr(), err)
		return
	}

	for {
		select {
		case <-ss.srv.ctx.Done():
			_ = ss.sendError(wire.CodeShutdown, "server shutting down")
			return
		case f, ok := <-ss.frames:
			if !ok {
				return
			}
			if err := ss.dispatch(f); err != nil {
				ss.srv.logf("server: %s: %v", ss.conn.RemoteAddr(), err)
				return
			}
		}
	}
}

// handshake expects Hello as the very first frame and answers HelloOK.
func (ss *session) handshake() error {
	_ = ss.conn.SetReadDeadline(time.Now().Add(handshakeTimeout))
	var f frame
	var ok bool
	select {
	case f, ok = <-ss.frames:
		if !ok {
			return fmt.Errorf("connection closed before Hello")
		}
	case <-ss.srv.ctx.Done():
		return context.Cause(ss.srv.ctx)
	}
	_ = ss.conn.SetReadDeadline(time.Time{})
	if f.t != wire.THello {
		_ = ss.sendError(wire.CodeProtocol, fmt.Sprintf("expected Hello, got %s", f.t))
		return fmt.Errorf("first frame was %s", f.t)
	}
	r := wire.NewReader(f.payload)
	magic, version := r.U32(), r.U8()
	if err := r.Err(); err != nil {
		_ = ss.sendError(wire.CodeProtocol, "malformed Hello")
		return err
	}
	if magic != wire.Magic {
		_ = ss.sendError(wire.CodeProtocol, "bad magic")
		return fmt.Errorf("bad magic 0x%08x", magic)
	}
	if version != wire.Version {
		_ = ss.sendError(wire.CodeProtocol, fmt.Sprintf("unsupported protocol version %d", version))
		return fmt.Errorf("unsupported version %d", version)
	}
	var b wire.Builder
	b.U8(wire.Version)
	b.String(ss.srv.cfg.Info)
	return ss.send(wire.THelloOK, b.Bytes())
}

// dispatch handles one request frame. A nil return keeps the session
// alive; an error tears the connection down (protocol violations, dead
// sockets).
func (ss *session) dispatch(f frame) error {
	switch f.t {
	case wire.TQuery:
		r := wire.NewReader(f.payload)
		opts := r.Opts()
		sql := r.String()
		if err := r.Err(); err != nil {
			_ = ss.sendError(wire.CodeProtocol, "malformed Query")
			return err
		}
		return ss.query(sql, opts)

	case wire.TTables:
		return ss.tables(f.payload)

	case wire.TCancel:
		// A cancel that raced the end of its stream; nothing to abort.
		return nil

	default:
		_ = ss.sendError(wire.CodeProtocol, fmt.Sprintf("unexpected %s frame", f.t))
		return fmt.Errorf("unexpected %s frame", f.t)
	}
}

// query serves a Query frame under a cancelable query context and puts
// its result on the wire. A backend that answers from its result cache
// returns the entry itself, which is replayed frame for frame; every other
// cursor is pulled and encoded by stream.
func (ss *session) query(sql string, opts wire.QueryOpts) error {
	metricInFlight().Add(1)
	defer metricInFlight().Add(-1)

	qctx, qcancel := context.WithCancel(ss.srv.ctx)
	defer qcancel()
	cur, err := ss.srv.backend.QueryStream(qctx, sql, opts)
	if res, ok := cur.(*cachedResult); ok {
		metricQueries("cached").Inc()
		return ss.replay(res)
	}
	metricQueries("adhoc").Inc()
	if err != nil {
		return ss.sendQueryError(err)
	}
	return ss.stream(qcancel, cur)
}

// stream drives a cursor onto the wire: Columns, RowBatch*, then Done or a
// terminal Error frame. While streaming, a watcher goroutine owns the
// incoming frame channel so a Cancel frame — or the channel closing on
// disconnect — cancels the query context, which frees its admission slot
// and returns its tracked memory (on a coordinator: tears down every shard
// stream). The returned error is session-fatal; query failures are
// reported to the client and return nil.
func (ss *session) stream(qcancel context.CancelFunc, rows Cursor) error {
	defer rows.Close()
	rec, _ := rows.(recorder)

	// Watch for Cancel / disconnect / stray frames while we stream.
	stop := make(chan struct{})
	watch := make(chan watchEvent, 1)
	go func() {
		select {
		case f, ok := <-ss.frames:
			if !ok {
				watch <- watchDisconnect
			} else if f.t == wire.TCancel {
				watch <- watchCancel
			} else {
				watch <- watchProtocol
			}
			qcancel()
		case <-stop:
			watch <- watchNone
		}
	}()
	settle := func() watchEvent {
		close(stop)
		return <-watch
	}

	// The header is flushed at once: a client sees the stream has started
	// (its query passed admission) even while the first rows are slow.
	cols := rows.Columns()
	if err := ss.columns(ss.send, cols); err != nil {
		settle()
		return err
	}

	var total uint64
	var batch wire.Builder
	var inBatch uint32
	// emit puts the pending batch on the wire: a full batch mid-stream is
	// flushed at once so the client can consume it while the next one is
	// produced; the final batch is only buffered, to share Done's flush.
	emit := func(put func(wire.Type, []byte) error) error {
		if inBatch == 0 {
			return nil
		}
		payload := batch.Bytes()
		binary.BigEndian.PutUint32(payload[:4], inBatch)
		if rec != nil {
			rec.recordBatch(payload, inBatch)
		}
		err := put(wire.TRowBatch, payload)
		batch.Reset()
		inBatch = 0
		return err
	}
	batch.U32(0) // row-count placeholder, patched in flush

	for rows.Next() {
		row := rows.Values()
		if len(row) != len(cols) {
			// The client decodes a batch by its column count; a row of
			// another width would shift every cell after it.
			settle()
			return ss.sendQueryError(fmt.Errorf("server: cursor produced a row of %d values for %d columns", len(row), len(cols)))
		}
		batch.Row(row)
		inBatch++
		total++
		if int(inBatch) >= ss.srv.cfg.BatchRows || batch.Len() >= batchBytes {
			if err := emit(ss.send); err != nil {
				settle()
				return err
			}
			batch.U32(0)
		}
	}

	ev := settle()
	switch ev {
	case watchDisconnect:
		// No one is listening; just unwind (rows.Close in the defer).
		return fmt.Errorf("client disconnected mid-stream")
	case watchProtocol:
		_ = ss.sendError(wire.CodeProtocol, "frame other than Cancel during result stream")
		return fmt.Errorf("frame other than Cancel during result stream")
	}

	if err := rows.Err(); err != nil {
		return ss.sendQueryError(err)
	}
	if ev == watchCancel {
		// The query finished before the cancel landed; report the cancel
		// anyway — the client stopped caring about this result.
		return ss.sendError(wire.CodeCanceled, "query canceled")
	}
	if err := emit(ss.write); err != nil {
		return err
	}
	if err := rows.Close(); err != nil {
		return ss.sendQueryError(err)
	}
	if err := ss.sendDone(total); err != nil {
		return err
	}
	if rec != nil {
		rec.recordDone()
	}
	return nil
}

// watchEvent is what the stream watcher observed.
type watchEvent int

const (
	watchNone watchEvent = iota
	watchCancel
	watchDisconnect
	watchProtocol
)

// replay streams a cached result — header, stored batches, done — with
// one flush: nothing is left to wait for.
func (ss *session) replay(res *cachedResult) error {
	if err := ss.columns(ss.write, res.cols); err != nil {
		return err
	}
	for _, batch := range res.batches {
		if err := ss.write(wire.TRowBatch, batch); err != nil {
			return err
		}
	}
	return ss.sendDone(res.rows)
}

// columns opens a result stream: it encodes the column header and hands
// it to put.
func (ss *session) columns(put func(wire.Type, []byte) error, cols []string) error {
	var b wire.Builder
	b.U32(uint32(len(cols)))
	for _, c := range cols {
		b.String(c)
	}
	return put(wire.TColumns, b.Bytes())
}

// sendDone ends a result stream with its row count.
func (ss *session) sendDone(rows uint64) error {
	var b wire.Builder
	b.U64(rows)
	return ss.send(wire.TDone, b.Bytes())
}

// tables answers a Tables frame from the backend's catalog. An empty
// payload (the original protocol) targets the default catalog; a payload
// carries the same slice selector QueryOpts uses (0 = default, k = slice
// k-1).
func (ss *session) tables(payload []byte) error {
	var slice int32
	if len(payload) > 0 {
		r := wire.NewReader(payload)
		slice = int32(r.U32())
		if err := r.Err(); err != nil {
			_ = ss.sendError(wire.CodeProtocol, "malformed Tables")
			return err
		}
	}
	infos, err := ss.srv.backend.Tables(ss.srv.ctx, slice)
	if err != nil {
		return ss.sendQueryError(err)
	}
	var b wire.Builder
	b.U32(uint32(len(infos)))
	for _, ti := range infos {
		b.String(ti.Name)
		b.U64(ti.Rows)
	}
	return ss.send(wire.TTablesOK, b.Bytes())
}

// send writes one frame and flushes it, with whatever write buffered
// before it.
func (ss *session) send(t wire.Type, payload []byte) error {
	if err := ss.write(t, payload); err != nil {
		return err
	}
	return ss.bw.Flush()
}

// write buffers one frame without flushing it; a later send carries it out
// (or the buffer does, once full). Each frame arms a fresh write deadline
// so a client that stops reading unwinds the session (freeing its
// admission slot and tracked memory) instead of blocking it forever.
func (ss *session) write(t wire.Type, payload []byte) error {
	if d := ss.srv.cfg.WriteTimeout; d > 0 {
		_ = ss.conn.SetWriteDeadline(time.Now().Add(d))
	}
	if err := wire.WriteFrame(ss.bw, t, payload); err != nil {
		return err
	}
	metricBytesSent().Add(uint64(len(payload) + 5))
	return nil
}

// sendQueryError reports a failed statement with its stable code; the
// session stays alive.
func (ss *session) sendQueryError(err error) error {
	return ss.sendError(ss.srv.errorCode(err), err.Error())
}

// sendError writes a terminal Error frame and counts it.
func (ss *session) sendError(code wire.Code, msg string) error {
	metricQueryErrors(code).Inc()
	var b wire.Builder
	b.U16(uint16(code))
	b.String(msg)
	return ss.send(wire.TError, b.Bytes())
}
