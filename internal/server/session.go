package server

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"bufferdb/internal/wire"
)

// batchBytes flushes a RowBatch frame early once its payload reaches this
// size, regardless of the row count, so wide rows don't build huge frames.
const batchBytes = 64 << 10

// handshakeTimeout bounds how long a fresh connection may sit silent
// before its Hello arrives.
const handshakeTimeout = 10 * time.Second

// headerDelay is how long a result's Columns header waits in the buffer for
// its first rows: well above a short statement's whole run (≈ 0.25 ms at the
// served mix's p95), well below a wait a caller notices.
const headerDelay = time.Millisecond

// frame is one decoded incoming frame.
type frame struct {
	t       wire.Type
	payload []byte
}

// session serves one connection. A dedicated reader goroutine decodes
// incoming frames into the frames channel so the session can notice Cancel
// frames and disconnects while a statement runs.
type session struct {
	srv  *Server
	conn net.Conn
	// wmu guards bw, so a stream's header timer may flush it.
	wmu sync.Mutex
	bw  *bufio.Writer

	// frames delivers decoded client frames; the reader goroutine closes
	// it on read error or disconnect.
	frames chan frame
	// pending counts the frames (and the read error) the reader has taken
	// and the session has not yet received.
	pending atomic.Int32
	// cancel is the running statement's cancel func, nil between them.
	cancel      atomic.Pointer[context.CancelFunc]
	headerDelay time.Duration // headerDelay; tests hold the header longer
}

func newSession(s *Server, conn net.Conn) *session {
	return &session{
		srv:         s,
		conn:        conn,
		bw:          bufio.NewWriterSize(conn, 32<<10),
		frames:      make(chan frame, 1),
		headerDelay: headerDelay,
	}
}

// readLoop decodes frames off the connection until it fails, then closes
// the frames channel — which the session observes as a disconnect. Each
// frame, and the error, first cancels the running statement: a client sends
// nothing mid-statement but Cancel.
func (ss *session) readLoop() {
	defer close(ss.frames)
	for {
		t, p, err := wire.ReadFrame(ss.conn)
		ss.pending.Add(1)
		if c := ss.cancel.Load(); c != nil {
			(*c)()
		}
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
			ss.pending.Add(-1)
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
		ss.pending.Add(-1)
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
// cursor is pulled and encoded by stream. The reader holds the cancel func
// before the backend plans, so a Cancel during admission or planning stops
// the statement; a frame it took just before then cancels it here.
func (ss *session) query(sql string, opts wire.QueryOpts) error {
	metricInFlight().Add(1)
	defer metricInFlight().Add(-1)

	qctx, qcancel := context.WithCancel(ss.srv.ctx)
	defer qcancel()
	ss.cancel.Store(&qcancel)
	defer ss.cancel.Store(nil)
	if ss.pending.Load() > 0 {
		qcancel()
	}
	cur, err := ss.srv.backend.QueryStream(qctx, sql, opts)
	if res, ok := cur.(*cachedResult); ok {
		metricQueries("cached").Inc()
		return ss.replay(res)
	}
	metricQueries("adhoc").Inc()
	if err != nil {
		return ss.sendQueryError(err)
	}
	return ss.stream(cur)
}

// stream drives a cursor onto the wire: Columns, RowBatch*, then Done or a
// terminal Error frame. The header waits for the first flush — a full batch,
// or the last batch with Done — so a short result costs one socket write; a
// timer flushes it alone if nothing has gone out after headerDelay. A frame
// the client sends meanwhile cancels the query context (readLoop), which
// frees its admission slot and returns its tracked memory (on a
// coordinator: tears down every shard stream). The returned error is
// session-fatal; query failures are reported to the client and return nil.
func (ss *session) stream(rows Cursor) error {
	defer rows.Close()
	rec, _ := rows.(recorder)

	cols := rows.Columns()
	if err := ss.columns(ss.write, cols); err != nil {
		return err
	}
	header := time.AfterFunc(ss.headerDelay, func() { _ = ss.flush() })
	defer header.Stop()

	var total uint64
	var batch wire.Builder
	var inBatch uint32
	// emit puts the pending batch on the wire: a full batch mid-stream is
	// flushed at once, with the header if it is still buffered, so the
	// client can consume it while the next one is produced; the final batch
	// is only buffered, to share Done's flush.
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
			return ss.sendQueryError(fmt.Errorf("server: cursor produced a row of %d values for %d columns", len(row), len(cols)))
		}
		batch.Row(row)
		inBatch++
		total++
		if int(inBatch) >= ss.srv.cfg.BatchRows || batch.Len() >= batchBytes {
			if err := emit(ss.send); err != nil {
				return err
			}
			batch.U32(0)
		}
	}

	// Withdraw the cancel func; a frame the reader took before that is
	// pending and on its way.
	ss.cancel.Store(nil)
	canceled := false
	if ss.pending.Load() > 0 {
		f, ok := <-ss.frames
		if !ok {
			// No one is listening; just unwind (rows.Close in the defer).
			return fmt.Errorf("client disconnected mid-stream")
		}
		ss.pending.Add(-1)
		if f.t != wire.TCancel {
			_ = ss.sendError(wire.CodeProtocol, "frame other than Cancel during result stream")
			return fmt.Errorf("frame other than Cancel during result stream")
		}
		canceled = true
	}

	if err := rows.Err(); err != nil {
		return ss.sendQueryError(err)
	}
	if canceled {
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
	return ss.flush()
}

// flush puts whatever the buffer holds on the wire.
func (ss *session) flush() error {
	ss.wmu.Lock()
	defer ss.wmu.Unlock()
	return ss.bw.Flush()
}

// write buffers one frame without flushing it; a later send carries it out
// (or the buffer does, once full). Each frame arms a fresh write deadline
// so a client that stops reading unwinds the session (freeing its
// admission slot and tracked memory) instead of blocking it forever.
func (ss *session) write(t wire.Type, payload []byte) error {
	ss.wmu.Lock()
	defer ss.wmu.Unlock()
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
