package client

import (
	"context"
	"fmt"
	"time"

	"bufferdb/internal/storage"
	"bufferdb/internal/wire"
)

// drainTimeout bounds how long Close waits for the server's terminal frame
// after sending a Cancel before declaring the connection unusable.
const drainTimeout = 5 * time.Second

// Rows is a streaming result cursor over a pooled connection:
//
//	rows, err := c.Query(ctx, sql)
//	defer rows.Close()
//	for rows.Next() {
//	    use(rows.Row())
//	}
//	if err := rows.Err(); err != nil { ... }
//
// The cursor owns its connection until the stream terminates (Done, a
// server error, or Close), then returns it to the pool. Not safe for
// concurrent use. Canceling the query's context mid-stream sends a Cancel
// frame; the server frees the query's admission slot and tracked memory
// and terminates the stream.
type Rows struct {
	c   *Client
	cn  *conn
	ctx context.Context

	cols []string

	// batch is the current RowBatch frame decoded once into one arena of
	// rows × len(cols) values; row i is the sub-slice at i*len(cols). Every
	// batch gets a fresh arena, so a typed row stays valid for as long as a
	// consumer holds it (and pins the whole arena while it does).
	batch []storage.Value
	rows  int // rows in batch
	next  int // next row of batch to surface
	cur   storage.Row

	// native is Row's reused slice; boxed says it already holds cur's
	// values, so a row nobody asks for in native form is never boxed.
	native []any
	boxed  bool

	total    uint64
	err      error
	finished bool // terminal frame consumed, conn released
	closed   bool

	watchStop chan struct{}
	watchDone chan struct{}
}

// watchCancel propagates context cancellation as a Cancel frame while the
// stream is live.
func (r *Rows) watchCancel() {
	defer close(r.watchDone)
	select {
	case <-r.ctx.Done():
		_ = r.cn.write(wire.TCancel, nil)
	case <-r.watchStop:
	}
}

// stopWatch tears the cancel watcher down exactly once.
func (r *Rows) stopWatch() {
	select {
	case <-r.watchStop:
	default:
		close(r.watchStop)
	}
	<-r.watchDone
}

// Columns names the result attributes. The slice is shared; treat it as
// read-only.
func (r *Rows) Columns() []string { return r.cols }

// Values returns the current row in the engine's representation, one value
// per column: nil without a current row. Unlike Row's slice it is never
// overwritten, so it may be kept past Next.
func (r *Rows) Values() storage.Row { return r.cur }

// Row returns the current row's native Go values (int64, float64, string,
// bool, time.Time, nil). The slice is reused by Next; copy it to retain.
func (r *Rows) Row() []any {
	if r.cur == nil {
		return nil
	}
	if !r.boxed {
		r.native, r.boxed = r.cur.Natives(r.native), true
	}
	return r.native
}

// Err reports the error that terminated iteration, if any.
func (r *Rows) Err() error { return r.err }

// Scan copies the current row into dest, one pointer per column, with the
// conversions and error contract of the local bufferdb.Rows.Scan
// (storage.Row.Scan), so remote and local cursors are drop-in
// interchangeable.
func (r *Rows) Scan(dest ...any) error {
	return ScanRow(dest, r.cur, r.cols, r.closed)
}

// ScanRow is Scan over a typed row (nil: no current row). Exported so the
// dist coordinator's cursor reports the same errors as the direct client
// cursor.
func ScanRow(dest []any, row storage.Row, cols []string, closed bool) error {
	if row == nil {
		if closed {
			return fmt.Errorf("client: Scan: rows are closed")
		}
		return fmt.Errorf("client: Scan called without a successful Next")
	}
	if err := row.Scan(cols, dest); err != nil {
		return fmt.Errorf("client: Scan: %w", err)
	}
	return nil
}

// Total returns the server-reported row count after a complete drain.
func (r *Rows) Total() uint64 { return r.total }

// Next advances the cursor. It returns false at end of stream, on error,
// or after Close; consult Err to tell completion from failure.
func (r *Rows) Next() bool {
	if r.closed || r.finished || r.err != nil {
		return false
	}
	for {
		if r.next < r.rows {
			w := len(r.cols)
			r.cur = r.batch[r.next*w : (r.next+1)*w : (r.next+1)*w]
			r.boxed = false
			r.next++
			return true
		}
		ft, p, err := r.cn.read()
		if err != nil {
			r.fail(fmt.Errorf("client: read row stream: %w", err), true)
			return false
		}
		switch ft {
		case wire.TRowBatch:
			if !r.decodeBatch(p) {
				return false
			}
		case wire.TDone:
			rd := wire.NewReader(p)
			r.total = rd.U64()
			r.settle(nil)
			return false
		case wire.TError:
			serr := decodeError(p)
			// If our own context died, report that; the server's Canceled
			// code is just its echo.
			if r.ctx.Err() != nil && serr.Code == wire.CodeCanceled {
				r.settle(fmt.Errorf("client: query canceled: %w", r.ctx.Err()))
			} else {
				r.settle(serr)
			}
			return false
		default:
			r.fail(fmt.Errorf("client: unexpected %s frame in row stream", ft), true)
			return false
		}
	}
}

// decodeBatch replaces the cursor's arena with the rows of one RowBatch
// frame; a malformed frame poisons the connection.
func (r *Rows) decodeBatch(p []byte) bool {
	arena, n, err := wire.DecodeRowBatch(p, len(r.cols))
	if err != nil {
		r.fail(fmt.Errorf("client: malformed row batch: %w", err), true)
		return false
	}
	r.batch, r.rows, r.next = arena, n, 0
	return true
}

// settle ends the stream cleanly: the terminal frame was consumed, so the
// connection is in a known state and returns to the pool.
func (r *Rows) settle(err error) {
	r.err = err
	r.cur = nil
	r.finished = true
	r.stopWatch()
	r.c.release(r.cn)
}

// fail ends the stream on a transport error; the connection is poisoned.
func (r *Rows) fail(err error, broken bool) {
	r.err = err
	r.cur = nil
	r.finished = true
	r.stopWatch()
	r.cn.broken = broken
	r.c.release(r.cn)
}

// Close releases the cursor. Mid-stream it cancels the query server-side
// and drains to the terminal frame so the connection can be pooled again;
// a drain that stalls past drainTimeout closes the connection instead.
// Close is idempotent and does not disturb Err.
func (r *Rows) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	// Drop the current row so Scan after Close reports closure instead of
	// reading stale data — mirroring the local cursor.
	r.cur = nil
	if r.finished {
		return nil
	}
	r.stopWatch()
	if err := r.cn.write(wire.TCancel, nil); err != nil {
		r.fail2(err)
		return nil
	}
	_ = r.cn.c.SetReadDeadline(time.Now().Add(drainTimeout))
	for {
		ft, _, err := r.cn.read()
		if err != nil {
			r.fail2(err)
			return nil
		}
		if ft == wire.TDone || ft == wire.TError {
			break
		}
	}
	_ = r.cn.c.SetReadDeadline(time.Time{})
	r.finished = true
	r.c.release(r.cn)
	return nil
}

// fail2 is Close's teardown for an unusable connection: no error surfacing
// (the consumer abandoned the stream), just poison and release.
func (r *Rows) fail2(error) {
	r.finished = true
	r.cn.broken = true
	r.c.release(r.cn)
}
