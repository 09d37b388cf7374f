package dist

import (
	"context"
	"errors"
	"time"

	"bufferdb/internal/client"
	"bufferdb/internal/exec"
	"bufferdb/internal/plan"
	"bufferdb/internal/storage"
)

// maxScatterRestarts bounds how many times one query may rebuild its whole
// scatter after a non-replayable leg loss. Each restart re-routes through
// the breakers, so a dead node is excluded quickly; the bound exists for
// fleets that keep dying mid-query.
const maxScatterRestarts = 3

// start builds and opens one incarnation of the plan's pipeline: the merge
// plan compiled with its scan replaced by the gathered legs — one remote
// scan per leg, under an Exchange when there are several — and charged to
// a per-query tracker under the coordinator's. The cursor keeps the plan
// so it can rebuild the pipeline if a non-replayable leg is lost
// mid-stream before anything surfaced.
func (r *Rows) start() error {
	qctx, cancel := context.WithCancel(r.baseCtx)
	mem := exec.NewMemTracker("dist-query", 0, r.co.mem)
	parts := make([]exec.Operator, len(r.plan.legs))
	for i, l := range r.plan.legs {
		parts[i] = newRemoteScan(r.co, r.plan, l, r.opts)
	}
	var build func(n *plan.Node) (exec.Operator, error)
	build = func(n *plan.Node) (exec.Operator, error) {
		switch {
		case n.Kind != plan.KindSeqScan:
			return plan.BuildNode(n, nil, build)
		case len(parts) == 1:
			return parts[0], nil
		default:
			return exec.NewExchange(parts)
		}
	}
	root, err := build(r.plan.merge)
	if err != nil {
		cancel()
		return err
	}
	ectx := &exec.Context{Catalog: r.co.cat, Ctx: qctx, Mem: mem}
	if err := exec.CallOpen(ectx, root); err != nil {
		// Cancel before Close: exchange workers parked on shard reads
		// unblock via the client's cancel watcher, so Close's drain can't
		// deadlock on a wedged shard.
		cancel()
		_ = exec.CallClose(ectx, root)
		mem.ReleaseAll()
		return err
	}
	sch := root.Schema()
	cols := make([]string, len(sch))
	for i, col := range sch {
		cols[i] = col.Name
	}
	r.ectx, r.root, r.cancel, r.mem, r.cols = ectx, root, cancel, mem, cols
	return nil
}

// Rows is the coordinator's streaming cursor. It mirrors the client cursor's
// contract — Columns/Next/Row/Scan/Err/Close — so callers swap a single
// node for a sharded deployment without touching their drain loop. It runs
// the local gather pipeline over the plan's legs; Close cancels the query
// context first, which tears down every leg's stream before the operators
// drain.
type Rows struct {
	co *Coordinator

	// The compiled plan, so the pipeline can be rebuilt for a scatter
	// restart, and the running incarnation.
	plan     *distPlan
	opts     []client.Option
	baseCtx  context.Context
	ectx     *exec.Context
	root     exec.Operator
	cancel   context.CancelFunc
	mem      *exec.MemTracker
	cols     []string
	cur      storage.Row // the merged row, borrowed from the pipeline until Next
	native   []any       // Row's reused slice
	boxed    bool        // native already holds cur's values
	surfaced int64       // rows handed to the caller (restart barrier)
	restarts int
	err      error
	done     bool
	closed   bool
}

// Columns names the result attributes. The slice is shared; treat it as
// read-only.
func (r *Rows) Columns() []string { return r.cols }

// Next advances the cursor. It returns false at end of stream, on error, or
// after Close; consult Err to tell completion from failure.
func (r *Rows) Next() bool {
	if r.closed || r.done || r.err != nil {
		return false
	}
	for {
		row, err := exec.CallNext(r.ectx, r.root)
		if err != nil {
			var re *rescatterError
			if errors.As(err, &re) {
				if r.surfaced == 0 && r.restarts < maxScatterRestarts && r.baseCtx.Err() == nil {
					// Nothing surfaced past the merge barrier: rebuild the
					// whole scatter transparently. The failed node's breaker
					// took the failure, so the new incarnation routes around
					// it.
					r.restarts++
					metricRescatters().Inc()
					r.teardown()
					if rerr := r.start(); rerr != nil {
						r.err = rerr
						r.closed = true
						return false
					}
					continue
				}
				err = re.cause
			}
			r.err = err
			r.shutdown()
			return false
		}
		if row == nil {
			r.done = true
			r.shutdown()
			return false
		}
		r.cur, r.boxed = row, false
		r.surfaced++
		return true
	}
}

// Values lends the current row in the engine's representation — what the
// serving tier encodes from — valid until the next call to Next; nil
// without a current row.
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

// Scan copies the current row into dest, one pointer per column, with the
// same conversions and error contract as the client cursor.
func (r *Rows) Scan(dest ...any) error {
	return client.ScanRow(dest, r.cur, r.cols, r.closed)
}

// Err reports the error that terminated iteration, if any. Shard failures
// surface as *ShardError; errors.Is(err, bufferdb.ErrShardUnavailable)
// classifies transport-class loss.
func (r *Rows) Err() error { return r.err }

// Close releases the cursor: it cancels the query context (tearing down
// every shard stream), drains the operator tree, and returns all tracked
// coordinator memory. Idempotent; does not disturb Err.
func (r *Rows) Close() error {
	r.shutdown()
	return nil
}

// teardown dismantles the current pipeline incarnation without closing the
// cursor, so a scatter restart can build the next one. Cancellation MUST
// precede operator Close: exchange workers blocked on shard TCP reads only
// unblock when the client cancel watcher fires, and Close joins them.
func (r *Rows) teardown() {
	r.cancel()
	_ = exec.CallClose(r.ectx, r.root)
	r.mem.ReleaseAll()
}

// shutdown tears the pipeline down exactly once.
func (r *Rows) shutdown() {
	if r.closed {
		return
	}
	r.closed = true
	r.cur = nil
	start := time.Now()
	r.cancel()
	if err := exec.CallClose(r.ectx, r.root); err != nil && r.err == nil && !r.done {
		r.err = err
	}
	r.mem.ReleaseAll()
	metricMergeClose().Observe(time.Since(start).Seconds())
}
