package dist

import (
	"context"
	"time"

	"bufferdb/internal/client"
	"bufferdb/internal/exec"
	"bufferdb/internal/plan"
	"bufferdb/internal/storage"
)

// start builds and opens the plan's pipeline: the merge plan compiled with
// its scan replaced by the gathered legs — one remote scan per leg, under
// an Exchange when there are several — and charged to a per-query tracker
// under the coordinator's.
func (r *Rows) start(ctx context.Context, p *distPlan, opts []client.Option) error {
	qctx, cancel := context.WithCancel(ctx)
	mem := exec.NewMemTracker("dist-query", 0, r.co.mem)
	parts := make([]exec.Operator, len(p.legs))
	for i, l := range p.legs {
		parts[i] = newRemoteScan(r.co, p, l, opts)
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
	root, err := build(p.merge)
	if err != nil {
		cancel()
		return err
	}
	ectx := &exec.Context{Catalog: r.co.cat, Ctx: qctx, Mem: mem}
	if err := exec.CallOpen(ectx, root); err != nil {
		// Cancel before Close: exchange workers parked on shard reads
		// unblock via the client cursor's Cancel frame, so Close's drain
		// can't deadlock on a wedged shard.
		cancel()
		_ = exec.CallClose(ectx, root)
		mem.ReleaseAll()
		return err
	}
	r.ectx, r.root, r.cancel, r.mem, r.cols = ectx, root, cancel, mem, root.Schema().Names()
	return nil
}

// Rows is the coordinator's streaming cursor. It mirrors the client cursor's
// contract — Columns/Next/Row/Scan/Err/Close — so callers swap a single
// node for a sharded deployment without touching their drain loop. It runs
// the local gather pipeline over the plan's legs, each of which replays on
// another replica when its node dies mid-stream; Close cancels the query
// context first, which tears down every leg's stream before the operators
// drain.
type Rows struct {
	co     *Coordinator
	ectx   *exec.Context
	root   exec.Operator
	cancel context.CancelFunc
	mem    *exec.MemTracker
	cols   []string
	cur    storage.Row // the merged row, borrowed from the pipeline until Next
	native []any       // Row's reused slice
	boxed  bool        // native already holds cur's values
	err    error
	done   bool
	closed bool
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
	row, err := exec.CallNext(r.ectx, r.root)
	if err != nil {
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
	return true
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

// shutdown tears the pipeline down exactly once. Cancellation precedes
// operator Close: exchange workers blocked on shard reads unblock only once
// the client cursor's Cancel frame ends the shard stream, and Close joins
// them.
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
