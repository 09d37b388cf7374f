package bufferdb

import (
	"context"
	"errors"
	"fmt"
	"time"

	"bufferdb/internal/exec"
	"bufferdb/internal/plan"
	"bufferdb/internal/sql"
	"bufferdb/internal/storage"
)

// Rows is a streaming query result cursor, in the style of database/sql:
//
//	rows, err := db.QueryStream(ctx, query)
//	if err != nil { ... }
//	defer rows.Close()
//	for rows.Next() {
//	    var key int64
//	    var charge float64
//	    if err := rows.Scan(&key, &charge); err != nil { ... }
//	}
//	if err := rows.Err(); err != nil { ... }
//
// Rows pulls tuples from the executing plan on demand — nothing is
// materialized ahead of the consumer except what blocking operators (sort,
// hash build) hold by nature. A Rows is not safe for concurrent use; run
// concurrent queries on separate cursors.
type Rows struct {
	ectx   *exec.Context
	op     exec.Operator
	cols   []string
	schema storage.Schema

	row    storage.Row
	err    error
	closed bool

	// closeErr retains an operator-teardown error from an internal close
	// (end-of-stream in Next) so the consumer's first explicit Close still
	// surfaces it; the second Close returns nil.
	closeErr error

	// Governor state settled exactly once in close(): the per-query memory
	// tracker, the deadline cancel func, the admission controller holding
	// this query's slot, and the owning DB (for the tracked-bytes gauge).
	mem    *exec.MemTracker
	cancel context.CancelFunc
	adm    *admission
	db     *DB

	// releases unpin reuse-cache entries this cursor adopted; they run in
	// close() so eviction can never free a build mid-probe.
	releases []func()

	// tables and epochs are the read set ReadSet reports.
	tables []string
	epochs map[string]uint64

	// started and emitted feed the process-wide metrics registry when the
	// cursor finishes.
	started     time.Time
	emitted     uint64
	metricsDone bool
}

// QueryStream plans the statement (refined, on Volcano), starts executing,
// and returns a streaming cursor. The context cancels the
// query: once ctx is done, Next stops and Err reports an error wrapping the
// context's.
func (db *DB) QueryStream(ctx context.Context, query string, opts ...QueryOption) (*Rows, error) {
	return db.queryStream(ctx, query, applyOptions(opts))
}

// queryStream is the shared ad-hoc execution path: plan, then run. Writes
// (INSERT) divert to the storage tier before planning — they have no
// operator pipeline.
func (db *DB) queryStream(ctx context.Context, query string, qo QueryOptions) (*Rows, error) {
	if sql.IsInsert(query) {
		return db.execInsert(ctx, query)
	}
	p, err := db.plan(query)
	if err != nil {
		return nil, err
	}
	return db.execPlan(ctx, p, qo)
}

// execPlan compiles an already-planned statement and starts executing it
// under the resource governor: the query passes admission control, runs
// under its deadline and memory budget, and contains operator panics.
func (db *DB) execPlan(ctx context.Context, p *plan.Node, qo QueryOptions) (*Rows, error) {
	metricQueries().Inc()

	// The deadline clock starts before admission: a query stuck in the
	// wait queue is still burning its caller's patience.
	cancel := context.CancelFunc(func() {})
	if qo.Timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, qo.Timeout)
	}

	adm := db.adm
	if err := adm.acquire(ctx); err != nil {
		cancel()
		classifyError(err)
		metricErrors().Inc()
		return nil, err
	}
	if adm != nil {
		metricAdmitted().Add(1)
	}
	// From here on, any failure must return the slot, stop the clock,
	// release tracked memory and unpin adopted cache entries before
	// surfacing.
	var reuseReleases []func()
	bail := func(mem *exec.MemTracker, err error) (*Rows, error) {
		for _, rel := range reuseReleases {
			rel()
		}
		mem.ReleaseAll()
		if adm != nil {
			adm.release()
			metricAdmitted().Add(-1)
		}
		cancel()
		classifyError(err)
		metricErrors().Inc()
		return nil, err
	}

	// The read set: the base tables the plan reads and their write epochs,
	// snapshotted before anything executes. Both come before reuse splices
	// cached sources over subtrees, so a spliced intermediate's tables stay
	// in the set and its entry cannot predate the snapshot.
	var tables []string
	var epochs map[string]uint64
	if tables = plan.Tables(p); tables != nil {
		epochs = db.epochs.Snapshot(tables)
	}

	// Semantic reuse: splice cached intermediates over matching subtrees
	// (pinning them for the cursor's lifetime) and attach publish hooks to
	// the rest. The plan is this execution's private copy — db.plan hands
	// out a fresh plan or a bound clone of its template — so mutation is
	// safe.
	if db.reuseCache != nil {
		p, reuseReleases = plan.ApplyReuse(p, db.reuseCache)
	}

	op, err := plan.Compile(p, nil, plan.EngineVolcano)
	if err != nil {
		return bail(nil, err)
	}

	// The query tracker is a child of the process tracker; with neither a
	// per-query budget nor a database limit it stays nil and every
	// operator hook is a single nil check.
	var mem *exec.MemTracker
	if qo.MemoryBudget > 0 || db.mem != nil {
		mem = exec.NewMemTracker("query", qo.MemoryBudget, db.mem)
	}
	ectx := &exec.Context{Catalog: db.cat, Ctx: ctx, Mem: mem, Fault: qo.FaultInjector}
	if err := exec.CallOpen(ectx, op); err != nil {
		// Tear down whatever Open built before failing; a partially opened
		// tree may already hold goroutines and tracked memory.
		_ = exec.CallClose(ectx, op)
		return bail(mem, err)
	}
	schema := p.Schema()
	cols := make([]string, len(schema))
	for i, c := range schema {
		cols[i] = c.Name
	}
	return &Rows{
		ectx:     ectx,
		op:       op,
		cols:     cols,
		schema:   schema,
		mem:      mem,
		cancel:   cancel,
		adm:      adm,
		db:       db,
		releases: reuseReleases,
		tables:   tables,
		epochs:   epochs,
		started:  time.Now(),
	}, nil
}

// classifyError feeds the failure-class counters from a query error.
func classifyError(err error) {
	switch {
	case errors.Is(err, ErrServerBusy):
		metricRejected().Inc()
	case errors.Is(err, exec.ErrDeadlineExceeded), errors.Is(err, context.DeadlineExceeded):
		metricTimeout().Inc()
	case errors.Is(err, exec.ErrMemoryBudgetExceeded):
		metricOOM().Inc()
	case errors.Is(err, exec.ErrOperatorPanic):
		metricPanic().Inc()
	}
}

// ReadSet reports the sorted base tables the statement's plan reads and
// each one's write epoch as of the start of execution. A layer caching the
// result tags it with the tables and refuses it if any epoch (DB.TableEpoch)
// has moved by the time the stream ends. Both are nil for a plan that reads
// no table, and for an INSERT.
func (r *Rows) ReadSet() (tables []string, epochs map[string]uint64) {
	return r.tables, r.epochs
}

// Columns names the result attributes, in Scan order. The returned slice is
// cached and shared across calls; treat it as read-only.
func (r *Rows) Columns() []string { return r.cols }

// Next advances to the next row. It returns false at end of stream, on
// error, on cancellation, or after Close; consult Err afterwards to tell
// completion from failure.
func (r *Rows) Next() bool {
	if r.closed || r.err != nil {
		return false
	}
	if err := r.ectx.Canceled(); err != nil {
		r.fail(err)
		return false
	}
	row, err := exec.CallNext(r.ectx, r.op)
	if err != nil {
		r.fail(err)
		return false
	}
	if row == nil {
		r.row = nil
		// End of stream: tear down now, deferring any teardown error to
		// the consumer's explicit Close.
		r.closeErr = r.close()
		return false
	}
	r.row = row
	r.emitted++
	return true
}

// Scan copies the current row into dest, one pointer per column. Supported
// destinations: *int64, *float64, *string, *bool, *time.Time, and *any
// (which receives the same native value Result rows carry, including nil
// for SQL NULL). The typed pointers reject NULL.
func (r *Rows) Scan(dest ...any) error {
	if r.row == nil {
		if r.closed {
			return fmt.Errorf("bufferdb: Scan: %w", ErrRowsClosed)
		}
		return fmt.Errorf("bufferdb: Scan called without a successful Next")
	}
	if err := r.row.Scan(r.cols, dest); err != nil {
		return fmt.Errorf("bufferdb: Scan: %w", err)
	}
	return nil
}

// Values lends the current row in the engine's own representation, one
// value per column: nil before a successful Next and after Close, and
// valid only until the next call to Next. It is what the serving tier
// encodes from; Scan is the copying accessor.
func (r *Rows) Values() storage.Row { return r.row }

// Err returns the error, if any, that ended iteration. A query that ran to
// completion (or was closed early by the consumer) reports nil; a canceled
// query reports an error wrapping the context's.
func (r *Rows) Err() error { return r.err }

// Close releases the executing plan. It is idempotent and safe after
// exhaustion; abandoning a stream mid-way is exactly what it is for. The
// first Close reports any operator-teardown error — including one deferred
// from the internal end-of-stream close — later calls return nil.
func (r *Rows) Close() error {
	r.row = nil
	if r.closed {
		err := r.closeErr
		r.closeErr = nil
		return err
	}
	return r.close()
}

// fail records err and tears the plan down.
func (r *Rows) fail(err error) {
	r.err = err
	r.row = nil
	classifyError(err)
	metricErrors().Inc()
	_ = r.close()
}

// close shuts the operator tree down once, returns the query's governor
// resources (tracked memory, deadline timer, admission slot), and settles
// the cursor's metrics.
func (r *Rows) close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	err := exec.CallClose(r.ectx, r.op)
	// Adopted reuse-cache entries stay pinned until the tree is down: only
	// now can eviction release their reservations.
	for _, rel := range r.releases {
		rel()
	}
	r.releases = nil
	// Operators release their charges in Close; ReleaseAll only mops up
	// after a teardown path that lost track (e.g. a panicking Close).
	r.mem.ReleaseAll()
	if r.cancel != nil {
		r.cancel()
	}
	if r.adm != nil {
		r.adm.release()
		metricAdmitted().Add(-1)
		r.adm = nil
	}
	if r.db != nil && r.db.mem != nil {
		metricTrackedBytes().Set(float64(r.db.mem.Bytes()))
	}
	if !r.metricsDone {
		r.metricsDone = true
		metricRows().Add(r.emitted)
		metricLatency().Observe(time.Since(r.started).Seconds())
	}
	return err
}
