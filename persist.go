package bufferdb

import (
	"context"
	"fmt"
	"time"

	"bufferdb/internal/exec"
	"bufferdb/internal/pager"
	"bufferdb/internal/sql"
	"bufferdb/internal/storage"
	"bufferdb/internal/tpch"
)

// Open opens an existing persistent database (Options.DataDir must name a
// directory previously populated by OpenTPCH with a DataDir, or by the
// pager API directly). Crash recovery runs inside: committed WAL batches
// replay, the torn tail is discarded, and the store starts checkpointed.
func Open(opts Options) (*DB, error) {
	if opts.DataDir == "" {
		return nil, fmt.Errorf("bufferdb: Open needs Options.DataDir (use OpenTPCH for an in-memory database)")
	}
	if !pager.HasCatalog(opts.DataDir) {
		return nil, fmt.Errorf("bufferdb: no database in %s: %w", opts.DataDir, ErrUnknownTable)
	}
	db := newDB(opts, newGovernor(opts))
	if err := db.attachStore(); err != nil {
		return nil, err
	}
	return db, nil
}

// openTPCHPersistent is OpenTPCH's DataDir mode: load the directory when it
// already holds a database, otherwise generate the dataset once, bulk-load
// it into heap files and checkpoint. Either way the catalog's tables are
// paged — scans stream through the buffer pool, and INSERT works.
func openTPCHPersistent(scaleFactor float64, opts Options) (*DB, error) {
	db := newDB(opts, newGovernor(opts))
	if pager.HasCatalog(opts.DataDir) {
		if err := db.attachStore(); err != nil {
			return nil, err
		}
		return db, nil
	}
	gen, err := tpch.Generate(tpch.Config{ScaleFactor: scaleFactor, Seed: opts.Seed})
	if err != nil {
		return nil, err
	}
	if err := db.attachStore(); err != nil {
		return nil, err
	}
	for _, t := range gen.Tables() {
		if _, err := db.store.CreateTable(t.Name(), t.Schema()); err != nil {
			db.Close()
			return nil, err
		}
		if err := db.store.BulkLoad(t.Name(), t.Rows()); err != nil {
			db.Close()
			return nil, err
		}
	}
	if err := db.store.Checkpoint(); err != nil {
		db.Close()
		return nil, err
	}
	// Rebuild the catalog so the freshly loaded tables are visible.
	db.cat = storage.NewCatalog()
	for _, t := range db.store.Tables() {
		db.cat.MustAdd(t)
	}
	return db, nil
}

// attachStore opens the pager store and mirrors its tables into the
// database catalog. Paged tables carry no secondary indexes — the planner
// falls back to hash joins — because the btrees would have to be maintained
// under concurrent INSERTs; an LSM-style index tier is future work.
func (db *DB) attachStore() error {
	if db.mem != nil {
		db.poolMem = exec.NewMemTracker("pager-pool", 0, db.mem)
	}
	store, err := pager.Open(db.opts.DataDir, pager.Options{
		PoolBytes: db.opts.PoolBytes,
		Mem:       db.poolMem,
	})
	if err != nil {
		return err
	}
	db.store = store
	db.cat = storage.NewCatalog()
	for _, t := range store.Tables() {
		db.cat.MustAdd(t)
	}
	return nil
}

// Close checkpoints and releases the persistent storage tier, draining the
// buffer pool's memory charge; afterwards TrackedBytes reports only
// executing queries (0 when idle). Close is idempotent, safe on a nil DB
// and on purely in-memory databases (where it does nothing).
func (db *DB) Close() error {
	if db == nil {
		return nil
	}
	var err error
	db.closed.Do(func() {
		db.reuseCache.Close()
		if db.store != nil {
			err = db.store.Close()
		}
	})
	return err
}

// PagerStats is a snapshot of the buffer pool's traffic counters; zero for
// in-memory databases.
type PagerStats = pager.PoolStats

// PagerStats reports the persistent tier's buffer-pool counters.
func (db *DB) PagerStats() PagerStats {
	if db.store == nil {
		return PagerStats{}
	}
	return db.store.PoolStats()
}

// execInsert is the write path: parse, type-check against the catalog,
// append through the store's WAL (fsync-on-commit), and return a one-row
// cursor carrying the inserted count. Writes bypass plan refinement and
// admission control — they touch no operator pipeline at all.
func (db *DB) execInsert(ctx context.Context, shape *sql.Shape) (*Rows, error) {
	metricQueries().Inc()
	fail := func(err error) (*Rows, error) {
		classifyError(err)
		metricErrors().Inc()
		return nil, err
	}
	stmt, err := shape.ParseInsert()
	if err != nil {
		return fail(err)
	}
	name, rows, err := sql.AnalyzeInsert(db.cat, stmt)
	if err != nil {
		return fail(err)
	}
	t, err := db.cat.Table(name)
	if err != nil {
		return fail(err)
	}
	if db.store == nil || !t.Paged() {
		return fail(fmt.Errorf("bufferdb: INSERT INTO %s: %w (open with Options.DataDir for writable tables)", name, ErrReadOnly))
	}
	if err := ctx.Err(); err != nil {
		return fail(err)
	}
	if err := db.store.Insert(name, rows); err != nil {
		return fail(err)
	}
	// The write landed: advance the table's epoch, which makes every read
	// set over the table stale (in-flight publishes that read it are
	// refused), and drop the cached intermediates that read it. Entries over
	// untouched tables survive; Sweep is nil-safe when the reuse cache is off.
	db.epochs.Bump(name)
	db.reuseCache.Sweep()

	sch := storage.Schema{{Name: "inserted", Type: storage.TypeInt64}}
	op := exec.NewValues(sch, []storage.Row{{storage.NewInt(int64(len(rows)))}})
	ectx := &exec.Context{Catalog: db.cat, Ctx: ctx}
	if err := exec.CallOpen(ectx, op); err != nil {
		return fail(err)
	}
	return &Rows{
		ectx:    ectx,
		op:      op,
		cols:    []string{"inserted"},
		schema:  sch,
		db:      db,
		started: time.Now(),
	}, nil
}
