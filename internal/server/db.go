package server

import (
	"context"
	"errors"
	"fmt"
	"time"

	"bufferdb"
	"bufferdb/internal/reuse"
	sqlfe "bufferdb/internal/sql"
	"bufferdb/internal/wire"
)

// dbBackend is the Backend over a resident database (plus the replica
// slices this node hosts). The result cache and the fault hook live here
// and not in the session loop because both lean on things only a local
// database has: read sets to judge staleness by, a MemoryLimit to charge,
// an operator tree to inject faults into.
type dbBackend struct {
	db     *bufferdb.DB
	slices map[int]*bufferdb.DB
	// results is the opt-in result cache for repeated read-only
	// statements: a recycler of encoded streams keyed by the slice and the
	// bound shape (wire.QueryOpts.CacheKey of sql.Shape.Identity), so texts
	// differing only in spacing, comments, keyword case or output aliases
	// share an entry. nil when Config.ResultCacheBytes is 0.
	results   *reuse.Cache
	faultHook func(sql string) *bufferdb.FaultInjector
}

func newDBBackend(cfg Config) (*dbBackend, error) {
	if cfg.DB == nil {
		return nil, errors.New("server: Config.DB (or Config.Backend) is required")
	}
	b := &dbBackend{db: cfg.DB, slices: cfg.Slices, faultHook: cfg.FaultHook}
	if cfg.ResultCacheBytes > 0 {
		// No epoch table of its own: each entry's read set names the
		// database, default or slice, it was read from.
		b.results = reuse.NewNamed("bufferdbd_result_cache_", cfg.ResultCacheBytes, nil, cfg.DB.ReserveMemory)
	}
	return b, nil
}

// close returns the cache reservations so an idle post-shutdown process
// charges nothing against the memory limit.
func (b *dbBackend) close() {
	b.results.Close()
}

// dbFor routes a request to its slice database: 0 is the default DB,
// k > 0 addresses slice k-1 from Config.Slices.
func (b *dbBackend) dbFor(slice int32) (*bufferdb.DB, error) {
	if slice == 0 {
		return b.db, nil
	}
	idx := int(slice - 1)
	if db, ok := b.slices[idx]; ok {
		return db, nil
	}
	return nil, fmt.Errorf("server: this node does not host slice %d", idx)
}

// QueryStream serves a Query frame from its text's one shape: from the
// result cache when it is enabled and the statement qualifies (the
// returned cursor is then a *cachedResult, which the session replays), else
// by planning and executing — under a fillCursor when the cache admits the
// key (its second miss), so a one-off statement copies no frames.
func (b *dbBackend) QueryStream(ctx context.Context, sql string, o wire.QueryOpts) (Cursor, error) {
	var fi *bufferdb.FaultInjector
	if b.faultHook != nil {
		fi = b.faultHook(sql)
	}
	db, err := b.dbFor(o.Slice)
	if err != nil {
		return nil, err
	}
	shape, err := sqlfe.Lex(sql)
	if err != nil {
		return nil, err
	}

	// A write must execute every time: replaying a cached INSERT would
	// skip the insert.
	isWrite := shape.IsInsert()
	cacheable := b.results != nil && !o.NoResultCache && fi == nil && !isWrite
	var key string
	if cacheable {
		key = o.CacheKey(shape.Identity())
		if res, release, ok := b.results.Lookup(key); ok {
			// The frames are immutable: the replay needs no pin.
			release()
			hit := res.(*cachedResult)
			if names := shape.Names(hit.cols); names != nil {
				// A bound alias spelled anew: this text's header, same frames.
				hit = &cachedResult{cols: names, batches: hit.batches, rows: hit.rows}
			}
			return hit, nil
		}
		cacheable = b.results.Admit(key)
	}

	qopts, err := queryOptions(o, fi)
	if err != nil {
		return nil, err
	}
	rows, err := db.QueryShape(ctx, shape, qopts...)
	if err != nil {
		return nil, err
	}
	if isWrite {
		// The insert committed inside QueryStream and bumped its table's
		// write epoch: the results that read the table are stale now.
		b.results.Sweep()
	}
	if !cacheable {
		return rows, nil
	}
	// The read set's epochs were taken when execution started: if a write
	// to one of its tables commits while this query streams, Publish
	// refuses the result.
	return &fillCursor{Rows: rows, cache: b.results, key: key, res: &cachedResult{}}, nil
}

// fillCursor is a cacheable execution: the rows cursor plus the entry the
// session records the encoded stream into.
type fillCursor struct {
	*bufferdb.Rows
	cache *reuse.Cache
	key   string
	res   *cachedResult // nil once the stream outgrew the per-entry cap
	size  int64         // encoded bytes recorded so far
}

func (c *fillCursor) recordBatch(payload []byte, rows uint32) {
	if c.res == nil {
		return
	}
	if c.size += int64(len(payload)); !c.cache.Fits(c.size + int64(len(c.key))) {
		c.res = nil // too big to cache; stop collecting
		return
	}
	c.res.batches = append(c.res.batches, append([]byte(nil), payload...))
	c.res.rows += uint64(rows)
}

func (c *fillCursor) recordDone() {
	if c.res != nil {
		c.res.cols = append([]string(nil), c.Columns()...)
		c.cache.Publish(c.key, c.ReadSet(), c.res, c.size)
	}
}

// Tables lists one hosted catalog with its row counts.
func (b *dbBackend) Tables(_ context.Context, slice int32) ([]wire.TableInfo, error) {
	db, err := b.dbFor(slice)
	if err != nil {
		return nil, err
	}
	names := db.Tables()
	infos := make([]wire.TableInfo, len(names))
	for i, n := range names {
		rows, err := db.RowCount(n)
		if err != nil {
			rows = 0
		}
		infos[i] = wire.TableInfo{Name: n, Rows: uint64(rows)}
	}
	return infos, nil
}

// queryOptions translates wire options into the facade's served options.
func queryOptions(o wire.QueryOpts, fi *bufferdb.FaultInjector) ([]bufferdb.QueryOption, error) {
	var opts []bufferdb.QueryOption
	if o.TimeoutMS < 0 {
		return nil, fmt.Errorf("server: negative timeout %dms", o.TimeoutMS)
	}
	if o.TimeoutMS > 0 {
		opts = append(opts, bufferdb.WithTimeout(time.Duration(o.TimeoutMS)*time.Millisecond))
	}
	if o.MemoryBudget < 0 {
		return nil, fmt.Errorf("server: negative memory budget %d", o.MemoryBudget)
	}
	if o.MemoryBudget > 0 {
		opts = append(opts, bufferdb.WithMemoryBudget(o.MemoryBudget))
	}
	if fi != nil {
		opts = append(opts, bufferdb.WithFaultInjector(fi))
	}
	return opts, nil
}
