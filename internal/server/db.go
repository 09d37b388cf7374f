package server

import (
	"context"
	"errors"
	"fmt"
	"time"

	"bufferdb"
	sqlfe "bufferdb/internal/sql"
	"bufferdb/internal/wire"
)

// dbBackend is the Backend over a resident database (plus the replica
// slices this node hosts). The result cache and the fault hook live here
// and not in the session loop because both lean on things only a local
// database has: per-table write epochs to invalidate on, a MemoryLimit to
// charge, an operator tree to inject faults into.
type dbBackend struct {
	db        *bufferdb.DB
	slices    map[int]*bufferdb.DB
	results   *resultCache
	faultHook func(sql string) *bufferdb.FaultInjector
}

func newDBBackend(cfg Config) (*dbBackend, error) {
	if cfg.DB == nil {
		return nil, errors.New("server: Config.DB (or Config.Backend) is required")
	}
	return &dbBackend{
		db:        cfg.DB,
		slices:    cfg.Slices,
		results:   newResultCache(cfg.DB, cfg.ResultCacheBytes),
		faultHook: cfg.FaultHook,
	}, nil
}

// close returns the cache reservations so an idle post-shutdown process
// charges nothing against the memory limit.
func (b *dbBackend) close() {
	b.results.close()
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

func (b *dbBackend) fault(sql string) *bufferdb.FaultInjector {
	if b.faultHook == nil {
		return nil
	}
	return b.faultHook(sql)
}

// QueryStream serves a Query frame: from the result cache when it is
// enabled and the statement qualifies (the returned cursor is then the
// *cachedResult itself, which the session replays), else by planning and
// executing — under a fillCursor when the result may be stored afterwards.
func (b *dbBackend) QueryStream(ctx context.Context, sql string, o wire.QueryOpts) (Cursor, error) {
	fi := b.fault(sql)

	// A write must execute every time (replaying a cached INSERT would skip
	// the insert) and, once committed, makes cached reads of its target
	// table stale.
	isWrite := sqlfe.IsInsert(sql)
	cacheable := b.results.enabled() && !o.NoResultCache && fi == nil && !isWrite
	db, err := b.dbFor(o.Slice)
	if err != nil {
		return nil, err
	}
	var fill *fillCursor
	if cacheable {
		key := o.CacheKey(sql)
		if res, ok := b.results.get(key); ok {
			return res, nil
		}
		// The cache-wide epoch is taken before the query starts: a result
		// whose plan reads no table falls back to it in put.
		fill = &fillCursor{cache: b.results, db: db, key: key, res: &cachedResult{}, epoch: b.results.writeEpoch()}
	}

	qopts, err := queryOptions(o, fi)
	if err != nil {
		return nil, err
	}
	rows, err := db.QueryStream(ctx, sql, qopts...)
	if err != nil {
		return nil, err
	}
	if isWrite {
		// The insert committed inside QueryStream; cached reads of its
		// target are stale. (The facade already bumped the table's write
		// epoch and invalidated the semantic reuse cache.)
		if target, ok := sqlfe.InsertTarget(sql); ok {
			b.results.invalidateTable(target)
		} else {
			b.results.invalidateAll()
		}
	}
	if fill == nil {
		return rows, nil
	}
	// Tag the result with the tables its plan reads. Their write epochs
	// were snapshotted when execution started: if an INSERT into one of
	// them commits while this query streams, put refuses the stale result
	// — results over untouched tables are unaffected.
	fill.Rows = rows
	fill.res.tables, fill.snapshot = rows.ReadSet()
	return fill, nil
}

// fillCursor is a cacheable execution: the rows cursor plus everything put
// needs to judge and store the encoded stream the session records into it.
type fillCursor struct {
	*bufferdb.Rows
	cache    *resultCache
	db       *bufferdb.DB
	key      string
	res      *cachedResult // nil once the stream outgrew the per-entry cap
	epoch    uint64
	snapshot map[string]uint64
}

func (c *fillCursor) recordBatch(payload []byte, rows uint32) {
	if c.res == nil {
		return
	}
	if c.res.size += int64(len(payload)); c.res.size > c.cache.maxEntry {
		c.res = nil // too big to cache; stop collecting
		return
	}
	c.res.batches = append(c.res.batches, append([]byte(nil), payload...))
	c.res.rows += uint64(rows)
}

func (c *fillCursor) recordDone() {
	if c.res != nil {
		c.res.cols = append([]string(nil), c.Columns()...)
		c.cache.put(c.key, c.res, c.epoch, c.snapshot, c.db)
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
