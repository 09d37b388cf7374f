package server

import (
	"container/list"
	"strings"
	"sync"

	"bufferdb"
	"bufferdb/internal/storage"
)

// cachedResult is one result cache entry: the column header plus the
// already-encoded row-batch frames, ready to replay to any client. Batches
// are immutable once stored, so an entry may be served concurrently with
// (or after) its own eviction.
type cachedResult struct {
	cols    []string
	batches [][]byte
	rows    uint64
	size    int64
	release func()
	// tables is the sorted base-table set the query's plan read
	// (Rows.ReadSet) — the invalidation tag: a committed INSERT into one of
	// them drops this entry, while entries over untouched tables survive.
	// nil means the plan read no table; the entry then conservatively
	// depends on everything.
	tables []string
}

// A cache hit crosses the Backend seam as the entry itself. The session
// recognizes it and replays the stored frames, so as a Cursor it is an
// already-drained stream: nothing to pull, nothing to release.
func (r *cachedResult) Columns() []string   { return r.cols }
func (r *cachedResult) Next() bool          { return false }
func (r *cachedResult) Values() storage.Row { return nil }
func (r *cachedResult) Err() error          { return nil }
func (r *cachedResult) Close() error        { return nil }

// dependsOn reports whether the entry must be dropped when table is written.
func (r *cachedResult) dependsOn(table string) bool {
	if r.tables == nil {
		return true
	}
	// Tags are catalog names; an INSERT's target is spelled as written,
	// and table names are case-insensitive.
	for _, t := range r.tables {
		if strings.EqualFold(t, table) {
			return true
		}
	}
	return false
}

// resultCache is the opt-in bounded reuse cache for repeated identical
// read-only queries (every statement the engine accepts is read-only). It
// stores encoded batches keyed by the exact text and slice
// (wire.QueryOpts.CacheKey) — not by statement shape, as the database's
// plan cache is (DESIGN.md §21), since texts of one shape answer
// differently — bounded both per entry and in total, with every byte
// charged against the database's MemoryLimit.
type resultCache struct {
	db       *bufferdb.DB
	budget   int64 // total encoded bytes; <= 0 disables
	maxEntry int64 // largest single result worth caching

	mu      sync.Mutex
	entries map[string]*list.Element
	order   *list.List
	total   int64
	// epoch counts invalidations (whole-cache and per-table alike). A query
	// whose plan reads no table snapshots it before executing and put drops
	// results from an older epoch: a SELECT that started before a write
	// committed but finished after the invalidation must not park its
	// pre-write result in the cache. Queries that read tables are validated
	// more precisely, against the database's per-table write epochs — the
	// same epochs the semantic reuse cache keys on.
	epoch uint64
}

// newResultCache builds a cache of budget encoded bytes; one result may
// take at most an eighth of it, so a single large answer cannot wash the
// cache.
func newResultCache(db *bufferdb.DB, budget int64) *resultCache {
	return &resultCache{
		db: db, budget: budget, maxEntry: budget / 8,
		entries: map[string]*list.Element{}, order: list.New(),
	}
}

func (c *resultCache) enabled() bool { return c.budget > 0 }

// get returns the entry for key, bumping its recency.
func (c *resultCache) get(key string) (*cachedResult, bool) {
	if !c.enabled() {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		metricCache("result", "misses").Inc()
		return nil, false
	}
	c.order.MoveToFront(el)
	metricCache("result", "hits").Inc()
	return el.Value.(*resultKeyed).res, true
}

type resultKeyed struct {
	key string
	res *cachedResult
}

// writeEpoch returns the current invalidation epoch. Callers snapshot it
// before executing a query and hand it back to put.
func (c *resultCache) writeEpoch() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epoch
}

// put inserts a freshly-streamed result, evicting least-recently-used
// entries until the budget holds. Results over the per-entry cap, that the
// memory limit refuses, or whose execution started before a write that may
// affect them are dropped silently. Staleness is judged per table when the
// entry has a table set: snapshot holds the per-table write epochs (from
// Rows.ReadSet, shared with the semantic reuse cache) taken when execution
// started, and a mismatch against db's current epochs means a write to a
// referenced table committed mid-flight. Entries without one fall back to
// the cache-wide epoch (from writeEpoch).
func (c *resultCache) put(key string, res *cachedResult, epoch uint64, snapshot map[string]uint64, db *bufferdb.DB) {
	if !c.enabled() || res.size > c.maxEntry {
		return
	}
	release, err := c.db.ReserveMemory("result-cache", res.size)
	if err != nil {
		return
	}
	res.release = release

	c.mu.Lock()
	stale := false
	if res.tables == nil {
		stale = epoch != c.epoch
	} else {
		for t, e := range snapshot {
			if db.TableEpoch(t) != e {
				stale = true
				break
			}
		}
	}
	if stale {
		// A write committed while this query ran; its result may predate it.
		c.mu.Unlock()
		release()
		return
	}
	if _, ok := c.entries[key]; ok {
		// A concurrent execution already cached this key.
		c.mu.Unlock()
		release()
		return
	}
	c.entries[key] = c.order.PushFront(&resultKeyed{key: key, res: res})
	c.total += res.size
	var evicted []*cachedResult
	for c.total > c.budget && c.order.Len() > 1 {
		back := c.order.Back()
		e := back.Value.(*resultKeyed)
		c.order.Remove(back)
		delete(c.entries, e.key)
		c.total -= e.res.size
		evicted = append(evicted, e.res)
	}
	c.mu.Unlock()
	for _, r := range evicted {
		r.release()
		metricCache("result", "evictions").Inc()
	}
}

// invalidateTable drops every entry that read table (plus entries without a
// table set); entries over untouched tables survive.
func (c *resultCache) invalidateTable(table string) {
	c.invalidate(func(r *cachedResult) bool { return r.dependsOn(table) })
}

// invalidateAll drops every entry — called after a write commits whose
// target could not be determined, because any cached result may now be
// stale. Coarse, but the fallback path; targeted writes go through
// invalidateTable.
func (c *resultCache) invalidateAll() {
	c.invalidate(func(*cachedResult) bool { return true })
}

// invalidate drops the entries stale selects. The cache-wide epoch always
// advances so in-flight results without a table set are refused by put —
// results with one are judged precisely against the database's per-table
// epochs instead.
func (c *resultCache) invalidate(stale func(*cachedResult) bool) {
	if !c.enabled() {
		return
	}
	c.mu.Lock()
	c.epoch++
	var dropped []*cachedResult
	var next *list.Element
	for el := c.order.Front(); el != nil; el = next {
		next = el.Next()
		e, ok := el.Value.(*resultKeyed)
		if !ok || !stale(e.res) {
			continue
		}
		c.order.Remove(el)
		delete(c.entries, e.key)
		c.total -= e.res.size
		dropped = append(dropped, e.res)
	}
	c.mu.Unlock()
	for _, r := range dropped {
		if r.release != nil {
			r.release()
		}
		metricCache("result", "invalidations").Inc()
	}
}

// close releases every reservation; the cache is unusable afterwards.
func (c *resultCache) close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.order.Front(); el != nil; el = el.Next() {
		if e, ok := el.Value.(*resultKeyed); ok && e.res.release != nil {
			e.res.release()
		}
	}
	c.entries = map[string]*list.Element{}
	c.order.Init()
	c.total = 0
}
