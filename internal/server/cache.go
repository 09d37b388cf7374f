package server

import (
	"container/list"
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
	// db is the database the query ran on and reads its read set
	// (Rows.ReadSet): every base table the plan read, with the table's
	// write epoch as of the start of execution.
	db    *bufferdb.DB
	reads []tableEpoch
}

type tableEpoch struct {
	table string
	epoch uint64
}

// readSet copies a cursor's read set into an entry. A slice, not the map:
// a cache of one-row results holds tens of thousands of entries, and a map
// of one or two tables takes several times a slice's bytes.
func readSet(epochs map[string]uint64) []tableEpoch {
	reads := make([]tableEpoch, 0, len(epochs))
	for t, e := range epochs {
		reads = append(reads, tableEpoch{t, e})
	}
	return reads
}

// A cache hit crosses the Backend seam as the entry itself. The session
// recognizes it and replays the stored frames, so as a Cursor it is an
// already-drained stream: nothing to pull, nothing to release.
func (r *cachedResult) Columns() []string   { return r.cols }
func (r *cachedResult) Next() bool          { return false }
func (r *cachedResult) Values() storage.Row { return nil }
func (r *cachedResult) Err() error          { return nil }
func (r *cachedResult) Close() error        { return nil }

// stale is the cache's one staleness rule: a write has committed to a table
// the result read since its execution started. It holds whichever path the
// write took — through a session or straight into the database.
func (r *cachedResult) stale() bool {
	for _, read := range r.reads {
		if r.db.TableEpoch(read.table) != read.epoch {
			return true
		}
	}
	return false
}

// resultCache is the opt-in bounded reuse cache for repeated identical
// read-only queries. It stores encoded batches keyed by the exact text and
// slice (wire.QueryOpts.CacheKey) — not by statement shape, as the
// database's plan cache is (DESIGN.md §21), since texts of one shape answer
// differently — bounded both per entry and in total, with every byte
// charged against the database's MemoryLimit.
type resultCache struct {
	db       *bufferdb.DB
	budget   int64 // total encoded bytes; <= 0 disables
	maxEntry int64 // largest single result worth caching

	mu      sync.Mutex
	entries map[string]*list.Element // of *resultKeyed
	order   *list.List
	total   int64
}

type resultKeyed struct {
	key string
	res *cachedResult
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

// get returns the current entry for key, bumping its recency. A stale
// entry is dropped and reported as a miss.
func (c *resultCache) get(key string) (*cachedResult, bool) {
	if !c.enabled() {
		return nil, false
	}
	c.mu.Lock()
	var res, dropped *cachedResult
	if el, ok := c.entries[key]; ok {
		if res = el.Value.(*resultKeyed).res; res.stale() {
			res, dropped = nil, c.removeLocked(el)
		} else {
			c.order.MoveToFront(el)
		}
	}
	c.mu.Unlock()
	if dropped != nil {
		dropped.release()
		metricCache("result", "invalidations").Inc()
	}
	if res == nil {
		metricCache("result", "misses").Inc()
		return nil, false
	}
	metricCache("result", "hits").Inc()
	return res, true
}

// put inserts a freshly-streamed result, evicting least-recently-used
// entries until the budget holds. Results over the per-entry cap, that the
// memory limit refuses, without a read set, or already stale (a write
// committed while the query ran) are dropped silently.
func (c *resultCache) put(key string, res *cachedResult) {
	if !c.enabled() || res.size > c.maxEntry || len(res.reads) == 0 {
		return
	}
	release, err := c.db.ReserveMemory("result-cache", res.size)
	if err != nil {
		return
	}
	res.release = release

	c.mu.Lock()
	if _, ok := c.entries[key]; ok || res.stale() {
		// A concurrent execution already cached this key, or the result
		// may predate a write.
		c.mu.Unlock()
		release()
		return
	}
	c.entries[key] = c.order.PushFront(&resultKeyed{key: key, res: res})
	c.total += res.size
	var evicted []*cachedResult
	for c.total > c.budget && c.order.Len() > 1 {
		evicted = append(evicted, c.removeLocked(c.order.Back()))
	}
	c.mu.Unlock()
	for _, r := range evicted {
		r.release()
		metricCache("result", "evictions").Inc()
	}
}

// sweep drops every stale entry. The backend calls it after executing a
// write, so the write's dependents give their bytes back at once instead
// of at their next get.
func (c *resultCache) sweep() {
	if !c.enabled() {
		return
	}
	c.mu.Lock()
	var dropped []*cachedResult
	for el := c.order.Front(); el != nil; {
		next := el.Next()
		if el.Value.(*resultKeyed).res.stale() {
			dropped = append(dropped, c.removeLocked(el))
		}
		el = next
	}
	c.mu.Unlock()
	for _, r := range dropped {
		r.release()
		metricCache("result", "invalidations").Inc()
	}
}

// removeLocked unlinks one entry; the caller releases its reservation once
// c.mu is dropped.
func (c *resultCache) removeLocked(el *list.Element) *cachedResult {
	e := c.order.Remove(el).(*resultKeyed)
	delete(c.entries, e.key)
	c.total -= e.res.size
	return e.res
}

// close releases every reservation; the cache is unusable afterwards.
func (c *resultCache) close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.order.Front(); el != nil; el = el.Next() {
		el.Value.(*resultKeyed).res.release()
	}
	c.entries = map[string]*list.Element{}
	c.order.Init()
	c.total = 0
}
