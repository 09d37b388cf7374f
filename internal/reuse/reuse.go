package reuse

import (
	"container/heap"
	"sync"
	"time"

	"bufferdb/internal/obsv"
	"bufferdb/internal/storage"
)

// AggTable is a published hash-aggregate result: the operator's finished,
// sorted output rows. Rows are read-only once published; consumers that
// reorder or project build new rows.
type AggTable struct {
	Rows []storage.Row
}

// Stats is a point-in-time snapshot of the cache's counters.
type Stats struct {
	Hits          uint64
	Misses        uint64
	Evictions     uint64
	Invalidations uint64
	Entries       int
	Bytes         int64
	MaxBytes      int64
}

// entry is one cached intermediate: a hash-join build side, stored as the
// *exec.JoinTable every engine's hash join builds and probes (one type is
// what makes cross-engine reuse possible; read-only once published), or an
// *AggTable.
type entry struct {
	key     string
	tables  []string
	payload any
	bytes   int64
	cost    time.Duration // measured build cost, the GDSF benefit numerator
	hits    uint64
	score   float64 // GDSF priority at last touch
	pins    int     // queries currently probing this entry
	dead    bool    // evicted/invalidated while pinned; release deferred
	release func()  // returns the memory reservation (idempotent)
	index   int     // position in Cache.byScore
}

// scoreHeap is the cache's entries as a min-heap on score, each entry
// knowing its position: the next eviction victim is the root, and a
// rescored or invalidated entry is fixed or removed in O(log n).
type scoreHeap []*entry

func (h scoreHeap) Len() int           { return len(h) }
func (h scoreHeap) Less(i, j int) bool { return h[i].score < h[j].score }
func (h scoreHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index, h[j].index = i, j
}
func (h *scoreHeap) Push(x any) {
	e := x.(*entry)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *scoreHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	old[len(old)-1] = nil
	*h = old[:len(old)-1]
	return e
}

// gdsfScore is the entry's eviction priority: cheap-to-rebuild, rarely-hit
// or huge entries score low. clockBase implements the classic GDSF aging
// clock — it rises to the score of each evicted entry, so long-idle
// entries eventually lose to fresh ones regardless of historical benefit.
func gdsfScore(clockBase float64, cost time.Duration, hits uint64, bytes int64) float64 {
	if bytes <= 0 {
		bytes = 1
	}
	return clockBase + float64(cost)*float64(hits+1)/float64(bytes)
}

// Cache is the semantic reuse cache. All methods are safe for concurrent
// use. Entries hold memory reservations obtained through the reserve hook
// (DB.ReserveMemory in production) so cached intermediates compete with
// executing queries under the database's memory limit.
type Cache struct {
	maxBytes int64
	epochs   *Epochs
	reserve  func(name string, n int64) (func(), error)

	mu      sync.Mutex
	entries map[string]*entry
	byScore scoreHeap // the same entries, lowest score first
	total   int64
	clock   float64
	stats   Stats
}

// New builds a cache bounded to maxBytes of published payload. epochs is
// the owning database's per-table epoch table; reserve charges entry bytes
// against the memory limit (nil accepts everything untracked).
func New(maxBytes int64, epochs *Epochs, reserve func(name string, n int64) (func(), error)) *Cache {
	if reserve == nil {
		reserve = func(string, int64) (func(), error) { return func() {}, nil }
	}
	return &Cache{
		maxBytes: maxBytes,
		epochs:   epochs,
		reserve:  reserve,
		entries:  make(map[string]*entry),
	}
}

// Epochs returns the epoch table fingerprints read from.
func (c *Cache) Epochs() *Epochs {
	if c == nil {
		return nil
	}
	return c.epochs
}

// Lookup returns the payload cached under key, pinning the entry: its
// memory reservation cannot be released until the returned release func
// runs, even if the entry is evicted or invalidated meanwhile — so a query
// probing an adopted build is never probing un-accounted memory. release
// is idempotent. A miss returns ok=false (and counts it).
func (c *Cache) Lookup(key string) (payload any, release func(), ok bool) {
	if c == nil {
		return nil, nil, false
	}
	c.mu.Lock()
	e, ok := c.entries[key]
	if !ok {
		c.stats.Misses++
		c.mu.Unlock()
		metricReuse("misses").Inc()
		return nil, nil, false
	}
	e.hits++
	e.pins++
	e.score = gdsfScore(c.clock, e.cost, e.hits, e.bytes)
	heap.Fix(&c.byScore, e.index)
	c.stats.Hits++
	c.mu.Unlock()
	metricReuse("hits").Inc()

	var once sync.Once
	return e.payload, func() {
		once.Do(func() { c.unpin(e) })
	}, true
}

// unpin drops one pin; the last unpin of a dead entry runs its deferred
// reservation release.
func (c *Cache) unpin(e *entry) {
	c.mu.Lock()
	e.pins--
	fire := e.dead && e.pins == 0
	c.mu.Unlock()
	if fire {
		e.release()
	}
}

// Publish inserts a freshly built payload under key. snapshot is the
// per-table epoch snapshot taken when the query was fingerprinted; if any
// of those tables has been written since, the payload may predate the
// write and is refused. Entries are refused (silently, reported by the
// return) when the key is already present, the payload alone exceeds the
// cache bound, or the memory reservation is rejected. Lower-scored entries
// are evicted until the new one fits.
func (c *Cache) Publish(key string, tables []string, snapshot map[string]uint64, payload any, bytes int64, cost time.Duration) bool {
	if c == nil {
		return false
	}
	release, err := c.reserve("reuse-cache", bytes)
	if err != nil {
		return false
	}
	c.mu.Lock()
	if bytes > c.maxBytes {
		c.mu.Unlock()
		release()
		return false
	}
	for t, ep := range snapshot {
		if c.epochs.Of(t) != ep {
			c.mu.Unlock()
			release()
			return false
		}
	}
	if _, dup := c.entries[key]; dup {
		c.mu.Unlock()
		release()
		return false
	}
	evicted := c.evictLocked(c.maxBytes - bytes)
	e := &entry{
		key: key, tables: append([]string(nil), tables...),
		payload: payload, bytes: bytes, cost: cost, release: release,
	}
	e.score = gdsfScore(c.clock, cost, 0, bytes)
	c.entries[key] = e
	heap.Push(&c.byScore, e)
	c.total += bytes
	c.settleLocked(evicted, "evictions")
	c.mu.Unlock()
	return true
}

// evictLocked removes lowest-scored unpinned-or-not entries until total <=
// budget, returning the victims for the caller to settle outside the lock.
// Pinned victims are marked dead instead of released immediately.
func (c *Cache) evictLocked(budget int64) []*entry {
	var out []*entry
	for c.total > budget && len(c.byScore) > 0 {
		victim := heap.Pop(&c.byScore).(*entry)
		// GDSF aging: the clock rises to the evicted score, so future
		// insertions and hits outrank long-idle survivors.
		if victim.score > c.clock {
			c.clock = victim.score
		}
		delete(c.entries, victim.key)
		c.total -= victim.bytes
		out = append(out, victim)
	}
	return out
}

// settleLocked finishes an eviction/invalidation batch: counts it and
// releases unpinned victims. Must be called with c.mu held; releases run
// after unlocking is the caller's concern — release funcs are cheap
// (tracker arithmetic), so running them under the lock is fine.
func (c *Cache) settleLocked(victims []*entry, event string) {
	for _, e := range victims {
		if event == "evictions" {
			c.stats.Evictions++
		} else {
			c.stats.Invalidations++
		}
		metricReuse(event).Inc()
		if e.pins > 0 {
			e.dead = true
		} else {
			e.release()
		}
	}
	metricReuseBytes().Set(float64(c.total))
}

// Invalidate drops every entry whose subtree reads table; entries over
// untouched tables survive. Pinned dependents are marked dead and released
// at last unpin. The caller bumps the table's write epoch (Epochs.Bump)
// alongside — the epoch guards publishes, this guards lookups.
func (c *Cache) Invalidate(table string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	var victims []*entry
	for _, e := range c.entries {
		for _, t := range e.tables {
			if t == table {
				victims = append(victims, e)
				break
			}
		}
	}
	for _, e := range victims {
		delete(c.entries, e.key)
		heap.Remove(&c.byScore, e.index)
		c.total -= e.bytes
	}
	c.settleLocked(victims, "invalidations")
	c.mu.Unlock()
}

// Stats snapshots the cache counters.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = len(c.entries)
	s.Bytes = c.total
	s.MaxBytes = c.maxBytes
	return s
}

// Close releases every reservation (deferring pinned ones to their unpin)
// and empties the cache; afterwards every lookup misses and every publish
// is refused by the zero budget.
func (c *Cache) Close() {
	if c == nil {
		return
	}
	c.mu.Lock()
	var victims []*entry
	for _, e := range c.entries {
		victims = append(victims, e)
	}
	c.entries = make(map[string]*entry)
	c.byScore = nil
	c.total = 0
	c.maxBytes = 0
	for _, e := range victims {
		if e.pins > 0 {
			e.dead = true
		} else {
			e.release()
		}
	}
	metricReuseBytes().Set(0)
	c.mu.Unlock()
}

// The process-wide reuse metrics, next to the engine's query counters:
//
//	bufferdb_reuse_hits_total           lookups served from the cache
//	bufferdb_reuse_misses_total         lookups that fell through
//	bufferdb_reuse_evictions_total      entries displaced by the GDSF policy
//	bufferdb_reuse_invalidations_total  entries dropped by table writes
//	bufferdb_reuse_bytes                payload bytes resident now

func metricReuse(event string) *obsv.Counter {
	return obsv.Default.Counter("bufferdb_reuse_" + event + "_total")
}

func metricReuseBytes() *obsv.Gauge {
	return obsv.Default.Gauge("bufferdb_reuse_bytes")
}
