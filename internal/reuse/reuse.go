package reuse

import (
	"container/list"
	"sync"

	"bufferdb/internal/obsv"
	"bufferdb/internal/storage"
)

// AggTable is a published hash-aggregate result: the operator's finished,
// sorted output rows. Rows are read-only once published; consumers that
// reorder or project build new rows.
type AggTable struct {
	Rows []storage.Row
}

// EntryOverhead is the Go heap an entry takes beyond its payload and key:
// the entry, its list element and map slot, its read set, its memory
// reservation and, for a result-cache entry, the replay header. Measured
// as the live heap after a GC per entry of 10 000 one-row result-cache
// entries (distinct texts of one COUNT(*) over region, each served over a
// session under a memory limit), minus their payload and key bytes: 442 B
// on linux/amd64 with go1.24, rounded up.
const EntryOverhead = 448

// Stats is a point-in-time snapshot of the cache's counters. Bytes is the
// sum of the entries' charges.
type Stats struct {
	Hits          uint64
	Misses        uint64
	Evictions     uint64
	Invalidations uint64
	Deferred      uint64 // misses Admit turned away: first sightings
	Entries       int
	Bytes         int64
	MaxBytes      int64
}

// entry is one cached result: for the reuse cache, a hash-join build side
// stored as the *exec.JoinTable every engine's hash join builds and probes
// (one type is what makes cross-engine reuse possible), or an *AggTable;
// for the server's result cache, an encoded result stream. Read-only once
// published.
type entry struct {
	key     string
	reads   ReadSet
	payload any
	charge  int64
	pins    int    // lookups whose release has not run yet
	dead    bool   // dropped while pinned; release deferred to the last unpin
	release func() // returns the memory reservation
}

// free returns the entry's reservation, or defers that to the last unpin
// while a lookup still pins it.
func (e *entry) free() {
	if e.pins > 0 {
		e.dead = true
	} else {
		e.release()
	}
}

// Cache is a byte-budgeted LRU of finished results. All methods are safe
// for concurrent use, and a nil *Cache is an empty cache that refuses every
// publish. An entry is charged its payload bytes plus its key plus
// EntryOverhead, through the reserve hook (DB.ReserveMemory in production),
// so cached results compete with executing queries under the database's
// memory limit; one entry may take at most an eighth of the budget, so a
// single large result cannot wash the cache.
type Cache struct {
	name     string
	maxBytes int64
	epochs   *Epochs
	reserve  func(name string, n int64) (func(), error)

	hits, misses, evictions, invalidations, deferred *obsv.Counter
	bytes                                            *obsv.Gauge

	mu      sync.Mutex
	entries map[string]*list.Element // of *entry
	lru     *list.List               // most recently used first
	total   int64
	closed  bool
	stats   Stats
	door    doorkeeper
}

// New builds the database's reuse cache, bounded to maxBytes of charges:
// epochs is the database's per-table epoch table; reserve charges entries
// against the memory limit (nil accepts everything untracked). It reports
// through the bufferdb_reuse_* metrics.
func New(maxBytes int64, epochs *Epochs, reserve func(name string, n int64) (func(), error)) *Cache {
	return NewNamed("bufferdb_reuse_", maxBytes, epochs, reserve)
}

// NewNamed is New for a cache reporting through the metrics named prefix +
// {hits,misses,evictions,invalidations,deferred}_total and prefix + bytes.
// Caches of one prefix move the bytes gauge by their own charges: it sums.
// epochs may be nil for a cache whose read sets come from several
// databases.
func NewNamed(prefix string, maxBytes int64, epochs *Epochs, reserve func(name string, n int64) (func(), error)) *Cache {
	if reserve == nil {
		reserve = func(string, int64) (func(), error) { return func() {}, nil }
	}
	m := obsv.Default
	return &Cache{
		name: prefix, maxBytes: maxBytes, epochs: epochs, reserve: reserve,
		hits:          m.Counter(prefix + "hits_total"),
		misses:        m.Counter(prefix + "misses_total"),
		evictions:     m.Counter(prefix + "evictions_total"),
		invalidations: m.Counter(prefix + "invalidations_total"),
		deferred:      m.Counter(prefix + "deferred_total"),
		bytes:         m.Gauge(prefix + "bytes"),
		entries:       make(map[string]*list.Element),
		lru:           list.New(),
	}
}

// Epochs returns the epoch table fingerprints read from.
func (c *Cache) Epochs() *Epochs {
	if c == nil {
		return nil
	}
	return c.epochs
}

// Fits reports whether an entry of n payload and key bytes is under the
// per-entry cap, so a producer can stop collecting a result that would be
// refused.
func (c *Cache) Fits(n int64) bool {
	return c != nil && n+EntryOverhead <= c.maxBytes/8
}

// Lookup returns the payload cached under key, pinning the entry: its
// memory reservation cannot be released until the returned release func
// runs, even if the entry is evicted or goes stale meanwhile — so a query
// probing an adopted build is never probing un-accounted memory. release
// is idempotent. A miss, or a stale entry (dropped here), returns ok=false.
func (c *Cache) Lookup(key string) (payload any, release func(), ok bool) {
	if c == nil {
		return nil, nil, false
	}
	c.mu.Lock()
	el, ok := c.entries[key]
	if ok && el.Value.(*entry).reads.Stale() {
		c.dropLocked(el, true)
		ok = false
	}
	if !ok {
		c.stats.Misses++
		c.mu.Unlock()
		c.misses.Inc()
		return nil, nil, false
	}
	e := el.Value.(*entry)
	c.lru.MoveToFront(el)
	e.pins++
	c.stats.Hits++
	c.mu.Unlock()
	c.hits.Inc()

	var once sync.Once
	return e.payload, func() {
		once.Do(func() { c.unpin(e) })
	}, true
}

// Admit records a miss on key and reports whether the key missed before,
// so that a result computed for it now is worth publishing. A key's first
// miss is deferred: most keys are never seen again (a text with a unique
// literal, a subplan of a one-off query), and a producer told to defer
// skips the copy it would make for Publish. Call it after Lookup misses.
// A nil or closed cache admits nothing.
func (c *Cache) Admit(key string) bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	admit := !c.closed && c.door.seen(key)
	if !admit {
		c.stats.Deferred++
	}
	c.mu.Unlock()
	if !admit {
		c.deferred.Inc()
	}
	return admit
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

// Publish inserts a freshly computed payload of the given bytes under key.
// reads is the read set taken before the payload was computed. Publish
// refuses (silently, reported by the return) an empty or stale read set,
// an entry over the per-entry cap, a key already cached by a current
// entry, and a charge the memory limit rejects; a stale entry under the
// same key is replaced. Least recently used entries are evicted until the
// new one fits.
func (c *Cache) Publish(key string, reads ReadSet, payload any, bytes int64) bool {
	if len(reads.reads) == 0 || !c.Fits(bytes+int64(len(key))) {
		return false
	}
	charge := bytes + int64(len(key)) + EntryOverhead
	release, err := c.reserve(c.name, charge)
	if err != nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed || reads.Stale() {
		release()
		return false
	}
	if el, dup := c.entries[key]; dup {
		if !el.Value.(*entry).reads.Stale() {
			release()
			return false
		}
		c.dropLocked(el, true)
	}
	for c.total+charge > c.maxBytes {
		c.dropLocked(c.lru.Back(), false)
	}
	e := &entry{key: key, reads: reads, payload: payload, charge: charge, release: release}
	c.entries[key] = c.lru.PushFront(e)
	c.total += charge
	c.bytes.Add(float64(charge))
	return true
}

// Sweep drops every stale entry. Run after a write commits, it gives the
// write's dependents' bytes back at once instead of at their next lookup.
func (c *Cache) Sweep() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.lru.Front(); el != nil; {
		next := el.Next()
		if el.Value.(*entry).reads.Stale() {
			c.dropLocked(el, true)
		}
		el = next
	}
}

// dropLocked unlinks one entry and frees it, counting an invalidation if
// it went stale and an eviction otherwise.
func (c *Cache) dropLocked(el *list.Element, stale bool) {
	e := c.lru.Remove(el).(*entry)
	delete(c.entries, e.key)
	c.total -= e.charge
	c.bytes.Add(-float64(e.charge))
	e.free()
	if stale {
		c.stats.Invalidations++
		c.invalidations.Inc()
	} else {
		c.stats.Evictions++
		c.evictions.Inc()
	}
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
// is refused.
func (c *Cache) Close() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.lru.Front(); el != nil; el = el.Next() {
		el.Value.(*entry).free()
	}
	c.entries = make(map[string]*list.Element)
	c.lru.Init()
	c.bytes.Add(-float64(c.total))
	c.total = 0
	c.closed = true
}
