// Package reuse is the recycler: a byte-budgeted LRU cache of finished
// results, charged against the database memory limit. The database keeps
// one instance for completed operator state — hash-join build sides and
// hash-aggregate output tables — keyed by a normalized subplan fingerprint,
// so alpha-equivalent subtrees across different queries (and different
// execution engines) share one build; the server keeps a second for encoded
// result streams, keyed by bound statement shape. Entries are pinned while a query
// probes them, so eviction never un-accounts memory mid-use.
//
// Staleness has one rule. Every entry carries the ReadSet it was computed
// from — each base table it read with that table's write epoch (Epochs) —
// and is stale once any of those epochs has moved. Lookup drops a stale
// entry and misses, Publish refuses a result whose read set went stale
// while it was computed, and Sweep, run after each committed write, gives
// the write's dependents' bytes back at once.
//
// Admission has one rule too: a key is worth publishing on its second miss
// (Admit). A first sighting is recorded in a fixed-size doorkeeper and
// nothing is published for it, so one-off texts and subplans never fill
// the cache.
package reuse

import "sync"

// Epochs tracks one monotonically increasing write epoch per table. The
// zero epoch is "never written". A DB owns exactly one Epochs instance,
// which every read set it hands out refers to.
type Epochs struct {
	mu sync.Mutex
	m  map[string]uint64
}

// NewEpochs returns an empty epoch table.
func NewEpochs() *Epochs {
	return &Epochs{m: make(map[string]uint64)}
}

// Of returns the current write epoch of a table (0 if never written).
func (e *Epochs) Of(table string) uint64 {
	if e == nil {
		return 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.m[table]
}

// Bump advances a table's write epoch; called after a write commits.
func (e *Epochs) Bump(table string) {
	e.mu.Lock()
	e.m[table]++
	e.mu.Unlock()
}

// ReadSet captures the current epochs of the given tables. Callers take it
// before executing the statement whose result they may cache: a result
// computed before a concurrent write then carries a read set that is
// already stale, and is never published as if it were current.
func (e *Epochs) ReadSet(tables []string) ReadSet {
	reads := make([]tableEpoch, len(tables))
	for i, t := range tables {
		reads[i] = tableEpoch{t, e.Of(t)}
	}
	return ReadSet{e, reads}
}

// ReadSet is what a result read: each base table with its write epoch at
// the time of the read, and the Epochs they were read from. The zero
// ReadSet reads nothing, and a cache refuses a result that carries it.
type ReadSet struct {
	epochs *Epochs
	reads  []tableEpoch
}

// tableEpoch is one read. A slice of them, not a map: a result cache of
// one-row results holds tens of thousands of read sets, and a map of one
// or two tables takes several times a slice's bytes.
type tableEpoch struct {
	table string
	epoch uint64
}

// Stale reports whether a write has committed to a table of the set since
// it was read. It is the recycler's one staleness rule, and it holds
// whichever path the write took.
func (r ReadSet) Stale() bool {
	for _, rd := range r.reads {
		if r.epochs.Of(rd.table) != rd.epoch {
			return true
		}
	}
	return false
}
