// Package reuse is the semantic reuse cache: a process-wide store of
// completed operator state — hash-join build sides and hash-aggregate
// output tables — keyed by a normalized subplan fingerprint so
// alpha-equivalent subtrees across different queries (and different
// execution engines) share one build. Entries are charged against the
// database memory limit through a reservation hook, pinned while a query
// probes them so eviction never un-accounts memory mid-use, and evicted by
// a GDSF-style benefit score: measured build cost × hit rate / bytes, the
// same vocabulary the pager's eviction policy speaks.
//
// Freshness rides on per-table write epochs (Epochs): a fingerprint embeds
// the epoch of every table its subtree reads, so an INSERT into a
// referenced table makes dependent keys unreachable — and Invalidate
// eagerly drops them to return their bytes. The server's result cache
// shares the same epochs, giving both caches exactly-per-table
// invalidation.
package reuse

import "sync"

// Epochs tracks one monotonically increasing write epoch per table. The
// zero epoch is "never written". A DB owns exactly one Epochs instance,
// shared by its reuse cache and the server result cache.
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

// Snapshot captures the current epochs of the given tables. Callers take a
// snapshot when a query is fingerprinted and hand it back to
// Cache.Publish, which refuses the entry if any epoch moved while the
// query executed — a result computed before a concurrent write must not be
// published as if it were current.
func (e *Epochs) Snapshot(tables []string) map[string]uint64 {
	snap := make(map[string]uint64, len(tables))
	if e == nil {
		for _, t := range tables {
			snap[t] = 0
		}
		return snap
	}
	e.mu.Lock()
	for _, t := range tables {
		snap[t] = e.m[t]
	}
	e.mu.Unlock()
	return snap
}
