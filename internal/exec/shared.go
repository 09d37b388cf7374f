package exec

import "bufferdb/internal/storage"

// SharedBuild wires one hash join's build side to the semantic reuse
// cache. The plan-layer splice (plan.ApplyReuse) attaches it to the
// HashBuild node; all three engines' join operators consult it the same
// way:
//
//   - On a cache hit, Table is the published, read-only build table and
//     the build child has been replaced with an empty source — the
//     operator's own JoinTable adopts it, the build drain is skipped
//     entirely. The entry stays pinned for the cursor's lifetime (the
//     facade releases it), so eviction never un-accounts memory mid-probe.
//   - On a miss, Publish is set: after a complete, successful build drain
//     JoinTable.Finish hands the finished table to the cache with the bytes
//     charged for it.
//
// A nil SharedBuild (the default everywhere outside the facade's reuse
// path) costs one branch at Open.
type SharedBuild struct {
	// Table is the published build side on a hit; nil on a miss.
	Table *JoinTable
	// Publish hands a finished build to the cache on a miss; nil on a hit.
	Publish func(table *JoinTable, bytes int64)
}

// SharedAgg wires one hash aggregate to the reuse cache on a miss. (On a
// hit the whole aggregate node is replaced by a CachedRows source, so the
// operator never sees the shared state.) Publish receives the operator's
// complete, sorted output rows — materialized by the same code path that
// emits them — with their estimated retained bytes.
type SharedAgg struct {
	Publish func(rows []storage.Row, bytes int64)
}
