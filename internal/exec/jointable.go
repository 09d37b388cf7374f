package exec

import (
	"errors"
	"fmt"

	"bufferdb/internal/expr"
	"bufferdb/internal/faultinject"
	"bufferdb/internal/storage"
)

// hashEntryOverhead approximates the per-row bookkeeping of the Go map
// bucket and row-slice header a hash join or aggregate retains alongside
// the tuple bytes it charges to the memory tracker.
const hashEntryOverhead = 48

// joinBuckets sizes the simulated bucket array: 16-byte slots in a fixed,
// generous region.
const joinBuckets = 1 << 16

// JoinKey evaluates a join key expression, enforcing the engine's rule that
// equi-join keys are BIGINT-typed (all TPC-H keys are). ok is false for a
// NULL key, which joins nothing.
func JoinKey(e expr.Expr, row storage.Row) (key int64, ok bool, err error) {
	v, err := e.Eval(row)
	if err != nil {
		return 0, false, err
	}
	if v.IsNull() {
		return 0, false, nil
	}
	if v.Kind != storage.TypeInt64 {
		return 0, false, fmt.Errorf("exec: join key must be BIGINT, got %v", v.Kind)
	}
	return v.I, true, nil
}

// ErrJoinTableReadOnly is what Insert returns on a table that was adopted
// from, or published to, the reuse cache.
var ErrJoinTableReadOnly = errors.New("exec: insert into a read-only join table")

// joinRows is the key→rows layout of a build side. Once readOnly it is
// shared — by the cache, the operator that published it and every operator
// that adopted it — and never written again.
type joinRows struct {
	m        map[int64][]storage.Row
	n        int
	readOnly bool
}

// JoinTable is the build side of a hash join: the one body behind
// exec.HashJoin, vec.HashJoin and the push engine's build sink and probe
// stage, and the value SharedBuild carries and the reuse cache stores. The
// operators are drivers: they pull or are pushed rows, evaluate the key
// (JoinKey), account their module invocation their own way (per row, per
// batch, per flush), poll cancellation at their loop's granularity, and
// call Insert and Probe. Everything else is here: the layout, the per-row
// memory charge and its release, the simulated bucket region and its
// traffic, the "<join>:build" and "<join>:publish" fault sites, adoption
// on a cache hit and publication on a miss.
//
// A JoinTable is a handle. The layout it points to may be shared (see
// joinRows); the rest of the struct is the state of the one operator that
// holds the handle, which is why an adopter probes a cached layout through
// a JoinTable of its own. The handle the cache stores has a layout and
// nothing else.
//
// The layout is still a Go map: the open-addressed table of ROADMAP item 3
// is a change to this file only.
type JoinTable struct {
	*joinRows

	shared       *SharedBuild
	buildFault   *faultinject.Point
	publishFault *faultinject.Point
	arena        *Arena // tuple copies in hash-table memory
	region       uint64 // simulated bucket array
	adopted      bool
	memUsed      int64
}

// SetShared wires the table to the semantic reuse cache; see SharedBuild.
// Must be set before Open.
func (t *JoinTable) SetShared(sb *SharedBuild) { t.shared = sb }

// Open readies the table for one execution of join. The Named argument
// only labels the ":build" and ":publish" fault sites: Volcano and vec pass
// the join, push passes its build sink, which is intended — push runs with
// no injector. On a cache hit (SharedBuild.Table set) it adopts the
// published layout — read-only, its bytes under the cache's reservation,
// nothing charged here — and Adopted reports so: the driver must not drain
// its build input. A re-Open without Close releases the stale charges first.
//
// The simulated bucket region is placed on the first Open under a CPU and
// kept across re-Opens, like vec's batch vectors and the aggregate's
// accumulator region (AggState.Open): an operator owns one table's worth
// of address space however often it runs.
func (t *JoinTable) Open(ctx *Context, join Named) {
	t.buildFault = ctx.FaultPoint(join, ":build")
	t.publishFault = ctx.FaultPoint(join, ":publish")
	ctx.ShrinkMem(t.memUsed)
	t.memUsed = 0
	if ctx.CPU != nil && t.region == 0 {
		t.region = ctx.CPU.AllocData(joinBuckets * 16)
	}
	if t.adopted = t.shared != nil && t.shared.Table != nil; t.adopted {
		t.joinRows = t.shared.Table.joinRows
		return
	}
	t.joinRows = &joinRows{m: make(map[int64][]storage.Row)}
	t.arena = NewArena(ctx.CPU)
}

// Adopted reports whether the last Open adopted a published layout.
func (t *JoinTable) Adopted() bool { return t.adopted }

// BuildFault fires the "<join>:build" site; exec.HashJoin calls it once
// per turn of its build loop, after its cancellation poll.
func (t *JoinTable) BuildFault() error { return t.buildFault.Fire() }

// bucketAddr maps a key to its simulated bucket address — a random-access
// pattern the prefetcher cannot cover, as with a real hash table.
func (t *JoinTable) bucketAddr(key int64) uint64 {
	if t.region == 0 {
		return 0
	}
	x := uint64(key) * 0x9e3779b97f4a7c15
	x ^= x >> 32
	return t.region + (x%joinBuckets)*16
}

// Insert adds one build row under key: it charges the row to the query,
// stores it, and models the tuple copy into hash-table memory and the
// bucket link. A read-only table refuses.
func (t *JoinTable) Insert(ctx *Context, key int64, row storage.Row) error {
	if t.readOnly {
		return ErrJoinTableReadOnly
	}
	size := row.ByteSize()
	charge := int64(size) + hashEntryOverhead
	if err := ctx.GrowMem(charge); err != nil {
		return err
	}
	t.memUsed += charge
	t.m[key] = append(t.m[key], row)
	t.n++
	ctx.Write(t.arena.Alloc(size), size)
	ctx.Write(t.bucketAddr(key), 16)
	return nil
}

// Finish ends a complete, successful build drain. On a cache miss it hands
// the layout to the cache with the bytes charged for it; the publish fault
// fires first, so a poisoned build can
// never be inserted and later served. From here on the layout is shared
// and read-only. Never call it after a canceled or failed drain.
func (t *JoinTable) Finish() error {
	if t.shared == nil || t.shared.Publish == nil || t.readOnly {
		return nil
	}
	if err := t.publishFault.Fire(); err != nil {
		return err
	}
	t.readOnly = true
	t.shared.Publish(&JoinTable{joinRows: t.joinRows}, t.memUsed)
	return nil
}

// Probe returns the build rows under key, in insertion order, modeling the
// bucket read.
func (t *JoinTable) Probe(ctx *Context, key int64) []storage.Row {
	ctx.Read(t.bucketAddr(key), 16)
	return t.m[key]
}

// Advance models following the bucket chain to the next match.
func (t *JoinTable) Advance(ctx *Context) { ctx.Read(t.bucketAddr(0), 16) }

// Len returns the number of build rows.
func (t *JoinTable) Len() int { return t.n }

// Close drops the layout and returns what this operator charged for it.
func (t *JoinTable) Close(ctx *Context) {
	t.joinRows = nil
	ctx.ShrinkMem(t.memUsed)
	t.memUsed = 0
}
