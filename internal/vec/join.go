package vec

import (
	"fmt"
	"time"

	"bufferdb/internal/codemodel"
	"bufferdb/internal/exec"
	"bufferdb/internal/expr"
	"bufferdb/internal/faultinject"
	"bufferdb/internal/storage"
)

// hashEntryOverhead approximates the per-row bookkeeping (map bucket and
// row-slice header) a hash join or aggregate retains alongside the tuple
// bytes. Mirrors exec.hashEntryOverhead.
const hashEntryOverhead = 48

// keyEval evaluates a join key expression, enforcing the engine's rule that
// equi-join keys are BIGINT-typed (all TPC-H keys are).
func keyEval(e expr.Expr, row storage.Row) (int64, bool, error) {
	v, err := e.Eval(row)
	if err != nil {
		return 0, false, err
	}
	if v.IsNull() {
		return 0, false, nil
	}
	if v.Kind != storage.TypeInt64 {
		return 0, false, fmt.Errorf("vec: join key must be BIGINT, got %v", v.Kind)
	}
	return v.I, true, nil
}

// HashJoin is the block-oriented in-memory equi-hash-join. Open drains the
// build (inner) side batch by batch into the hash table; NextBatch probes
// the outer side, filling the output vector across outer batches. Per-tuple
// module invocations match exec.HashJoin exactly — one probe invocation per
// outer tuple plus one per emitted match — with instruction fetch amortized
// per batch.
type HashJoin struct {
	Outer    Operator // probe side
	Inner    Operator // build side
	OuterKey expr.Expr
	InnerKey expr.Expr

	buildModule  *codemodel.Module
	probeModule  *codemodel.Module
	arena        *exec.Arena
	schema       storage.Schema
	stats        *exec.OpStats
	fault        *faultinject.Point
	buildFault   *faultinject.Point
	publishFault *faultinject.Point
	shared       *exec.SharedBuild

	table        map[int64][]storage.Row
	memUsed      int64
	bucketRegion uint64
	bucketCount  uint64

	out  batchBuf
	bits []uint64
	size int

	outerBatch Batch
	outerPos   int
	outerRow   storage.Row
	matches    []storage.Row
	matchPos   int
	outerDone  bool
	opened     bool
}

// NewHashJoin constructs the join; modules may be nil, size 0 selects
// DefaultBatchSize.
func NewHashJoin(outer, inner Operator, outerKey, innerKey expr.Expr, buildModule, probeModule *codemodel.Module, size int) *HashJoin {
	return &HashJoin{
		Outer:       outer,
		Inner:       inner,
		OuterKey:    outerKey,
		InnerKey:    innerKey,
		buildModule: buildModule,
		probeModule: probeModule,
		size:        size,
		schema:      outer.Schema().Concat(inner.Schema()),
	}
}

// SetShared wires the build side to the semantic reuse cache; see
// exec.SharedBuild. Must be set before Open.
func (j *HashJoin) SetShared(sb *exec.SharedBuild) { j.shared = sb }

// bucketAddr maps a key to its simulated bucket address — a random-access
// pattern the prefetcher cannot cover, as with a real hash table.
func (j *HashJoin) bucketAddr(key int64) uint64 {
	if j.bucketRegion == 0 {
		return 0
	}
	x := uint64(key) * 0x9e3779b97f4a7c15
	x ^= x >> 32
	return j.bucketRegion + (x%j.bucketCount)*16
}

// Open implements Operator: it runs the build phase.
func (j *HashJoin) Open(ctx *exec.Context) error {
	j.stats = ctx.StatsFor(j)
	if j.stats != nil {
		defer j.stats.EndOpen(ctx, j.stats.Begin(ctx))
	}
	if err := j.Outer.Open(ctx); err != nil {
		return err
	}
	if err := j.Inner.Open(ctx); err != nil {
		return err
	}
	j.fault = ctx.FaultPoint(j, ":next")
	j.buildFault = ctx.FaultPoint(j, ":build")
	j.publishFault = ctx.FaultPoint(j, ":publish")
	j.arena = exec.NewArena(ctx.CPU)
	j.table = make(map[int64][]storage.Row)
	ctx.ShrinkMem(j.memUsed) // reopen without Close: release stale charges
	j.memUsed = 0
	j.out.open(ctx, j.size)
	j.outerBatch, j.outerRow, j.matches = nil, nil, nil
	j.outerPos, j.matchPos = 0, 0
	j.outerDone = false

	if ctx.CPU != nil && j.bucketRegion == 0 {
		j.bucketCount = 1 << 16
		j.bucketRegion = ctx.CPU.AllocData(int(j.bucketCount) * 16)
	}
	if j.shared != nil && j.shared.Table != nil {
		// Reuse-cache hit: adopt the published build side; its bytes live
		// under the cache's reservation, nothing charged here.
		j.table = j.shared.Table
		j.opened = true
		return nil
	}
	buildStart := time.Now()
	buildArena := exec.NewArena(ctx.CPU)
	for {
		// The build is a blocking loop: poll cancellation and deadlines so
		// a large build aborts promptly instead of outliving its query.
		if err := ctx.CanceledNow(); err != nil {
			return err
		}
		if err := j.buildFault.Fire(); err != nil {
			return err
		}
		in, err := j.Inner.NextBatch(ctx)
		if err != nil {
			return err
		}
		if len(in) == 0 {
			break
		}
		j.bits = j.bits[:0]
		for _, row := range in {
			key, ok, err := keyEval(j.InnerKey, row)
			if err != nil {
				return err
			}
			j.bits = append(j.bits, ctx.DataBits(ok))
			if !ok {
				continue
			}
			charge := int64(row.ByteSize()) + hashEntryOverhead
			if err := ctx.GrowMem(charge); err != nil {
				return err
			}
			j.memUsed += charge
			j.table[key] = append(j.table[key], row)
			// Copy the tuple into hash-table memory and link the bucket.
			ctx.Write(buildArena.Alloc(row.ByteSize()), row.ByteSize())
			ctx.Write(j.bucketAddr(key), 16)
		}
		ctx.ExecModuleBatch(j.buildModule, j.bits)
	}
	if j.shared != nil && j.shared.Publish != nil {
		// Reuse-cache miss: hand the finished build to the cache. The
		// publish fault fires first, so a poisoned build is never inserted.
		if err := j.publishFault.Fire(); err != nil {
			return err
		}
		j.shared.Publish(j.table, j.memUsed, time.Since(buildStart))
	}
	j.opened = true
	return nil
}

// NextBatch implements Operator: the probe phase.
func (j *HashJoin) NextBatch(ctx *exec.Context) (res Batch, err error) {
	if !j.opened {
		return nil, errNotOpen(j.Name())
	}
	if j.stats != nil {
		defer j.stats.EndBatch(ctx, j.stats.Begin(ctx), (*[]storage.Row)(&res))
	}
	if err := j.fault.Fire(); err != nil {
		return nil, err
	}
	j.out.reset()
	j.bits = j.bits[:0]
	for !j.out.full() {
		if j.matchPos < len(j.matches) {
			inner := j.matches[j.matchPos]
			j.matchPos++
			out := j.outerRow.Concat(inner)
			j.bits = append(j.bits, ctx.DataBits(true))
			ctx.Read(j.bucketAddr(0), 16) // bucket chain advance
			ctx.Write(j.arena.Alloc(out.ByteSize()), out.ByteSize())
			j.out.append(ctx, out)
			continue
		}
		if j.outerPos >= len(j.outerBatch) {
			if j.outerDone {
				break
			}
			b, err := j.Outer.NextBatch(ctx)
			if err != nil {
				return nil, err
			}
			if len(b) == 0 {
				j.outerDone = true
				break
			}
			j.outerBatch, j.outerPos = b, 0
		}
		row := j.outerBatch[j.outerPos]
		j.outerPos++
		key, ok, err := keyEval(j.OuterKey, row)
		if err != nil {
			return nil, err
		}
		if !ok {
			j.bits = append(j.bits, ctx.DataBits(false))
			continue
		}
		ctx.Read(j.bucketAddr(key), 16)
		j.matches = j.table[key]
		j.matchPos = 0
		j.bits = append(j.bits, ctx.DataBits(len(j.matches) > 0))
		j.outerRow = row
	}
	ctx.ExecModuleBatch(j.probeModule, j.bits)
	return j.out.take(), nil
}

// Close implements Operator.
func (j *HashJoin) Close(ctx *exec.Context) error {
	j.opened = false
	j.table = nil
	ctx.ShrinkMem(j.memUsed)
	j.memUsed = 0
	err1 := j.Outer.Close(ctx)
	err2 := j.Inner.Close(ctx)
	if err1 != nil {
		return err1
	}
	return err2
}

// Schema implements Operator.
func (j *HashJoin) Schema() storage.Schema { return j.schema }

// Children implements Operator.
func (j *HashJoin) Children() []Operator { return []Operator{j.Outer, j.Inner} }

// Name implements Operator.
func (j *HashJoin) Name() string {
	return fmt.Sprintf("VecHashJoin(%s = %s)", j.OuterKey.String(), j.InnerKey.String())
}
