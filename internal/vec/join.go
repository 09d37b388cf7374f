package vec

import (
	"fmt"

	"bufferdb/internal/codemodel"
	"bufferdb/internal/exec"
	"bufferdb/internal/expr"
	"bufferdb/internal/storage"
)

// HashJoin is the block-oriented in-memory equi-hash-join. Open drains the
// build (inner) side batch by batch into the hash table; NextBatch probes
// the outer side, filling the output vector across outer batches. The table
// is exec.JoinTable; per-tuple module invocations are exec.HashJoin's — one
// probe invocation per outer tuple plus one per emitted match — with
// instruction fetch amortized per batch.
type HashJoin struct {
	Outer    Operator // probe side
	Inner    Operator // build side
	OuterKey expr.Expr
	InnerKey expr.Expr

	buildModule *codemodel.Module
	probeModule *codemodel.Module
	arena       *exec.Arena
	schema      storage.Schema
	stats       *exec.OpStats
	table       exec.JoinTable

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
func (j *HashJoin) SetShared(sb *exec.SharedBuild) { j.table.SetShared(sb) }

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
	j.arena = exec.NewArena(ctx.CPU)
	j.out.open(ctx, j.size)
	j.outerBatch, j.outerRow, j.matches = nil, nil, nil
	j.outerPos, j.matchPos = 0, 0
	j.outerDone = false
	if j.table.Open(ctx, j); j.table.Adopted() {
		// Reuse-cache hit: the build input is never touched.
		j.opened = true
		return nil
	}
	for {
		// The build is a blocking loop: poll cancellation and deadlines so
		// a large build aborts promptly instead of outliving its query.
		if err := ctx.CanceledNow(); err != nil {
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
			key, ok, err := exec.JoinKey(j.InnerKey, row)
			if err != nil {
				return err
			}
			j.bits = append(j.bits, ctx.DataBits(ok))
			if !ok {
				continue
			}
			if err := j.table.Insert(ctx, key, row); err != nil {
				return err
			}
		}
		ctx.ExecModuleBatch(j.buildModule, j.bits)
	}
	if err := j.table.Finish(); err != nil {
		return err
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
	j.out.reset()
	j.bits = j.bits[:0]
	for !j.out.full() {
		if j.matchPos < len(j.matches) {
			inner := j.matches[j.matchPos]
			j.matchPos++
			out := j.outerRow.Concat(inner)
			j.bits = append(j.bits, ctx.DataBits(true))
			j.table.Advance(ctx)
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
		key, ok, err := exec.JoinKey(j.OuterKey, row)
		if err != nil {
			return nil, err
		}
		if !ok {
			j.bits = append(j.bits, ctx.DataBits(false))
			continue
		}
		j.matches = j.table.Probe(ctx, key)
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
	j.table.Close(ctx)
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
