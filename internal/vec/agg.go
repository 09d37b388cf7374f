package vec

import (
	"time"

	"bufferdb/internal/codemodel"
	"bufferdb/internal/exec"
	"bufferdb/internal/expr"
	"bufferdb/internal/storage"
)

// HashAggregate is the block-oriented grouped/ungrouped aggregation. The
// fold phase consumes whole input batches — one amortized module replay per
// batch, transition µops and the group-lookup data traffic per tuple — and
// the emit phase streams result rows out in batches; the state in between is
// exec.AggState.
type HashAggregate struct {
	Child Operator
	exec.AggState

	module *codemodel.Module
	stats  *exec.OpStats

	pos  int
	done bool

	out    batchBuf
	bits   []uint64
	size   int
	opened bool
}

// NewHashAggregate constructs the operator, deriving the output schema.
// module may be nil; size 0 selects DefaultBatchSize for output batches.
func NewHashAggregate(child Operator, groupBy []expr.Expr, aggs []expr.AggSpec, module *codemodel.Module, size int) (*HashAggregate, error) {
	state, err := exec.NewAggState(groupBy, aggs)
	if err != nil {
		return nil, err
	}
	return &HashAggregate{Child: child, AggState: state, module: module, size: size}, nil
}

// Open implements Operator.
func (a *HashAggregate) Open(ctx *exec.Context) error {
	a.stats = ctx.StatsFor(a)
	if a.stats != nil {
		defer a.stats.EndOpen(ctx, a.stats.Begin(ctx))
	}
	if err := a.Child.Open(ctx); err != nil {
		return err
	}
	a.pos, a.done = 0, false
	a.out.open(ctx, a.size)
	a.AggState.Open(ctx, a)
	a.opened = true
	return nil
}

// consume drains the child batch by batch, folding every row into its group.
func (a *HashAggregate) consume(ctx *exec.Context) error {
	start := time.Now()
	for {
		if err := ctx.CanceledNow(); err != nil {
			return err
		}
		in, err := a.Child.NextBatch(ctx)
		if err != nil {
			return err
		}
		if len(in) == 0 {
			break
		}
		a.bits = a.bits[:0]
		for _, row := range in {
			isNew, err := a.Fold(ctx, row)
			if err != nil {
				return err
			}
			a.bits = append(a.bits, ctx.DataBits(isNew))
		}
		ctx.ExecModuleBatch(a.module, a.bits)
	}
	a.done = true
	return a.Finish(start)
}

// NextBatch implements Operator.
func (a *HashAggregate) NextBatch(ctx *exec.Context) (res Batch, err error) {
	if !a.opened {
		return nil, errNotOpen(a.Name())
	}
	if a.stats != nil {
		defer a.stats.EndBatch(ctx, a.stats.Begin(ctx), (*[]storage.Row)(&res))
	}
	if !a.done {
		if err := a.consume(ctx); err != nil {
			return nil, err
		}
	}
	if a.pos >= a.Outputs() {
		return nil, nil
	}
	a.out.reset()
	a.bits = a.bits[:0]
	for a.pos < a.Outputs() && !a.out.full() {
		row, err := a.Output(a.pos)
		if err != nil {
			return nil, err
		}
		a.bits = append(a.bits, ctx.DataBits(true))
		a.out.append(ctx, row)
		a.pos++
	}
	ctx.ExecModuleBatch(a.module, a.bits)
	return a.out.take(), nil
}

// Close implements Operator.
func (a *HashAggregate) Close(ctx *exec.Context) error {
	a.opened = false
	a.AggState.Close(ctx)
	return a.Child.Close(ctx)
}

// Children implements Operator.
func (a *HashAggregate) Children() []Operator { return []Operator{a.Child} }

// Name implements Operator.
func (a *HashAggregate) Name() string { return a.AggState.Name("VecHashAggregate") }
