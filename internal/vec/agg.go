package vec

import (
	"fmt"
	"strings"
	"time"

	"bufferdb/internal/codemodel"
	"bufferdb/internal/exec"
	"bufferdb/internal/expr"
	"bufferdb/internal/faultinject"
	"bufferdb/internal/storage"
)

// HashAggregate is the block-oriented grouped/ungrouped aggregation. The
// fold phase consumes whole input batches — one amortized module replay per
// batch, transition µops and the group-lookup data traffic per tuple — and
// the emit phase streams result rows out in batches, in group-key order for
// deterministic results (matching exec.Aggregate).
type HashAggregate struct {
	Child   Operator
	GroupBy []expr.Expr
	Aggs    []expr.AggSpec

	module       *codemodel.Module
	schema       storage.Schema
	stats        *exec.OpStats
	fault        *faultinject.Point
	publishFault *faultinject.Point
	shared       *exec.SharedAgg

	table        *expr.GroupTable
	memUsed      int64
	pos          int
	done         bool
	emittedEmpty bool
	tableRegion  uint64
	tableBuckets uint64

	out    batchBuf
	bits   []uint64
	size   int
	opened bool
}

// NewHashAggregate constructs the operator, deriving the output schema.
// module may be nil; size 0 selects DefaultBatchSize for output batches.
func NewHashAggregate(child Operator, groupBy []expr.Expr, aggs []expr.AggSpec, module *codemodel.Module, size int) (*HashAggregate, error) {
	a := &HashAggregate{
		Child:   child,
		GroupBy: groupBy,
		Aggs:    aggs,
		module:  module,
		size:    size,
	}
	for i, g := range groupBy {
		name := fmt.Sprintf("group%d", i)
		if cr, ok := g.(*expr.ColRef); ok {
			name = cr.Name
		}
		a.schema = append(a.schema, storage.Column{Name: name, Type: g.Type()})
	}
	for _, spec := range aggs {
		ty, err := spec.ResultType()
		if err != nil {
			return nil, err
		}
		a.schema = append(a.schema, storage.Column{Name: spec.OutputName(), Type: ty})
	}
	if len(aggs) == 0 {
		return nil, fmt.Errorf("vec: HashAggregate needs at least one aggregate")
	}
	return a, nil
}

// SetShared wires the finished aggregate table to the semantic reuse
// cache; see exec.SharedAgg. Must be set before Open.
func (a *HashAggregate) SetShared(sa *exec.SharedAgg) { a.shared = sa }

// Open implements Operator.
func (a *HashAggregate) Open(ctx *exec.Context) error {
	a.stats = ctx.StatsFor(a)
	if a.stats != nil {
		defer a.stats.EndOpen(ctx, a.stats.Begin(ctx))
	}
	if err := a.Child.Open(ctx); err != nil {
		return err
	}
	a.fault = ctx.FaultPoint(a, ":next")
	a.publishFault = ctx.FaultPoint(a, ":publish")
	a.table = expr.NewGroupTable(a.GroupBy, a.Aggs)
	ctx.ShrinkMem(a.memUsed) // reopen without Close: release stale charges
	a.memUsed = 0
	a.pos, a.done, a.emittedEmpty = 0, false, false
	a.out.open(ctx, a.size)
	if ctx.CPU != nil && a.tableRegion == 0 {
		a.tableBuckets = 1 << 12
		a.tableRegion = ctx.CPU.AllocData(int(a.tableBuckets) * 64)
	}
	a.opened = true
	return nil
}

// groupAddr maps a group key to its simulated accumulator address.
func (a *HashAggregate) groupAddr(key string) uint64 {
	if a.tableRegion == 0 {
		return 0
	}
	var h uint64 = 1469598103934665603
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * 1099511628211
	}
	return a.tableRegion + (h%a.tableBuckets)*64
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
			grp, isNew, err := a.table.Lookup(row)
			if err != nil {
				return err
			}
			if isNew {
				// Each new group retains its key string, key row, and one
				// accumulator per aggregate for the life of the operator.
				charge := int64(len(grp.Key)) + int64(grp.Vals.ByteSize()) +
					int64(len(a.Aggs))*hashEntryOverhead
				if err := ctx.GrowMem(charge); err != nil {
					return err
				}
				a.memUsed += charge
			}
			if err := grp.Add(row); err != nil {
				return err
			}
			// The transition functions touch the group's accumulator state.
			addr := a.groupAddr(grp.Key)
			ctx.Read(addr, 64)
			ctx.Write(addr, 64)
			a.bits = append(a.bits, ctx.DataBits(isNew))
		}
		ctx.ExecModuleBatch(a.module, a.bits)
	}
	a.table.Sort() // deterministic output order
	a.done = true
	if a.shared != nil && a.shared.Publish != nil {
		// Reuse-cache miss: materialize the complete, sorted output — the
		// same rows NextBatch will emit — and hand it to the cache. The
		// publish fault fires first, so a poisoned table is never inserted.
		if err := a.publishFault.Fire(); err != nil {
			return err
		}
		rows, bytes, err := a.materializeRows()
		if err != nil {
			return err
		}
		a.shared.Publish(rows, bytes, time.Since(start))
	}
	return nil
}

// materializeRows builds the operator's full output — mirroring NextBatch's
// emission exactly, including the one synthetic row of an ungrouped
// aggregate over zero input rows — plus the retained-bytes estimate the
// cache charges for it.
func (a *HashAggregate) materializeRows() ([]storage.Row, int64, error) {
	rows, err := a.table.Rows()
	var bytes int64
	for _, r := range rows {
		bytes += int64(r.ByteSize()) + hashEntryOverhead
	}
	return rows, bytes, err
}

// NextBatch implements Operator.
func (a *HashAggregate) NextBatch(ctx *exec.Context) (res Batch, err error) {
	if !a.opened {
		return nil, errNotOpen(a.Name())
	}
	if a.stats != nil {
		defer a.stats.EndBatch(ctx, a.stats.Begin(ctx), (*[]storage.Row)(&res))
	}
	if err := a.fault.Fire(); err != nil {
		return nil, err
	}
	if !a.done {
		if err := a.consume(ctx); err != nil {
			return nil, err
		}
	}
	// Ungrouped aggregation over zero rows still yields one row
	// (COUNT(*) = 0, SUM = NULL, …).
	if a.table.EmptyUngrouped() {
		if a.emittedEmpty {
			return nil, nil
		}
		a.emittedEmpty = true
		out, err := a.table.EmptyRow()
		if err != nil {
			return nil, err
		}
		a.out.reset()
		a.out.append(ctx, out)
		ctx.ExecModuleBatch(a.module, []uint64{ctx.DataBits(true)})
		return a.out.take(), nil
	}
	if a.pos >= a.table.Len() {
		return nil, nil
	}
	a.out.reset()
	a.bits = a.bits[:0]
	for a.pos < a.table.Len() && !a.out.full() {
		a.bits = append(a.bits, ctx.DataBits(true))
		a.out.append(ctx, a.table.Row(a.pos))
		a.pos++
	}
	ctx.ExecModuleBatch(a.module, a.bits)
	return a.out.take(), nil
}

// Close implements Operator.
func (a *HashAggregate) Close(ctx *exec.Context) error {
	a.opened = false
	a.table = nil
	ctx.ShrinkMem(a.memUsed)
	a.memUsed = 0
	return a.Child.Close(ctx)
}

// Schema implements Operator.
func (a *HashAggregate) Schema() storage.Schema { return a.schema }

// Children implements Operator.
func (a *HashAggregate) Children() []Operator { return []Operator{a.Child} }

// Name implements Operator.
func (a *HashAggregate) Name() string {
	aggs := make([]string, len(a.Aggs))
	for i, s := range a.Aggs {
		aggs[i] = s.String()
	}
	if len(a.GroupBy) == 0 {
		return fmt.Sprintf("VecHashAggregate(%s)", strings.Join(aggs, ", "))
	}
	groups := make([]string, len(a.GroupBy))
	for i, g := range a.GroupBy {
		groups[i] = g.String()
	}
	return fmt.Sprintf("VecHashAggregate(%s GROUP BY %s)", strings.Join(aggs, ", "), strings.Join(groups, ", "))
}
