package exec

import (
	"fmt"
	"strings"
	"time"

	"bufferdb/internal/codemodel"
	"bufferdb/internal/expr"
	"bufferdb/internal/faultinject"
	"bufferdb/internal/storage"
)

// Aggregate implements grouped and ungrouped aggregation with hashed
// grouping. With no GROUP BY expressions it produces exactly one row (the
// paper's Query 1 and Query 2 shape); with grouping it produces one row per
// group, emitted in group-key order for deterministic results.
//
// The aggregation module's instruction footprint depends on which aggregate
// functions the query uses — the paper's Table 2 lists the base plus
// per-function increments — so the planner requests the module from
// codemodel.AggModule with the query's function list.
type Aggregate struct {
	Child   Operator
	GroupBy []expr.Expr
	Aggs    []expr.AggSpec

	module       *codemodel.Module
	label        byte
	stats        *OpStats
	fault        *faultinject.Point
	publishFault *faultinject.Point
	schema       storage.Schema
	shared       *SharedAgg
	// drain, when set, replaces pullRows as the way consume drains the
	// input (see BlockAggregate).
	drain func(ctx *Context) error

	table        *expr.GroupTable
	memUsed      int64
	pos          int
	done         bool
	opened       bool
	tableRegion  uint64
	tableBuckets uint64
}

// NewAggregate constructs the operator, deriving the output schema.
// module may be nil.
func NewAggregate(child Operator, groupBy []expr.Expr, aggs []expr.AggSpec, module *codemodel.Module) (*Aggregate, error) {
	a := &Aggregate{
		Child:   child,
		GroupBy: groupBy,
		Aggs:    aggs,
		module:  module,
		label:   'A',
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
		return nil, fmt.Errorf("exec: Aggregate needs at least one aggregate")
	}
	return a, nil
}

// SetTraceLabel sets the trace label.
func (a *Aggregate) SetTraceLabel(b byte) { a.label = b }

// SetShared wires the finished aggregate table to the semantic reuse
// cache; see SharedAgg. Must be set before Open.
func (a *Aggregate) SetShared(sa *SharedAgg) { a.shared = sa }

// Open implements Operator.
func (a *Aggregate) Open(ctx *Context) error {
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
	a.pos, a.done = 0, false
	if ctx.CPU != nil && a.tableRegion == 0 {
		a.tableBuckets = 1 << 12
		a.tableRegion = ctx.CPU.AllocData(int(a.tableBuckets) * 64)
	}
	a.opened = true
	return nil
}

// groupAddr maps a group key to its simulated accumulator address.
func (a *Aggregate) groupAddr(key string) uint64 {
	if a.tableRegion == 0 {
		return 0
	}
	var h uint64 = 1469598103934665603
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * 1099511628211
	}
	return a.tableRegion + (h%a.tableBuckets)*64
}

// consume drains the input into the group table, then sorts and publishes.
func (a *Aggregate) consume(ctx *Context) error {
	start := time.Now()
	drain := a.pullRows
	if a.drain != nil {
		drain = a.drain
	}
	if err := drain(ctx); err != nil {
		return err
	}
	a.table.Sort() // deterministic output order
	a.done = true
	if a.shared != nil && a.shared.Publish != nil {
		// Reuse-cache miss: materialize the complete, sorted output — the
		// same rows Next will emit — and hand it to the cache. The publish
		// fault fires first, so a poisoned table can never be inserted.
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

// pullRows drains the child row by row.
func (a *Aggregate) pullRows(ctx *Context) error {
	for {
		if err := ctx.Canceled(); err != nil {
			return err
		}
		row, err := a.Child.Next(ctx)
		if err != nil || row == nil {
			return err
		}
		if err := a.addRow(ctx, row); err != nil {
			return err
		}
	}
}

// addRow folds one input row into its group.
func (a *Aggregate) addRow(ctx *Context, row storage.Row) error {
	grp, isNew, err := a.table.Lookup(row)
	if err != nil {
		return err
	}
	if isNew {
		if err := a.chargeGroup(ctx, grp); err != nil {
			return err
		}
	}
	if err := grp.Add(row); err != nil {
		return err
	}
	// The transition functions touch the group's accumulator state.
	addr := a.groupAddr(grp.Key)
	ctx.Read(addr, 64)
	ctx.Write(addr, 64)
	ctx.ExecModule(a.module, ctx.DataBits(isNew))
	return nil
}

// chargeGroup charges what a new group retains for the life of the
// operator: its key string, key row, and one accumulator per aggregate.
func (a *Aggregate) chargeGroup(ctx *Context, grp *expr.Group) error {
	charge := int64(len(grp.Key)) + int64(grp.Vals.ByteSize()) +
		int64(len(a.Aggs))*hashEntryOverhead
	if err := ctx.GrowMem(charge); err != nil {
		return err
	}
	a.memUsed += charge
	return nil
}

// materializeRows builds the operator's full output — mirroring Next's
// emission exactly, including the one synthetic row of an ungrouped
// aggregate over zero input rows — plus the retained-bytes estimate the
// cache charges for it. Accumulator Result calls are pure, so emission
// after materialization produces identical values.
func (a *Aggregate) materializeRows() ([]storage.Row, int64, error) {
	rows, err := a.table.Rows()
	var bytes int64
	for _, r := range rows {
		bytes += int64(r.ByteSize()) + hashEntryOverhead
	}
	return rows, bytes, err
}

// Next implements Operator.
func (a *Aggregate) Next(ctx *Context) (res storage.Row, err error) {
	if !a.opened {
		return nil, errNotOpen(a.Name())
	}
	if a.stats != nil {
		defer a.stats.EndNext(ctx, a.stats.Begin(ctx), &res)
	}
	if ctx.Trace != nil {
		ctx.Trace.Record(a.label, a.Name())
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
	if a.table.EmptyUngrouped() && a.pos == 0 {
		a.pos++
		out, err := a.table.EmptyRow()
		if err != nil {
			return nil, err
		}
		ctx.ExecModule(a.module, ctx.DataBits(true))
		return out, nil
	}
	if a.pos >= a.table.Len() {
		return nil, nil
	}
	out := a.table.Row(a.pos)
	a.pos++
	ctx.ExecModule(a.module, ctx.DataBits(true))
	return out, nil
}

// Close implements Operator.
func (a *Aggregate) Close(ctx *Context) error {
	a.opened = false
	a.table = nil
	ctx.ShrinkMem(a.memUsed)
	a.memUsed = 0
	return a.Child.Close(ctx)
}

// Schema implements Operator.
func (a *Aggregate) Schema() storage.Schema { return a.schema }

// Children implements Operator.
func (a *Aggregate) Children() []Operator { return []Operator{a.Child} }

// Name implements Operator.
func (a *Aggregate) Name() string {
	aggs := make([]string, len(a.Aggs))
	for i, s := range a.Aggs {
		aggs[i] = s.String()
	}
	if len(a.GroupBy) == 0 {
		return fmt.Sprintf("Aggregate(%s)", strings.Join(aggs, ", "))
	}
	groups := make([]string, len(a.GroupBy))
	for i, g := range a.GroupBy {
		groups[i] = g.String()
	}
	return fmt.Sprintf("Aggregate(%s GROUP BY %s)", strings.Join(aggs, ", "), strings.Join(groups, ", "))
}

// Module implements Operator.
func (a *Aggregate) Module() *codemodel.Module { return a.module }

// Blocking implements Operator. Although aggregation consumes its whole
// input before emitting, its transition code runs once per input tuple,
// interleaved with the child — which is exactly the thrashing pattern the
// paper buffers against. The paper accordingly treats Aggregation as a
// regular execution-group member (its Query 2 groups Scan and Aggregation
// together; its Query 1 buffers between them), reserving the blocking
// exclusion for sort and hash-table building. We follow that.
func (a *Aggregate) Blocking() bool { return false }

// AggFuncNames extracts the lower-case function-name list for
// codemodel.AggModule from a spec list.
func AggFuncNames(specs []expr.AggSpec) []string {
	var out []string
	for _, s := range specs {
		switch s.Func {
		case expr.AggCountStar, expr.AggCount:
			out = append(out, "count")
		case expr.AggSum:
			out = append(out, "sum")
		case expr.AggAvg:
			out = append(out, "avg")
		case expr.AggMin:
			out = append(out, "min")
		case expr.AggMax:
			out = append(out, "max")
		}
	}
	return out
}
