package exec

import (
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
	Child Operator
	AggState

	module *codemodel.Module
	label  byte
	stats  *OpStats
	fault  *faultinject.Point
	// drain, when set, replaces pullRows as the way consume drains the
	// input (see BlockAggregate).
	drain func(ctx *Context) error

	pos    int
	done   bool
	opened bool
}

// NewAggregate constructs the operator, deriving the output schema.
// module may be nil.
func NewAggregate(child Operator, groupBy []expr.Expr, aggs []expr.AggSpec, module *codemodel.Module) (*Aggregate, error) {
	state, err := NewAggState(groupBy, aggs)
	if err != nil {
		return nil, err
	}
	return &Aggregate{Child: child, AggState: state, module: module, label: 'A'}, nil
}

// SetTraceLabel sets the trace label.
func (a *Aggregate) SetTraceLabel(b byte) { a.label = b }

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
	a.AggState.Open(ctx, a)
	a.pos, a.done = 0, false
	a.opened = true
	return nil
}

// consume drains the input into the group table, then sorts and publishes.
func (a *Aggregate) consume(ctx *Context) error {
	drain := a.pullRows
	if a.drain != nil {
		drain = a.drain
	}
	if err := drain(ctx); err != nil {
		return err
	}
	a.done = true
	return a.Finish()
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
	isNew, err := a.Fold(ctx, row)
	if err != nil {
		return err
	}
	ctx.ExecModule(a.module, ctx.DataBits(isNew))
	return nil
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
	if a.pos >= a.Outputs() {
		return nil, nil
	}
	out, err := a.Output(a.pos)
	if err != nil {
		return nil, err
	}
	a.pos++
	ctx.ExecModule(a.module, ctx.DataBits(true))
	return out, nil
}

// Close implements Operator.
func (a *Aggregate) Close(ctx *Context) error {
	a.opened = false
	a.AggState.Close(ctx)
	return a.Child.Close(ctx)
}

// Children implements Operator.
func (a *Aggregate) Children() []Operator { return []Operator{a.Child} }

// Name implements Operator.
func (a *Aggregate) Name() string { return a.AggState.Name("Aggregate") }

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
