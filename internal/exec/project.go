package exec

import (
	"fmt"
	"strings"

	"bufferdb/internal/codemodel"
	"bufferdb/internal/expr"
	"bufferdb/internal/storage"
)

// Filter drops rows that fail a predicate. PostgreSQL folds qualification
// into each operator's own code; this engine pushes single-relation
// predicates into scans the same way and uses Filter only for residual
// predicates above joins.
type Filter struct {
	Child Operator
	Pred  expr.Expr

	module *codemodel.Module
	label  byte
	stats  *OpStats
	opened bool
}

// NewFilter constructs the operator; module may be nil.
func NewFilter(child Operator, pred expr.Expr, module *codemodel.Module) *Filter {
	return &Filter{Child: child, Pred: pred, module: module, label: 'F'}
}

// SetTraceLabel sets the trace label.
func (f *Filter) SetTraceLabel(b byte) { f.label = b }

// Open implements Operator.
func (f *Filter) Open(ctx *Context) error {
	f.stats = ctx.StatsFor(f)
	if f.stats != nil {
		defer f.stats.EndOpen(ctx, f.stats.Begin(ctx))
	}
	f.opened = true
	return f.Child.Open(ctx)
}

// Next implements Operator.
func (f *Filter) Next(ctx *Context) (out storage.Row, err error) {
	if !f.opened {
		return nil, errNotOpen(f.Name())
	}
	if f.stats != nil {
		defer f.stats.EndNext(ctx, f.stats.Begin(ctx), &out)
	}
	if ctx.Trace != nil {
		ctx.Trace.Record(f.label, f.Name())
	}
	for {
		row, err := f.Child.Next(ctx)
		if err != nil || row == nil {
			return nil, err
		}
		ok, err := expr.EvalBool(f.Pred, row)
		if err != nil {
			return nil, err
		}
		ctx.ExecModule(f.module, ctx.DataBits(ok))
		if ok {
			return row, nil
		}
	}
}

// Close implements Operator.
func (f *Filter) Close(ctx *Context) error {
	f.opened = false
	return f.Child.Close(ctx)
}

// Schema implements Operator.
func (f *Filter) Schema() storage.Schema { return f.Child.Schema() }

// Children implements Operator.
func (f *Filter) Children() []Operator { return []Operator{f.Child} }

// Name implements Operator.
func (f *Filter) Name() string { return fmt.Sprintf("Filter(%s)", f.Pred.String()) }

// Project evaluates a target list over each input row.
type Project struct {
	Child Operator
	Exprs []expr.Expr
	// Names are output column names, parallel to Exprs.
	Names []string

	module *codemodel.Module
	label  byte
	stats  *OpStats
	schema storage.Schema
	arena  *Arena
	opened bool
}

// NewProject constructs the operator; module may be nil.
func NewProject(child Operator, exprs []expr.Expr, names []string, module *codemodel.Module) (*Project, error) {
	if len(exprs) == 0 {
		return nil, fmt.Errorf("exec: Project needs a target list")
	}
	if len(names) != len(exprs) {
		return nil, fmt.Errorf("exec: Project names/exprs mismatch: %d vs %d", len(names), len(exprs))
	}
	p := &Project{Child: child, Exprs: exprs, Names: names, module: module, label: 'J'}
	for i, e := range exprs {
		p.schema = append(p.schema, storage.Column{Name: names[i], Type: e.Type()})
	}
	return p, nil
}

// SetTraceLabel sets the trace label.
func (p *Project) SetTraceLabel(b byte) { p.label = b }

// Open implements Operator.
func (p *Project) Open(ctx *Context) error {
	p.stats = ctx.StatsFor(p)
	if p.stats != nil {
		defer p.stats.EndOpen(ctx, p.stats.Begin(ctx))
	}
	p.arena = NewArena(ctx.CPU)
	p.opened = true
	return p.Child.Open(ctx)
}

// Next implements Operator.
func (p *Project) Next(ctx *Context) (res storage.Row, err error) {
	if !p.opened {
		return nil, errNotOpen(p.Name())
	}
	if p.stats != nil {
		defer p.stats.EndNext(ctx, p.stats.Begin(ctx), &res)
	}
	if ctx.Trace != nil {
		ctx.Trace.Record(p.label, p.Name())
	}
	row, err := p.Child.Next(ctx)
	if err != nil || row == nil {
		return nil, err
	}
	out := make(storage.Row, len(p.Exprs))
	for i, e := range p.Exprs {
		v, err := e.Eval(row)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	ctx.ExecModule(p.module, ctx.DataBits(true))
	ctx.Write(p.arena.Alloc(out.ByteSize()), out.ByteSize())
	return out, nil
}

// Close implements Operator.
func (p *Project) Close(ctx *Context) error {
	p.opened = false
	return p.Child.Close(ctx)
}

// Schema implements Operator.
func (p *Project) Schema() storage.Schema { return p.schema }

// Children implements Operator.
func (p *Project) Children() []Operator { return []Operator{p.Child} }

// Name implements Operator.
func (p *Project) Name() string {
	parts := make([]string, len(p.Exprs))
	for i, e := range p.Exprs {
		parts[i] = e.String()
	}
	return fmt.Sprintf("Project(%s)", strings.Join(parts, ", "))
}
