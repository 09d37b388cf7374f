package vec

import (
	"fmt"
	"strings"

	"bufferdb/internal/codemodel"
	"bufferdb/internal/exec"
	"bufferdb/internal/expr"
	"bufferdb/internal/storage"
)

// Project evaluates a target list over each row of its input batch. Output
// batches are the same length as input batches; the projection code is
// fetched once per batch.
type Project struct {
	Child Operator
	Exprs []expr.Expr
	// Names are output column names, parallel to Exprs.
	Names []string

	module *codemodel.Module
	schema storage.Schema
	arena  *exec.Arena
	stats  *exec.OpStats

	out    batchBuf
	bits   []uint64
	opened bool
}

// NewProject constructs the operator; module may be nil.
func NewProject(child Operator, exprs []expr.Expr, names []string, module *codemodel.Module) (*Project, error) {
	if len(exprs) == 0 {
		return nil, fmt.Errorf("vec: Project needs a target list")
	}
	if len(names) != len(exprs) {
		return nil, fmt.Errorf("vec: Project names/exprs mismatch: %d vs %d", len(names), len(exprs))
	}
	p := &Project{Child: child, Exprs: exprs, Names: names, module: module}
	for i, e := range exprs {
		p.schema = append(p.schema, storage.Column{Name: names[i], Type: e.Type()})
	}
	return p, nil
}

// Open implements Operator.
func (p *Project) Open(ctx *exec.Context) error {
	p.stats = ctx.StatsFor(p)
	if p.stats != nil {
		defer p.stats.EndOpen(ctx, p.stats.Begin(ctx))
	}
	p.arena = exec.NewArena(ctx.CPU)
	p.out.open(ctx, 0)
	p.opened = true
	return p.Child.Open(ctx)
}

// NextBatch implements Operator.
func (p *Project) NextBatch(ctx *exec.Context) (res Batch, err error) {
	if !p.opened {
		return nil, errNotOpen(p.Name())
	}
	if p.stats != nil {
		defer p.stats.EndBatch(ctx, p.stats.Begin(ctx), (*[]storage.Row)(&res))
	}
	in, err := p.Child.NextBatch(ctx)
	if err != nil {
		return nil, err
	}
	if len(in) == 0 {
		return nil, nil
	}
	p.out.reset()
	p.bits = p.bits[:0]
	for _, row := range in {
		out := make(storage.Row, len(p.Exprs))
		for i, e := range p.Exprs {
			v, err := e.Eval(row)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		ctx.Write(p.arena.Alloc(out.ByteSize()), out.ByteSize())
		p.bits = append(p.bits, ctx.DataBits(true))
		p.out.append(ctx, out)
	}
	ctx.ExecModuleBatch(p.module, p.bits)
	return p.out.take(), nil
}

// Close implements Operator.
func (p *Project) Close(ctx *exec.Context) error {
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
	return fmt.Sprintf("VecProject(%s)", strings.Join(parts, ", "))
}
