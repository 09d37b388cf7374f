package push

import (
	"fmt"

	"bufferdb/internal/codemodel"
	"bufferdb/internal/exec"
	"bufferdb/internal/expr"
	"bufferdb/internal/storage"
)

// Builder assembles a Pipeline bottom-up, mirroring how a plan compiler
// walks a fused subtree: start a pipe with Scan or Source, stack stages
// with Filter/Project/Limit/Probe, break it with Aggregate, and seal the
// whole thing with Build. Each method returns the element it created — the
// key its runtime stats register under — or nil if it created none; the
// first error sticks and surfaces from Build.
type Builder struct {
	pipes     []*pipe
	fallbacks []exec.Operator
	cur       *pipe
	sch       storage.Schema
	err       error
}

// NewBuilder returns an empty pipeline builder.
func NewBuilder() *Builder { return &Builder{} }

func (b *Builder) fail(format string, args ...any) {
	if b.err == nil {
		b.err = fmt.Errorf(format, args...)
	}
}

// start opens the current pipe with src.
func (b *Builder) start(src source, sch storage.Schema) {
	if b.cur != nil {
		b.fail("push: pipe already has a source")
		return
	}
	b.cur = &pipe{src: src}
	b.sch = sch
}

// stage appends a stage to the current pipe.
func (b *Builder) stage(st stage) {
	if b.err != nil {
		return
	}
	if b.cur == nil {
		b.fail("push: stage before source")
		return
	}
	b.cur.stages = append(b.cur.stages, st)
}

// Scan starts the current pipe with a fused heap scan. filter, cols (the
// column mask of a paged scan) and mod may be nil.
func (b *Builder) Scan(table *storage.Table, filter expr.Expr, cols []bool, mod *codemodel.Module) exec.Named {
	if b.err != nil {
		return nil
	}
	s := &scanSource{table: table, filter: filter, cols: cols}
	s.mod = mod
	b.start(s, table.Schema())
	return s
}

// Source starts the current pipe from a Volcano operator subtree — the
// adapter fallback for plan nodes without a fused variant. mod is the
// buffer module (the adapter is a refill loop); it may be nil.
func (b *Builder) Source(op exec.Operator, mod *codemodel.Module) exec.Named {
	if b.err != nil {
		return nil
	}
	s := &opSource{op: op}
	s.mod = mod
	b.start(s, op.Schema())
	b.fallbacks = append(b.fallbacks, op)
	return s
}

// Filter appends a residual-predicate stage.
func (b *Builder) Filter(pred expr.Expr, mod *codemodel.Module) exec.Named {
	f := &filterStage{pred: pred}
	f.mod = mod
	b.stage(f)
	return f
}

// Project appends a target-list stage.
func (b *Builder) Project(exprs []expr.Expr, names []string, mod *codemodel.Module) exec.Named {
	if b.err != nil {
		return nil
	}
	if len(exprs) == 0 {
		b.fail("push: Project needs a target list")
		return nil
	}
	if len(names) != len(exprs) {
		b.fail("push: Project names/exprs mismatch: %d vs %d", len(names), len(exprs))
		return nil
	}
	p := &projectStage{exprs: exprs, names: names}
	p.mod = mod
	b.stage(p)
	if b.err == nil {
		var sch storage.Schema
		for i, e := range exprs {
			sch = append(sch, storage.Column{Name: names[i], Type: e.Type()})
		}
		b.sch = sch
	}
	return p
}

// Limit appends a first-n stage that stops the pipe once satisfied.
func (b *Builder) Limit(n int) exec.Named {
	l := &limitStage{n: n}
	b.stage(l)
	return l
}

// Probe joins the current pipe against a build side assembled in inner:
// inner's pipe is sealed with a hash-build breaker (scheduled before this
// pipe runs) and a probe stage is appended here. Returns the probe and
// build elements.
func (b *Builder) Probe(inner *Builder, outerKey, innerKey expr.Expr, buildMod, probeMod *codemodel.Module) (probe, build exec.Named) {
	if b.err == nil && inner.err != nil {
		b.err = inner.err
	}
	if b.err != nil {
		return nil, nil
	}
	if b.cur == nil || inner.cur == nil {
		b.fail("push: probe needs both an outer and a build pipe")
		return nil, nil
	}
	bs := &buildSink{innerKey: innerKey}
	bs.mod = buildMod
	inner.cur.snk = bs
	// Build pipes run before this (probe) pipe: upstream breakers first.
	b.pipes = append(b.pipes, inner.pipes...)
	b.pipes = append(b.pipes, inner.cur)
	b.fallbacks = append(b.fallbacks, inner.fallbacks...)

	ps := &probeStage{build: bs, outerKey: outerKey}
	ps.mod = probeMod
	b.stage(ps)
	b.sch = b.sch.Concat(inner.sch)
	return ps, bs
}

// Aggregate seals the current pipe with a hashed-grouping breaker and
// starts a new pipe streaming the grouped results.
func (b *Builder) Aggregate(groupBy []expr.Expr, aggs []expr.AggSpec, mod *codemodel.Module) exec.Named {
	if b.err != nil {
		return nil
	}
	if b.cur == nil {
		b.fail("push: aggregate before source")
		return nil
	}
	state, err := exec.NewAggState(groupBy, aggs)
	if err != nil {
		b.err = err
		return nil
	}
	a := &aggSink{AggState: state}
	a.mod = mod
	b.cur.snk = a
	b.pipes = append(b.pipes, b.cur)
	b.cur = &pipe{src: &pipeSource{up: a}}
	b.sch = a.Schema()
	return a
}

// SetSharedBuild wires a hash-build breaker to the semantic reuse cache.
// h must be the build handle Probe returned; reports whether it was.
func SetSharedBuild(h exec.Named, sb *exec.SharedBuild) bool {
	bs, ok := h.(*buildSink)
	if !ok {
		return false
	}
	bs.table.SetShared(sb)
	return true
}

// SetSharedAgg wires an aggregation breaker to the semantic reuse cache.
// h must be the handle Aggregate returned; reports whether it was.
func SetSharedAgg(h exec.Named, sa *exec.SharedAgg) bool {
	as, ok := h.(*aggSink)
	if !ok {
		return false
	}
	as.SetShared(sa)
	return true
}

// Build seals the final pipe with the root collector and returns the
// finished Pipeline.
func (b *Builder) Build() (*Pipeline, error) {
	if b.err != nil {
		return nil, b.err
	}
	if b.cur == nil {
		return nil, fmt.Errorf("push: empty pipeline")
	}
	out := &collectSink{}
	b.cur.snk = out
	pl := &Pipeline{
		pipes:     append(b.pipes, b.cur),
		out:       out,
		sch:       b.sch,
		fallbacks: b.fallbacks,
	}
	b.cur = nil
	return pl, nil
}
