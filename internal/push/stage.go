package push

import (
	"fmt"
	"strings"

	"bufferdb/internal/exec"
	"bufferdb/internal/expr"
	"bufferdb/internal/storage"
)

// filterStage drops rows failing a residual predicate, like exec.Filter.
type filterStage struct {
	pred expr.Expr
	modbuf

	stats *exec.OpStats
}

func (f *filterStage) open(ctx *exec.Context) error {
	f.stats = ctx.StatsFor(f)
	return nil
}

func (f *filterStage) process(ctx *exec.Context, row storage.Row, next emitFn) error {
	if f.stats != nil {
		f.stats.Calls++
	}
	ok, err := expr.EvalBool(f.pred, row)
	if err != nil {
		return err
	}
	f.add(ctx, ok)
	if !ok {
		return nil
	}
	if f.stats != nil {
		f.stats.Rows++
	}
	return next(ctx, row)
}

// Name implements exec.Named.
func (f *filterStage) Name() string { return fmt.Sprintf("Filter(%s)", f.pred.String()) }

// projectStage evaluates the target list per row, like exec.Project: one
// fresh output row, one arena write per tuple.
type projectStage struct {
	exprs []expr.Expr
	names []string
	modbuf

	stats *exec.OpStats
	arena *exec.Arena
}

func (p *projectStage) open(ctx *exec.Context) error {
	p.stats = ctx.StatsFor(p)
	p.arena = exec.NewArena(ctx.CPU)
	return nil
}

func (p *projectStage) process(ctx *exec.Context, row storage.Row, next emitFn) error {
	if p.stats != nil {
		p.stats.Calls++
	}
	out := make(storage.Row, len(p.exprs))
	for i, e := range p.exprs {
		v, err := e.Eval(row)
		if err != nil {
			return err
		}
		out[i] = v
	}
	p.add(ctx, true)
	ctx.Write(p.arena.Alloc(out.ByteSize()), out.ByteSize())
	if p.stats != nil {
		p.stats.Rows++
	}
	return next(ctx, out)
}

// Name implements exec.Named.
func (p *projectStage) Name() string {
	parts := make([]string, len(p.exprs))
	for i, e := range p.exprs {
		parts[i] = e.String()
	}
	return fmt.Sprintf("Project(%s)", strings.Join(parts, ", "))
}

// limitStage forwards the first n rows, then stops the whole pipe with
// errStop — the push-model equivalent of a Limit ceasing to pull.
type limitStage struct {
	n int

	stats   *exec.OpStats
	emitted int
}

func (l *limitStage) open(ctx *exec.Context) error {
	l.stats = ctx.StatsFor(l)
	l.emitted = 0
	return nil
}

func (l *limitStage) process(ctx *exec.Context, row storage.Row, next emitFn) error {
	if l.emitted >= l.n {
		return errStop
	}
	l.emitted++
	if l.stats != nil {
		l.stats.Calls++
		l.stats.Rows++
	}
	if err := next(ctx, row); err != nil {
		return err
	}
	if l.emitted >= l.n {
		return errStop
	}
	return nil
}

// Name implements exec.Named.
func (l *limitStage) Name() string { return fmt.Sprintf("Limit(%d)", l.n) }

// probeStage probes an upstream buildSink's exec.JoinTable with each outer
// row, emitting outer⨝inner concatenations in build-insertion order, with
// exec.HashJoin's NULL-key rule and arena-write modeling.
type probeStage struct {
	build    *buildSink
	outerKey expr.Expr
	modbuf

	stats *exec.OpStats
	arena *exec.Arena
}

func (j *probeStage) open(ctx *exec.Context) error {
	j.stats = ctx.StatsFor(j)
	j.arena = exec.NewArena(ctx.CPU)
	return nil
}

func (j *probeStage) process(ctx *exec.Context, row storage.Row, next emitFn) error {
	if j.stats != nil {
		j.stats.Calls++
	}
	key, ok, err := exec.JoinKey(j.outerKey, row)
	if err != nil {
		return err
	}
	if !ok {
		// NULL key joins nothing.
		j.add(ctx, false)
		return nil
	}
	matches := j.build.table.Probe(ctx, key)
	j.add(ctx, len(matches) > 0)
	for _, inner := range matches {
		out := row.Concat(inner)
		j.add(ctx, true)
		j.build.table.Advance(ctx)
		ctx.Write(j.arena.Alloc(out.ByteSize()), out.ByteSize())
		if j.stats != nil {
			j.stats.Rows++
		}
		if err := next(ctx, out); err != nil {
			return err
		}
	}
	return nil
}

// Name implements exec.Named.
func (j *probeStage) Name() string {
	return fmt.Sprintf("HashJoin(%s = %s)", j.outerKey.String(), j.build.innerKey.String())
}
