// Package push implements the push-fused compiled execution engine: the
// third point in the design space the paper's §2 opens. Where the Volcano
// engine pays an instruction-cache reload per operator per tuple and the
// buffering refinement amortizes reloads by batching tuples *between*
// operators, the push engine removes the boundary crossings altogether —
// each execution group that plan.Refine computes compiles into a single
// producer-driven loop in which a source drives its rows through a chain of
// consumer callbacks (filter, project, probe, …) with no per-tuple virtual
// Next dispatch, the shape of Neumann-style data-centric compilation
// ("Push vs. Pull-Based Loop Fusion in Query Engines").
//
// Pipelines materialize only at pipeline breakers: a hash-join build, an
// aggregation, and the root result. Plan nodes without a fused variant
// (sort, merge join, nested loops, index scans) stay on their Volcano
// operators and feed a pipe through an adapter source, exactly as the vec
// engine falls back behind FromVolcano.
//
// Instrumentation follows the vec engine's amortized model: every fused
// element batches its per-tuple branch-outcome bits and replays its
// instruction-footprint module through exec.Context.ExecModuleBatch — one
// instruction-fetch replay per ~flushTuples tuples — so a fused group's
// simulated L1-I miss count is the amortized one its single tight loop
// would earn on real hardware. The breakers' state is the Volcano engine's
// own (exec.JoinTable, exec.AggState), so their data-cache traffic is
// shared code; the scan, filter and project elements mirror their Volcano
// operators one-for-one.
//
// Push is a reproduction engine: ExplainAnalyze, Profile and the
// benchmarks run it, a served statement never does. So it carries
// cancellation, stats and reuse adopt/publish, and no fault sites or
// memory charges of its own.
package push

import (
	"errors"
	"fmt"

	"bufferdb/internal/codemodel"
	"bufferdb/internal/exec"
	"bufferdb/internal/storage"
)

// flushTuples is the module-bit batch length: how many tuples' branch
// outcomes a fused element accumulates before replaying its instruction
// footprint once. Matches the vec engine's default batch size so the two
// amortized engines are comparable.
const flushTuples = 1024

// errStop is the early-exit sentinel a Limit stage returns once it has
// forwarded its N rows. Sources treat it as a clean end of input; it never
// escapes the pipeline.
var errStop = errors.New("push: pipeline stop")

// emitFn is the consumer callback a source drives: one call per row.
type emitFn func(ctx *exec.Context, row storage.Row) error

// source produces a pipe's input rows and drives the emit chain.
type source interface {
	open(ctx *exec.Context) error
	run(ctx *exec.Context, emit emitFn) error
	close(ctx *exec.Context) error
}

// stage transforms rows mid-pipe, forwarding zero or more rows per input.
type stage interface {
	open(ctx *exec.Context) error
	process(ctx *exec.Context, row storage.Row, next emitFn) error
}

// sink terminates a pipe at a breaker (hash build, aggregation) or at the
// root result. finish runs after the source is exhausted; close releases
// retained memory.
type sink interface {
	open(ctx *exec.Context) error
	consume(ctx *exec.Context, row storage.Row) error
	finish(ctx *exec.Context) error
	close(ctx *exec.Context)
}

// flusher is implemented by elements that batch module bits.
type flusher interface {
	flushBits(ctx *exec.Context)
}

// modbuf batches one element's per-tuple branch-outcome bits and replays
// the module once per batch — the fused loop's amortized instruction fetch.
type modbuf struct {
	mod  *codemodel.Module
	bits []uint64
}

func (b *modbuf) add(ctx *exec.Context, outcome bool) {
	if b.mod == nil {
		return
	}
	b.bits = append(b.bits, ctx.DataBits(outcome))
	if len(b.bits) >= flushTuples {
		b.flushBits(ctx)
	}
}

func (b *modbuf) flushBits(ctx *exec.Context) {
	if len(b.bits) > 0 {
		ctx.ExecModuleBatch(b.mod, b.bits)
		b.bits = b.bits[:0]
	}
}

// pipe is one fused loop: a source, a stage chain, and a terminal sink.
type pipe struct {
	src    source
	stages []stage
	snk    sink
}

// elems enumerates the pipe's elements, source first.
func (p *pipe) elems() []any {
	out := []any{p.src}
	for _, s := range p.stages {
		out = append(out, s)
	}
	return append(out, p.snk)
}

// run drives the pipe to completion: it folds the stage chain into one
// emit callback, streams the source through it, flushes every element's
// batched module bits, and finishes the sink.
func (p *pipe) run(ctx *exec.Context) error {
	emit := p.snk.consume
	for i := len(p.stages) - 1; i >= 0; i-- {
		st, next := p.stages[i], emit
		emit = func(ctx *exec.Context, row storage.Row) error {
			return st.process(ctx, row, next)
		}
	}
	err := p.src.run(ctx, emit)
	for _, e := range p.elems() {
		if f, ok := e.(flusher); ok {
			f.flushBits(ctx)
		}
	}
	if err != nil && !errors.Is(err, errStop) {
		return err
	}
	return p.snk.finish(ctx)
}

// Pipeline is the compiled form of one or more fused execution groups,
// exposed to the host engine as a single (blocking) Volcano operator: the
// first Next runs every pipe in dependency order — upstream hash builds
// first, the result-producing pipe last — and later Nexts stream the
// materialized result, modeling one data-cache read per served row.
type Pipeline struct {
	pipes []*pipe
	out   *collectSink
	sch   storage.Schema
	// fallbacks are the Volcano subtrees feeding adapter sources, exposed
	// through Children so generic tree walks still see them.
	fallbacks []exec.Operator

	stats  *exec.OpStats
	pos    int
	ran    bool
	opened bool
}

// Open implements exec.Operator: it registers stats handles, opens every
// element, and resets the pipeline for a fresh run. Reopen without Close
// releases the breakers' stale memory charges (exec.JoinTable.Open,
// exec.AggState.Open).
func (pl *Pipeline) Open(ctx *exec.Context) error {
	pl.stats = ctx.StatsFor(pl)
	if pl.stats != nil {
		defer pl.stats.EndOpen(ctx, pl.stats.Begin(ctx))
	}
	for _, p := range pl.pipes {
		if err := p.src.open(ctx); err != nil {
			return err
		}
		for _, st := range p.stages {
			if err := st.open(ctx); err != nil {
				return err
			}
		}
		if err := p.snk.open(ctx); err != nil {
			return err
		}
	}
	pl.pos, pl.ran = 0, false
	pl.opened = true
	return nil
}

// Next implements exec.Operator: the first call executes every fused pipe,
// then the materialized result streams out row by row.
func (pl *Pipeline) Next(ctx *exec.Context) (out storage.Row, err error) {
	if !pl.opened {
		return nil, fmt.Errorf("push: %s.Next called before Open", pl.Name())
	}
	if pl.stats != nil {
		defer pl.stats.EndNext(ctx, pl.stats.Begin(ctx), &out)
	}
	if !pl.ran {
		for _, p := range pl.pipes {
			if err := p.run(ctx); err != nil {
				return nil, err
			}
		}
		pl.ran = true
		if pl.stats != nil {
			pl.stats.Drained(len(pl.out.rows))
		}
	}
	if pl.pos >= len(pl.out.rows) {
		return nil, nil
	}
	row := pl.out.rows[pl.pos]
	ctx.Read(pl.out.addrs[pl.pos], row.ByteSize())
	pl.pos++
	return row, nil
}

// Close implements exec.Operator: it tears down sources (closing any
// Volcano fallback subtrees) and releases every sink's retained memory.
// Idempotent, like the Volcano operators.
func (pl *Pipeline) Close(ctx *exec.Context) error {
	pl.opened = false
	var first error
	for _, p := range pl.pipes {
		if err := p.src.close(ctx); err != nil && first == nil {
			first = err
		}
		p.snk.close(ctx)
	}
	return first
}

// Schema implements exec.Operator.
func (pl *Pipeline) Schema() storage.Schema { return pl.sch }

// Children implements exec.Operator: the Volcano fallback subtrees feeding
// adapter sources (empty for fully fused plans).
func (pl *Pipeline) Children() []exec.Operator { return pl.fallbacks }

// Name implements exec.Operator.
func (pl *Pipeline) Name() string {
	if len(pl.pipes) == 1 {
		return "Push"
	}
	return fmt.Sprintf("Push(%d pipes)", len(pl.pipes))
}
