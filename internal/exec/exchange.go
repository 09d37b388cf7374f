package exec

import (
	"fmt"

	"bufferdb/internal/codemodel"
	"bufferdb/internal/faultinject"
	"bufferdb/internal/storage"
)

// Exchange is the gather side of Volcano-style encapsulated parallelism
// (Graefe's exchange operator): it owns one compiled subtree per partition
// of the input and merges their outputs into the parent's demand-pull
// stream. Partition subtrees are typically span-bounded scan pipelines
// produced by plan.Parallelize — including any buffer operators the
// refinement pass inserted, which stay below the gather so every worker
// keeps its own instruction-cache-friendly run.
//
// Rows are emitted in partition order: all of partition 0, then partition
// 1, and so on. Because partitions are contiguous row ranges and the
// per-partition pipelines preserve order, the merged stream is
// byte-identical to the sequential plan for any worker count.
//
// Execution mode depends on the Context. Uninstrumented (no CPU, no
// tracer), Open spawns one goroutine per partition; each drains its subtree
// through a private child Context into a bounded channel of row chunks, so
// later partitions compute ahead under backpressure while the parent
// consumes earlier ones. On a simulated CPU the machine is single-core, so
// the partitions run inline one after another on the shared Context —
// deterministic, and directly comparable with the sequential plan.
type Exchange struct {
	parts []Operator

	// serial-mode cursor.
	cur int

	// parallel-mode state, rebuilt on every Open.
	parallel bool
	gather   Gather
	chunk    []storage.Row // chunk being served
	pos      int           // next row within chunk

	stats  *OpStats
	fault  *faultinject.Point
	opened bool
}

// exchangeChunk is the number of rows a worker accumulates before handing
// them to the gather; chunking amortizes channel synchronization the same
// way buffers amortize instruction fetch.
const exchangeChunk = 256

// NewExchange constructs a gather over per-partition subtrees. At least one
// partition is required; all partitions must produce the same schema.
func NewExchange(parts []Operator) (*Exchange, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("exec: Exchange needs at least one partition")
	}
	return &Exchange{parts: parts}, nil
}

// Open implements Operator.
func (e *Exchange) Open(ctx *Context) error {
	e.gather.Stop()
	e.stats = ctx.StatsFor(e)
	if e.stats != nil {
		e.stats.Partitions = len(e.parts)
		defer e.stats.EndOpen(ctx, e.stats.Begin(ctx))
	}
	e.cur, e.chunk, e.pos = 0, nil, 0
	e.fault = ctx.FaultPoint(e, ":next")
	e.parallel = ctx.CPU == nil && ctx.Trace == nil
	e.opened = true
	if !e.parallel {
		// Serial mode: partitions run inline, opened lazily in Next.
		return e.parts[0].Open(ctx)
	}
	e.gather.Start(ctx, len(e.parts), func(i int) string { return e.parts[i].Name() }, e.drainPartition)
	return nil
}

// drainPartition runs one partition subtree to completion, sending chunks
// until EOF, error, or shutdown.
func (e *Exchange) drainPartition(ctx *Context, i int, send func([]storage.Row) (bool, error)) error {
	part := e.parts[i]
	if err := CallOpen(ctx, part); err != nil {
		return err
	}
	defer CallClose(ctx, part)
	chunk := make([]storage.Row, 0, exchangeChunk)
	for {
		if err := ctx.Canceled(); err != nil {
			return err
		}
		row, err := part.Next(ctx)
		if err != nil {
			return err
		}
		if row == nil {
			if len(chunk) > 0 {
				_, err = send(chunk)
			}
			return err
		}
		chunk = append(chunk, row)
		if len(chunk) == exchangeChunk {
			if stopped, err := send(chunk); stopped || err != nil {
				return err
			}
			chunk = make([]storage.Row, 0, exchangeChunk)
		}
	}
}

// Next implements Operator.
func (e *Exchange) Next(ctx *Context) (out storage.Row, err error) {
	if !e.opened {
		return nil, errNotOpen(e.Name())
	}
	if e.stats != nil {
		defer e.stats.EndNext(ctx, e.stats.Begin(ctx), &out)
	}
	if err := e.fault.Fire(); err != nil {
		return nil, err
	}
	if e.parallel {
		return e.nextParallel()
	}
	return e.nextSerial(ctx)
}

// nextSerial serves the partitions one after another on the caller's
// (instrumented) context.
func (e *Exchange) nextSerial(ctx *Context) (storage.Row, error) {
	for e.cur < len(e.parts) {
		row, err := e.parts[e.cur].Next(ctx)
		if err != nil {
			return nil, err
		}
		if row != nil {
			if ctx.CPU != nil {
				// The gather's serve path costs the same handful of
				// µops as a buffer's.
				ctx.CPU.AddUops(serveUops)
			}
			return row, nil
		}
		if err := e.parts[e.cur].Close(ctx); err != nil {
			return nil, err
		}
		e.cur++
		if e.cur < len(e.parts) {
			if err := e.parts[e.cur].Open(ctx); err != nil {
				return nil, err
			}
		}
	}
	return nil, nil
}

// nextParallel serves the gathered chunks row by row.
func (e *Exchange) nextParallel() (storage.Row, error) {
	if e.pos >= len(e.chunk) {
		chunk, err := e.gather.Next()
		if len(chunk) == 0 {
			return nil, err
		}
		e.chunk, e.pos = chunk, 0
	}
	row := e.chunk[e.pos]
	e.pos++
	return row, nil
}

// serveUops is the simulated execution cost of handing one gathered tuple
// to the parent — bounds check, array load, pointer return — matching the
// buffer operator's serve path.
const serveUops = 12

// Close implements Operator.
func (e *Exchange) Close(ctx *Context) error {
	if e.parallel {
		e.gather.Stop()
	} else if e.opened && e.cur < len(e.parts) {
		// Serial mode: the current partition is still open.
		if err := e.parts[e.cur].Close(ctx); err != nil {
			e.opened = false
			return err
		}
		e.cur = len(e.parts)
	}
	e.opened = false
	return nil
}

// Schema implements Operator.
func (e *Exchange) Schema() storage.Schema { return e.parts[0].Schema() }

// Children implements Operator.
func (e *Exchange) Children() []Operator { return e.parts }

// Name implements Operator.
func (e *Exchange) Name() string { return fmt.Sprintf("Gather(%d)", len(e.parts)) }

// Module implements Operator: the gather's serve path is too small to model
// as a module (its µops are charged directly in serial mode).
func (e *Exchange) Module() *codemodel.Module { return nil }

// Blocking implements Operator: the gather streams; it never materializes a
// whole input.
func (e *Exchange) Blocking() bool { return false }
