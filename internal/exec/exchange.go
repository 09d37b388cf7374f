package exec

import (
	"fmt"
	"sync"

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
	workers  []*exchangeWorker
	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	chunk []storage.Row // chunk being served
	pos   int           // next row within chunk

	stats  *OpStats
	fault  *faultinject.Point
	mem    *MemTracker // gather-side handle for releasing queued chunks
	opened bool
}

// exchangeChunk is the number of rows a worker accumulates before handing
// them to the gather; chunking amortizes channel synchronization the same
// way buffers amortize instruction fetch.
const exchangeChunk = 256

// exchangeDepth is the per-worker channel capacity in chunks: enough that
// workers rarely stall on the consumer, small enough to bound memory.
const exchangeDepth = 8

// exchangeWorker drains one partition subtree into its channel.
type exchangeWorker struct {
	out chan []storage.Row
	err error // read by the gather only after out is closed
}

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
	e.shutdown()
	e.stats = ctx.StatsFor(e)
	if e.stats != nil {
		e.stats.Partitions = len(e.parts)
		defer e.stats.EndOpen(ctx, e.stats.Begin(ctx))
	}
	e.cur, e.chunk, e.pos = 0, nil, 0
	e.fault = ctx.FaultPoint(e, ":next")
	e.mem = ctx.Mem
	e.parallel = ctx.CPU == nil && ctx.Trace == nil
	e.opened = true
	if !e.parallel {
		// Serial mode: partitions run inline, opened lazily in Next.
		if len(e.parts) > 0 {
			return e.parts[0].Open(ctx)
		}
		return nil
	}
	e.stop = make(chan struct{})
	e.stopOnce = sync.Once{}
	e.workers = make([]*exchangeWorker, len(e.parts))
	for i, part := range e.parts {
		w := &exchangeWorker{out: make(chan []storage.Row, exchangeDepth)}
		e.workers[i] = w
		e.wg.Add(1)
		// Each worker owns a private Context: its own branch-outcome
		// stream and cancellation tick, sharing only the read-only
		// catalog, the caller's cancellation context, the (mutex-guarded)
		// memory tracker and fault injector, and (if enabled) the stats
		// collector, whose registration path is mutex-guarded and whose
		// per-operator slots are each written by one worker only.
		wctx := &Context{Catalog: ctx.Catalog, Ctx: ctx.Ctx, Stats: ctx.Stats, Mem: ctx.Mem, Fault: ctx.Fault}
		go func(part Operator, w *exchangeWorker) {
			defer e.wg.Done()
			defer close(w.out)
			// Contain worker panics: the recover runs before close(w.out)
			// (defers are LIFO), so the gather always observes w.err after
			// the channel closes.
			defer func() {
				if r := recover(); r != nil {
					w.err = PanicError(part.Name(), r)
				}
			}()
			w.err = e.drainPartition(wctx, part, w.out)
		}(part, w)
	}
	return nil
}

// drainPartition runs one partition subtree to completion, sending chunks
// until EOF, error, or shutdown.
func (e *Exchange) drainPartition(ctx *Context, part Operator, out chan<- []storage.Row) error {
	if err := CallOpen(ctx, part); err != nil {
		return err
	}
	defer CallClose(ctx, part)
	chunk := make([]storage.Row, 0, exchangeChunk)
	// Each queued chunk is charged against the query's budget before the
	// send and released by the gather (or the shutdown drain) on receive, so
	// tracked bytes bound the bytes actually parked in channels.
	flush := func() (stopped bool, err error) {
		if len(chunk) == 0 {
			return false, nil
		}
		bytes := RowsBytes(chunk)
		if err := ctx.GrowMem(bytes); err != nil {
			return false, err
		}
		select {
		case out <- chunk:
			chunk = make([]storage.Row, 0, exchangeChunk)
			return false, nil
		case <-e.stop:
			ctx.ShrinkMem(bytes) // never handed off; return the charge
			return true, nil
		}
	}
	for {
		if err := ctx.Canceled(); err != nil {
			return err
		}
		row, err := part.Next(ctx)
		if err != nil {
			return err
		}
		if row == nil {
			_, err := flush()
			return err
		}
		chunk = append(chunk, row)
		if len(chunk) == exchangeChunk {
			if stopped, err := flush(); stopped || err != nil {
				return err
			}
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

// nextParallel serves chunks from the workers in partition order.
func (e *Exchange) nextParallel() (storage.Row, error) {
	for {
		if e.pos < len(e.chunk) {
			row := e.chunk[e.pos]
			e.pos++
			return row, nil
		}
		if e.cur >= len(e.workers) {
			return nil, nil
		}
		w := e.workers[e.cur]
		chunk, ok := <-w.out
		if ok {
			e.mem.Shrink(RowsBytes(chunk))
			e.chunk, e.pos = chunk, 0
			continue
		}
		// Partition drained; surface its error, if any, before advancing.
		if w.err != nil {
			return nil, w.err
		}
		e.cur++
	}
}

// serveUops is the simulated execution cost of handing one gathered tuple
// to the parent — bounds check, array load, pointer return — matching the
// buffer operator's serve path.
const serveUops = 12

// shutdown stops any running workers and waits for them to exit.
func (e *Exchange) shutdown() {
	if e.workers == nil {
		return
	}
	e.stopOnce.Do(func() { close(e.stop) })
	// Drain so workers blocked on a full channel observe the stop,
	// releasing the budget charge of every chunk still queued.
	for _, w := range e.workers {
		for chunk := range w.out {
			e.mem.Shrink(RowsBytes(chunk))
		}
	}
	e.wg.Wait()
	e.workers = nil
}

// Close implements Operator.
func (e *Exchange) Close(ctx *Context) error {
	if e.parallel {
		e.shutdown()
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
