package exec

import (
	"fmt"
	"sync"

	"bufferdb/internal/faultinject"
	"bufferdb/internal/storage"
)

// Exchange is the coordinator's gather (Graefe's exchange operator): it owns
// one subtree per partition of the input — one scatter leg per shard — and
// merges their outputs into the parent's demand-pull stream.
//
// Rows are emitted in partition order: all of partition 0, then partition
// 1, and so on. Open spawns one worker goroutine per partition; each drains
// its subtree through a private Context into a bounded channel of row
// chunks, so later partitions compute ahead under backpressure while the
// parent consumes earlier ones. A partition's error surfaces after the
// chunks it sent before failing; a worker's panic is contained and becomes
// that error.
//
// Every queued chunk is charged against the query's budget before the send
// and released on receive (or by Close's drain), so tracked bytes bound the
// bytes actually parked in channels.
type Exchange struct {
	parts []Operator

	// Rebuilt on every Open.
	workers []*exchangeWorker
	cur     int // partition being served
	stop    chan struct{}
	wg      sync.WaitGroup
	mem     *MemTracker   // consumer-side handle for releasing queued chunks
	chunk   []storage.Row // chunk being served
	pos     int           // next row within chunk

	stats  *OpStats
	fault  *faultinject.Point
	opened bool
}

// exchangeWorker is one partition's channel and outcome.
type exchangeWorker struct {
	out chan []storage.Row
	err error // read by the consumer only after out is closed
}

// exchangeChunk is the number of rows a worker accumulates before handing
// them to the gather; chunking amortizes channel synchronization the same
// way buffers amortize instruction fetch.
const exchangeChunk = 256

// exchangeDepth is the per-worker channel capacity in chunks: enough that
// workers rarely stall on the consumer, small enough to bound memory.
const exchangeDepth = 8

// NewExchange constructs a gather over per-partition subtrees. At least one
// partition is required; all partitions must produce the same schema.
func NewExchange(parts []Operator) (*Exchange, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("exec: Exchange needs at least one partition")
	}
	return &Exchange{parts: parts}, nil
}

// Open implements Operator: it starts one worker per partition.
func (e *Exchange) Open(ctx *Context) error {
	e.stopWorkers()
	e.stats = ctx.StatsFor(e)
	if e.stats != nil {
		defer e.stats.EndOpen(ctx, e.stats.Begin(ctx))
	}
	e.cur, e.chunk, e.pos = 0, nil, 0
	e.fault = ctx.FaultPoint(e, ":next")
	e.mem = ctx.Mem
	e.stop = make(chan struct{})
	e.workers = make([]*exchangeWorker, len(e.parts))
	for i := range e.workers {
		w := &exchangeWorker{out: make(chan []storage.Row, exchangeDepth)}
		e.workers[i] = w
		// Each worker owns a private Context: its own cancellation tick,
		// sharing only the read-only catalog, the caller's cancellation
		// context, the (mutex-guarded) memory tracker and fault injector,
		// and (if enabled) the stats collector, whose registration path is
		// mutex-guarded and whose per-operator slots are each written by
		// one worker only.
		wctx := &Context{Catalog: ctx.Catalog, Ctx: ctx.Ctx, Stats: ctx.Stats, Mem: ctx.Mem, Fault: ctx.Fault}
		e.wg.Add(1)
		go func(part Operator, stop <-chan struct{}) {
			defer e.wg.Done()
			defer close(w.out)
			// Contain worker panics: the recover runs before close(w.out)
			// (defers are LIFO), so the consumer always observes w.err
			// after the channel closes.
			defer func() {
				if r := recover(); r != nil {
					w.err = PanicError(part.Name(), r)
				}
			}()
			w.err = drainPartition(wctx, part, w.out, stop)
		}(e.parts[i], e.stop)
	}
	e.opened = true
	return nil
}

// drainPartition runs one partition subtree to completion, sending chunks
// until EOF, error, or stop.
func drainPartition(ctx *Context, part Operator, out chan<- []storage.Row, stop <-chan struct{}) error {
	if err := CallOpen(ctx, part); err != nil {
		return err
	}
	defer CallClose(ctx, part)
	// send hands over a chunk the worker will not touch again, charging it
	// first; stopped reports that the gather is shutting down.
	send := func(chunk []storage.Row) (stopped bool, err error) {
		bytes := RowsBytes(chunk)
		if err := ctx.GrowMem(bytes); err != nil {
			return false, err
		}
		select {
		case out <- chunk:
			return false, nil
		case <-stop:
			ctx.ShrinkMem(bytes) // never handed off; return the charge
			return true, nil
		}
	}
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

// Next implements Operator: it serves the gathered chunks row by row, in
// partition order.
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
	for e.pos >= len(e.chunk) {
		if e.cur == len(e.workers) {
			return nil, nil
		}
		w := e.workers[e.cur]
		chunk, ok := <-w.out
		if !ok {
			if w.err != nil {
				return nil, w.err
			}
			e.cur++
			continue
		}
		e.mem.Shrink(RowsBytes(chunk))
		e.chunk, e.pos = chunk, 0
	}
	row := e.chunk[e.pos]
	e.pos++
	return row, nil
}

// Close implements Operator.
func (e *Exchange) Close(*Context) error {
	e.stopWorkers()
	e.opened = false
	return nil
}

// stopWorkers stops any running workers and waits for them to exit; an
// Exchange that was never opened, or is already closed, is left alone.
func (e *Exchange) stopWorkers() {
	if e.workers == nil {
		return
	}
	close(e.stop)
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

// Schema implements Operator.
func (e *Exchange) Schema() storage.Schema { return e.parts[0].Schema() }

// Children implements Operator.
func (e *Exchange) Children() []Operator { return e.parts }

// Name implements Operator.
func (e *Exchange) Name() string { return fmt.Sprintf("Gather(%d)", len(e.parts)) }
