package vec

import (
	"fmt"
	"sync"

	"bufferdb/internal/exec"
	"bufferdb/internal/faultinject"
	"bufferdb/internal/storage"
)

// Exchange is the block-oriented gather: the batch-engine counterpart of
// exec.Exchange. It owns one batch subtree per partition and merges their
// batches into the parent's stream in partition order, so the merged output
// is byte-identical to the sequential plan for any worker count.
//
// Like exec.Exchange the execution mode depends on the Context: on a
// simulated CPU (or with a tracer attached) the single-core machine runs
// the partitions inline one after another; uninstrumented, Open spawns one
// goroutine per partition draining into a bounded channel. Batch slices are
// reused by their producer across NextBatch calls, so workers copy each
// batch before handing it across the channel.
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

	stats  *exec.OpStats
	fault  *faultinject.Point
	mem    *exec.MemTracker // gather-side handle for releasing queued batches
	opened bool
}

// exchangeDepth is the per-worker channel capacity in batches.
const exchangeDepth = 8

// exchangeWorker drains one partition subtree into its channel.
type exchangeWorker struct {
	out chan Batch
	err error // read by the gather only after out is closed
}

// NewExchange constructs a gather over per-partition batch subtrees. At
// least one partition is required; all must produce the same schema.
func NewExchange(parts []Operator) (*Exchange, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("vec: Exchange needs at least one partition")
	}
	return &Exchange{parts: parts}, nil
}

// Open implements Operator.
func (e *Exchange) Open(ctx *exec.Context) error {
	e.shutdown()
	e.stats = ctx.StatsFor(e)
	if e.stats != nil {
		e.stats.Partitions = len(e.parts)
		defer e.stats.EndOpen(ctx, e.stats.Begin(ctx))
	}
	e.cur = 0
	e.fault = ctx.FaultPoint(e, ":next")
	e.mem = ctx.Mem
	e.parallel = ctx.CPU == nil && ctx.Trace == nil
	e.opened = true
	if !e.parallel {
		return e.parts[0].Open(ctx)
	}
	e.stop = make(chan struct{})
	e.stopOnce = sync.Once{}
	e.workers = make([]*exchangeWorker, len(e.parts))
	for i, part := range e.parts {
		w := &exchangeWorker{out: make(chan Batch, exchangeDepth)}
		e.workers[i] = w
		e.wg.Add(1)
		// Workers share the stats collector: registration is mutex-guarded
		// and each partition operator's slot is written by its worker only.
		// The memory tracker and fault injector are likewise safe to share.
		wctx := &exec.Context{Catalog: ctx.Catalog, Ctx: ctx.Ctx, Stats: ctx.Stats, Mem: ctx.Mem, Fault: ctx.Fault}
		go func(part Operator, w *exchangeWorker) {
			defer e.wg.Done()
			defer close(w.out)
			// Contain worker panics: the recover runs before close(w.out)
			// (defers are LIFO), so the gather always observes w.err after
			// the channel closes.
			defer func() {
				if r := recover(); r != nil {
					w.err = exec.PanicError(part.Name(), r)
				}
			}()
			w.err = e.drainPartition(wctx, part, w.out)
		}(part, w)
	}
	return nil
}

// drainPartition runs one partition subtree to completion, copying and
// sending each batch until EOF, error, or shutdown.
func (e *Exchange) drainPartition(ctx *exec.Context, part Operator, out chan<- Batch) error {
	if err := CallOpen(ctx, part); err != nil {
		return err
	}
	defer CallClose(ctx, part)
	for {
		if err := ctx.CanceledNow(); err != nil {
			return err
		}
		batch, err := part.NextBatch(ctx)
		if err != nil {
			return err
		}
		if len(batch) == 0 {
			return nil
		}
		// The producer reuses the batch slice; copy before crossing the
		// channel (row references are stable, the slice is not). Each
		// queued batch is charged against the query's budget before the
		// send and released by the gather (or the shutdown drain).
		owned := make(Batch, len(batch))
		copy(owned, batch)
		bytes := exec.RowsBytes(owned)
		if err := ctx.GrowMem(bytes); err != nil {
			return err
		}
		select {
		case out <- owned:
		case <-e.stop:
			ctx.ShrinkMem(bytes) // never handed off; return the charge
			return nil
		}
	}
}

// NextBatch implements Operator.
func (e *Exchange) NextBatch(ctx *exec.Context) (out Batch, err error) {
	if !e.opened {
		return nil, errNotOpen(e.Name())
	}
	if e.stats != nil {
		defer e.stats.EndBatch(ctx, e.stats.Begin(ctx), (*[]storage.Row)(&out))
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
func (e *Exchange) nextSerial(ctx *exec.Context) (Batch, error) {
	for e.cur < len(e.parts) {
		batch, err := e.parts[e.cur].NextBatch(ctx)
		if err != nil {
			return nil, err
		}
		if len(batch) > 0 {
			if ctx.CPU != nil {
				// Handing a gathered batch to the parent costs the same
				// per-tuple serve path as the buffer operator's.
				ctx.CPU.AddUops(uint64(len(batch)) * serveUops)
			}
			return batch, nil
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

// nextParallel serves batches from the workers in partition order.
func (e *Exchange) nextParallel() (Batch, error) {
	for e.cur < len(e.workers) {
		w := e.workers[e.cur]
		batch, ok := <-w.out
		if ok {
			e.mem.Shrink(exec.RowsBytes(batch))
			return batch, nil
		}
		if w.err != nil {
			return nil, w.err
		}
		e.cur++
	}
	return nil, nil
}

// shutdown stops any running workers and waits for them to exit.
func (e *Exchange) shutdown() {
	if e.workers == nil {
		return
	}
	e.stopOnce.Do(func() { close(e.stop) })
	// Drain so workers blocked on a full channel observe the stop,
	// releasing the budget charge of every batch still queued.
	for _, w := range e.workers {
		for batch := range w.out {
			e.mem.Shrink(exec.RowsBytes(batch))
		}
	}
	e.wg.Wait()
	e.workers = nil
}

// Close implements Operator.
func (e *Exchange) Close(ctx *exec.Context) error {
	if e.parallel {
		e.shutdown()
	} else if e.opened && e.cur < len(e.parts) {
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
func (e *Exchange) Name() string { return fmt.Sprintf("VecGather(%d)", len(e.parts)) }

var _ Operator = (*Exchange)(nil)
