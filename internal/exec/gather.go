package exec

import (
	"sync"

	"bufferdb/internal/storage"
)

// exchangeDepth is the per-worker channel capacity in chunks: enough that
// workers rarely stall on the consumer, small enough to bound memory.
const exchangeDepth = 8

// Gather is the goroutine lifecycle of a parallel exchange, the core under
// exec.Exchange and vec.Exchange: one worker per partition, each draining
// its subtree on a private Context into a bounded channel of row chunks
// that the consumer receives in partition order. The operators keep what
// differs between them — how a partition is drained into chunks, whether
// the parent is served rows or batches, and the serial path they take on a
// simulated CPU.
//
// Every queued chunk is charged against the query's budget before the send
// and released on receive (or by Stop's drain), so tracked bytes bound the
// bytes actually parked in channels. A Gather belongs to the goroutine that
// drives its operator: Start, Next and Stop are not concurrent.
type Gather struct {
	workers []*gatherWorker
	cur     int
	stop    chan struct{}
	wg      sync.WaitGroup
	mem     *MemTracker // consumer-side handle for releasing queued chunks
}

// gatherWorker is one partition's channel and outcome.
type gatherWorker struct {
	out chan []storage.Row
	err error // read by the consumer only after out is closed
}

// Start spawns one worker per partition. drain runs partition i to
// completion on the worker's Context, passing each chunk — a slice it will
// not touch again — to send; once send reports stopped the gather is
// shutting down and drain returns. name renders a partition for the error
// a contained panic becomes.
func (g *Gather) Start(ctx *Context, parts int, name func(i int) string,
	drain func(wctx *Context, i int, send func(chunk []storage.Row) (stopped bool, err error)) error) {
	g.Stop()
	g.mem = ctx.Mem
	g.cur = 0
	g.stop = make(chan struct{})
	g.workers = make([]*gatherWorker, parts)
	for i := range g.workers {
		w := &gatherWorker{out: make(chan []storage.Row, exchangeDepth)}
		g.workers[i] = w
		// Each worker owns a private Context: its own branch-outcome
		// stream and cancellation tick, sharing only the read-only
		// catalog, the caller's cancellation context, the (mutex-guarded)
		// memory tracker and fault injector, and (if enabled) the stats
		// collector, whose registration path is mutex-guarded and whose
		// per-operator slots are each written by one worker only.
		wctx := &Context{Catalog: ctx.Catalog, Ctx: ctx.Ctx, Stats: ctx.Stats, Mem: ctx.Mem, Fault: ctx.Fault}
		send := func(chunk []storage.Row) (bool, error) {
			bytes := RowsBytes(chunk)
			if err := wctx.GrowMem(bytes); err != nil {
				return false, err
			}
			select {
			case w.out <- chunk:
				return false, nil
			case <-g.stop:
				wctx.ShrinkMem(bytes) // never handed off; return the charge
				return true, nil
			}
		}
		g.wg.Add(1)
		go func(i int) {
			defer g.wg.Done()
			defer close(w.out)
			// Contain worker panics: the recover runs before close(w.out)
			// (defers are LIFO), so the consumer always observes w.err
			// after the channel closes.
			defer func() {
				if r := recover(); r != nil {
					w.err = PanicError(name(i), r)
				}
			}()
			w.err = drain(wctx, i, send)
		}(i)
	}
}

// Next returns the next chunk in partition order — all of partition 0, then
// partition 1, and so on — and nil at the end. A partition's error
// surfaces after the chunks it sent before failing.
func (g *Gather) Next() ([]storage.Row, error) {
	for g.cur < len(g.workers) {
		w := g.workers[g.cur]
		if chunk, ok := <-w.out; ok {
			g.mem.Shrink(RowsBytes(chunk))
			return chunk, nil
		}
		if w.err != nil {
			return nil, w.err
		}
		g.cur++
	}
	return nil, nil
}

// Stop stops any running workers and waits for them to exit; a Gather that
// was never started, or is already stopped, is left alone.
func (g *Gather) Stop() {
	if g.workers == nil {
		return
	}
	close(g.stop)
	// Drain so workers blocked on a full channel observe the stop,
	// releasing the budget charge of every chunk still queued.
	for _, w := range g.workers {
		for chunk := range w.out {
			g.mem.Shrink(RowsBytes(chunk))
		}
	}
	g.wg.Wait()
	g.workers = nil
}
