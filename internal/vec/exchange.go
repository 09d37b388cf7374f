package vec

import (
	"fmt"

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
// the partitions inline one after another; uninstrumented, the partitions
// run on exec.Gather's workers. Batch slices are reused by their producer
// across NextBatch calls, so workers copy each batch before handing it
// across the channel.
type Exchange struct {
	parts []Operator

	// serial-mode cursor.
	cur int

	// parallel-mode state, rebuilt on every Open.
	parallel bool
	gather   exec.Gather

	stats  *exec.OpStats
	fault  *faultinject.Point
	opened bool
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
	e.gather.Stop()
	e.stats = ctx.StatsFor(e)
	if e.stats != nil {
		e.stats.Partitions = len(e.parts)
		defer e.stats.EndOpen(ctx, e.stats.Begin(ctx))
	}
	e.cur = 0
	e.fault = ctx.FaultPoint(e, ":next")
	e.parallel = ctx.CPU == nil && ctx.Trace == nil
	e.opened = true
	if !e.parallel {
		return e.parts[0].Open(ctx)
	}
	e.gather.Start(ctx, len(e.parts), func(i int) string { return e.parts[i].Name() }, e.drainPartition)
	return nil
}

// drainPartition runs one partition subtree to completion, copying and
// sending each batch until EOF, error, or shutdown.
func (e *Exchange) drainPartition(ctx *exec.Context, i int, send func([]storage.Row) (bool, error)) error {
	part := e.parts[i]
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
		// channel (row references are stable, the slice is not).
		owned := make([]storage.Row, len(batch))
		copy(owned, batch)
		if stopped, err := send(owned); stopped || err != nil {
			return err
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
		return e.gather.Next()
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

// Close implements Operator.
func (e *Exchange) Close(ctx *exec.Context) error {
	if e.parallel {
		e.gather.Stop()
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
