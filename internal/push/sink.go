package push

import (
	"fmt"

	"bufferdb/internal/exec"
	"bufferdb/internal/expr"
	"bufferdb/internal/storage"
)

// collectSink materializes the final pipe's output — the root breaker.
// Rows are written to a simulated arena; the Pipeline reads them back, one
// data-cache read per served row.
type collectSink struct {
	rows  []storage.Row
	addrs []uint64
	arena *exec.Arena
}

func (c *collectSink) open(ctx *exec.Context) error {
	c.rows, c.addrs = nil, nil
	c.arena = exec.NewArena(ctx.CPU)
	return nil
}

func (c *collectSink) consume(ctx *exec.Context, row storage.Row) error {
	addr := c.arena.Alloc(row.ByteSize())
	ctx.Write(addr, row.ByteSize())
	c.rows = append(c.rows, row)
	c.addrs = append(c.addrs, addr)
	return nil
}

func (c *collectSink) finish(*exec.Context) error { return nil }

func (c *collectSink) close(*exec.Context) { c.rows, c.addrs = nil, nil }

// buildSink is the hash-join build breaker: it is pushed the build side's
// rows and inserts them into the exec.JoinTable the probe stage reads.
type buildSink struct {
	innerKey expr.Expr
	modbuf

	stats *exec.OpStats
	table exec.JoinTable
}

func (b *buildSink) open(ctx *exec.Context) error {
	b.stats = ctx.StatsFor(b)
	b.table.Open(ctx, b)
	return nil
}

func (b *buildSink) consume(ctx *exec.Context, row storage.Row) error {
	if b.table.Adopted() {
		// Reuse-cache hit: the build pipe still runs, over the empty
		// spliced source; should it yield a row after all, end it here.
		return errStop
	}
	if err := ctx.Canceled(); err != nil {
		return err
	}
	if b.stats != nil {
		b.stats.Calls++
	}
	key, ok, err := exec.JoinKey(b.innerKey, row)
	if err != nil {
		return err
	}
	b.add(ctx, ok)
	if !ok {
		return nil
	}
	if err := b.table.Insert(ctx, key, row); err != nil {
		return err
	}
	if b.stats != nil {
		b.stats.Rows++
	}
	return nil
}

func (b *buildSink) finish(*exec.Context) error { return b.table.Finish() }

func (b *buildSink) close(ctx *exec.Context) { b.table.Close(ctx) }

// Name implements exec.Named.
func (b *buildSink) Name() string { return fmt.Sprintf("HashBuild(%s)", b.innerKey.String()) }

// aggSink is the aggregation breaker: it folds the rows it is pushed into
// an exec.AggState and, as a producer, streams the grouped results into the
// downstream pipe.
type aggSink struct {
	exec.AggState
	modbuf

	stats *exec.OpStats
}

func (a *aggSink) open(ctx *exec.Context) error {
	a.stats = ctx.StatsFor(a)
	a.AggState.Open(ctx, a)
	return nil
}

func (a *aggSink) consume(ctx *exec.Context, row storage.Row) error {
	if err := ctx.Canceled(); err != nil {
		return err
	}
	if a.stats != nil {
		a.stats.Calls++
	}
	isNew, err := a.Fold(ctx, row)
	if err != nil {
		return err
	}
	a.add(ctx, isNew)
	return nil
}

func (a *aggSink) finish(*exec.Context) error { return a.Finish() }

// produce implements producer.
func (a *aggSink) produce(ctx *exec.Context, emit emitFn) error {
	for i := 0; i < a.Outputs(); i++ {
		if err := ctx.Canceled(); err != nil {
			return err
		}
		row, err := a.Output(i)
		if err != nil {
			return err
		}
		a.add(ctx, true)
		if a.stats != nil {
			a.stats.Rows++
		}
		if err := emit(ctx, row); err != nil {
			return err
		}
	}
	return nil
}

func (a *aggSink) close(ctx *exec.Context) { a.AggState.Close(ctx) }

// Name implements exec.Named.
func (a *aggSink) Name() string { return a.AggState.Name("Aggregate") }
