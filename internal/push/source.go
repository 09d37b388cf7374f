package push

import (
	"fmt"

	"bufferdb/internal/exec"
	"bufferdb/internal/expr"
	"bufferdb/internal/storage"
)

// scanSource is the fused heap scan: one loop over the table with the
// filter folded in, mirroring exec.SeqScan's per-row
// behavior — data-cache read per placed tuple, cancellation poll per input
// row — with the instruction footprint amortized through the module-bit
// batch instead of replayed per tuple.
type scanSource struct {
	table  *storage.Table
	filter expr.Expr
	cols   []bool // column mask of a paged scan (see exec.SeqScan)
	modbuf

	stats  *exec.OpStats
	place  exec.TablePlacement
	placed bool
}

func (s *scanSource) open(ctx *exec.Context) error {
	s.stats = ctx.StatsFor(s)
	s.place, s.placed = ctx.Placements[s.table]
	return nil
}

func (s *scanSource) run(ctx *exec.Context, emit emitFn) error {
	cur, err := s.table.Scan(s.cols)
	if err != nil {
		return err
	}
	for {
		row, err := cur.Next()
		if err != nil {
			return err
		}
		if row == nil {
			return nil
		}
		if err := ctx.Canceled(); err != nil {
			return err
		}
		if s.placed {
			ctx.Read(s.place.Base+uint64(cur.Rid())*uint64(s.place.RowBytes), s.place.RowBytes)
		}
		match := true
		if s.filter != nil {
			match, err = expr.EvalBool(s.filter, row)
			if err != nil {
				return err
			}
		}
		s.add(ctx, match)
		if !match {
			continue
		}
		if s.stats != nil {
			s.stats.Calls++
			s.stats.Rows++
		}
		if err := emit(ctx, cur.Keep()); err != nil {
			return err
		}
	}
}

func (s *scanSource) close(*exec.Context) error { return nil }

// Name implements exec.Named.
func (s *scanSource) Name() string {
	if s.filter != nil {
		return fmt.Sprintf("SeqScan(%s, filter=%s)", s.table.Name(), s.filter.String())
	}
	return fmt.Sprintf("SeqScan(%s)", s.table.Name())
}

// opSource adapts a Volcano subtree into a pipe: the push engine's
// equivalent of vec.FromVolcano. The subtree keeps its own per-tuple
// instrumentation; the adapter itself replays the buffer module per
// forwarded row (batched), because semantically it is a buffer refill loop.
type opSource struct {
	op exec.Operator
	modbuf

	stats *exec.OpStats
}

func (s *opSource) open(ctx *exec.Context) error {
	s.stats = ctx.StatsFor(s)
	return s.op.Open(ctx)
}

func (s *opSource) run(ctx *exec.Context, emit emitFn) error {
	for {
		if err := ctx.Canceled(); err != nil {
			return err
		}
		row, err := s.op.Next(ctx)
		if err != nil {
			return err
		}
		if row == nil {
			return nil
		}
		s.add(ctx, true)
		if s.stats != nil {
			s.stats.Calls++
			s.stats.Rows++
		}
		if err := emit(ctx, row); err != nil {
			return err
		}
	}
}

func (s *opSource) close(ctx *exec.Context) error { return s.op.Close(ctx) }

// Name implements exec.Named.
func (s *opSource) Name() string { return "Pull(" + s.op.Name() + ")" }

// producer is a breaker sink whose materialized output feeds a downstream
// pipe (the aggregation sink).
type producer interface {
	sink
	produce(ctx *exec.Context, emit emitFn) error
}

// pipeSource replays an upstream breaker's materialized output into the
// next pipe.
type pipeSource struct {
	up producer
}

func (s *pipeSource) open(*exec.Context) error { return nil }

func (s *pipeSource) run(ctx *exec.Context, emit emitFn) error {
	return s.up.produce(ctx, emit)
}

func (s *pipeSource) close(*exec.Context) error { return nil }
