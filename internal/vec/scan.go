package vec

import (
	"fmt"

	"bufferdb/internal/codemodel"
	"bufferdb/internal/exec"
	"bufferdb/internal/expr"
	"bufferdb/internal/storage"
)

// SeqScan is the block-oriented heap scan. Each NextBatch runs the scan
// loop until the output vector is full or the heap is exhausted — with a
// selective predicate a batch therefore covers more than batch-size input
// tuples, exactly like a buffer refill over a filtering child. The scan and
// qualification µops are paid per input tuple; the scan code is fetched
// once per batch.
type SeqScan struct {
	Table  *storage.Table
	Filter expr.Expr // optional
	Cols   []bool    // optional: column mask of a paged scan (see exec.SeqScan)

	module *codemodel.Module
	stats  *exec.OpStats

	out    batchBuf
	bits   []uint64
	size   int
	cur    storage.Cursor
	place  exec.TablePlacement
	placed bool
	opened bool
}

// NewSeqScan constructs the scan. module may be nil (uninstrumented);
// size 0 selects DefaultBatchSize.
func NewSeqScan(table *storage.Table, filter expr.Expr, module *codemodel.Module, size int) *SeqScan {
	return &SeqScan{Table: table, Filter: filter, module: module, size: size}
}

// Open implements Operator.
func (s *SeqScan) Open(ctx *exec.Context) error {
	s.stats = ctx.StatsFor(s)
	if s.stats != nil {
		defer s.stats.EndOpen(ctx, s.stats.Begin(ctx))
	}
	s.out.open(ctx, s.size)
	cur, err := s.Table.Scan(s.Cols)
	if err != nil {
		return err
	}
	s.cur = cur
	s.place, s.placed = ctx.Placements[s.Table]
	s.opened = true
	return nil
}

// NextBatch implements Operator.
func (s *SeqScan) NextBatch(ctx *exec.Context) (out Batch, err error) {
	if !s.opened {
		return nil, errNotOpen(s.Name())
	}
	if s.stats != nil {
		defer s.stats.EndBatch(ctx, s.stats.Begin(ctx), (*[]storage.Row)(&out))
	}
	if err := ctx.CanceledNow(); err != nil {
		return nil, err
	}
	s.out.reset()
	s.bits = s.bits[:0]
	for !s.out.full() {
		row, err := s.cur.Next()
		if err != nil {
			return nil, err
		}
		if row == nil {
			break
		}
		if s.placed {
			ctx.Read(s.place.Base+uint64(s.cur.Rid())*uint64(s.place.RowBytes), s.place.RowBytes)
		}
		match := true
		if s.Filter != nil {
			match, err = expr.EvalBool(s.Filter, row)
			if err != nil {
				return nil, err
			}
		}
		s.bits = append(s.bits, ctx.DataBits(match))
		if match {
			s.out.append(ctx, s.cur.Keep())
		}
	}
	ctx.ExecModuleBatch(s.module, s.bits)
	return s.out.take(), nil
}

// Close implements Operator.
func (s *SeqScan) Close(*exec.Context) error {
	s.opened = false
	s.cur = storage.Cursor{}
	return nil
}

// Schema implements Operator.
func (s *SeqScan) Schema() storage.Schema { return s.Table.Schema() }

// Children implements Operator.
func (s *SeqScan) Children() []Operator { return nil }

// Name implements Operator.
func (s *SeqScan) Name() string {
	if s.Filter != nil {
		return fmt.Sprintf("VecSeqScan(%s, filter=%s)", s.Table.Name(), s.Filter.String())
	}
	return fmt.Sprintf("VecSeqScan(%s)", s.Table.Name())
}
