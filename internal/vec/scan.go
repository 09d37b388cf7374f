package vec

import (
	"fmt"

	"bufferdb/internal/codemodel"
	"bufferdb/internal/exec"
	"bufferdb/internal/expr"
	"bufferdb/internal/faultinject"
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
	Filter expr.Expr     // optional
	Span   *storage.Span // optional: scan only [Start, End)

	module *codemodel.Module
	stats  *exec.OpStats
	fault  *faultinject.Point

	out    batchBuf
	bits   []uint64
	size   int
	pos    int
	end    int
	place  exec.TablePlacement
	placed bool
	opened bool

	// it streams rows when the table is disk-backed (paged); memory tables
	// keep the zero-overhead direct slice access path.
	it storage.RowIterator
}

// NewSeqScan constructs the scan. module may be nil (uninstrumented);
// size 0 selects DefaultBatchSize.
func NewSeqScan(table *storage.Table, filter expr.Expr, module *codemodel.Module, size int) *SeqScan {
	return &SeqScan{Table: table, Filter: filter, module: module, size: size}
}

// NewSeqScanSpan constructs a scan over one heap partition. A nil span
// scans the whole table.
func NewSeqScanSpan(table *storage.Table, filter expr.Expr, module *codemodel.Module, size int, span *storage.Span) *SeqScan {
	s := NewSeqScan(table, filter, module, size)
	s.Span = span
	return s
}

// Open implements Operator.
func (s *SeqScan) Open(ctx *exec.Context) error {
	s.stats = ctx.StatsFor(s)
	if s.stats != nil {
		defer s.stats.EndOpen(ctx, s.stats.Begin(ctx))
	}
	s.fault = ctx.FaultPoint(s, ":next")
	s.out.open(ctx, s.size)
	s.pos, s.end = 0, s.Table.NumRows()
	if s.Span != nil {
		s.pos, s.end = s.Span.Start, s.Span.End
	}
	if s.Table.Paged() {
		it, err := s.Table.Iterate(storage.Span{Start: s.pos, End: s.end})
		if err != nil {
			return err
		}
		s.it = it
	}
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
	if err := s.fault.Fire(); err != nil {
		return nil, err
	}
	s.out.reset()
	s.bits = s.bits[:0]
	for s.pos < s.end && !s.out.full() {
		var (
			rid int
			row storage.Row
		)
		if s.it != nil {
			var ok bool
			rid, row, ok, err = s.it.Next()
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
			s.pos = rid + 1
		} else {
			rid = s.pos
			s.pos++
			row = s.Table.Row(rid)
		}
		if s.placed {
			ctx.Read(s.place.Base+uint64(rid)*uint64(s.place.RowBytes), s.place.RowBytes)
		}
		match := true
		if s.Filter != nil {
			var err error
			match, err = expr.EvalBool(s.Filter, row)
			if err != nil {
				return nil, err
			}
		}
		s.bits = append(s.bits, ctx.DataBits(match))
		if match {
			s.out.append(ctx, row)
		}
	}
	ctx.ExecModuleBatch(s.module, s.bits)
	return s.out.take(), nil
}

// Close implements Operator.
func (s *SeqScan) Close(*exec.Context) error {
	s.opened = false
	if s.it != nil {
		err := s.it.Close()
		s.it = nil
		return err
	}
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
