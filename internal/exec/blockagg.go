package exec

import (
	"bufferdb/internal/expr"
	"bufferdb/internal/obsv"
	"bufferdb/internal/storage"
)

// blockRows is the block length: the tuple count the vec batch and the push
// flush already use.
const blockRows = 1024

// identity is the selection vector of a block nothing has narrowed yet.
var identity = func() (sel [blockRows]int32) {
	for i := range sel {
		sel[i] = int32(i)
	}
	return sel
}()

// BlockAggregate is scan→filter→aggregate over a memory-resident table,
// fused and run a block at a time: a block is a window of up to blockRows
// stored rows (storage.Cursor.NextRows — no row is copied) plus a selection
// vector, narrowed by the block predicate and folded into the group table
// by its block front (internal/expr/block.go). It is the one such operator;
// plan.blockAggregate puts it behind all three engines.
//
// It is an Aggregate in everything but how the input is drained: emission,
// output order, the empty-input row, the publish hook and its fault site,
// the per-group memory charge and Close are Aggregate's. Its Child is the
// SeqScan it fuses — opened for its cursor and its fault site, never pulled.
//
// A block whose kernels miss a guard is folded row by row instead, by the
// row kernels the unfused operators run: scan fault site, filter, group
// lookup, accumulators. Blocks are all or nothing, so nothing is counted
// twice. An armed fault injector selects that loop for every block, which
// keeps the scan's ":next" site firing once per row.
type BlockAggregate struct {
	Aggregate
	scan *SeqScan
	pred *expr.BlockPred // nil when the scan has no filter
	fold *expr.BlockFold
	sel  []int32
}

// NewBlockAggregate fuses an aggregation over scan. It returns nil, with no
// error, when the scan's filter, a group expression or an aggregate has no
// block kernel.
func NewBlockAggregate(scan *SeqScan, groupBy []expr.Expr, aggs []expr.AggSpec) (*BlockAggregate, error) {
	b := &BlockAggregate{scan: scan}
	if scan.Filter != nil {
		if b.pred = expr.NewBlockPred(scan.Filter); b.pred == nil {
			return nil, nil
		}
	}
	agg, err := NewAggregate(scan, groupBy, aggs, nil)
	if err != nil {
		return nil, err
	}
	if b.fold = expr.NewBlockFold(groupBy, aggs); b.fold == nil {
		return nil, nil
	}
	b.Aggregate = *agg
	b.drain = b.drainBlocks
	return b, nil
}

// Open implements Operator.
func (b *BlockAggregate) Open(ctx *Context) error {
	if err := b.Aggregate.Open(ctx); err != nil {
		return err
	}
	b.fold.Attach(b.table)
	if b.pred != nil && b.sel == nil {
		b.sel = make([]int32, blockRows)
	}
	return nil
}

// drainBlocks is the Aggregate's drain: the scan's table, a window at a time.
func (b *BlockAggregate) drainBlocks(ctx *Context) error {
	var folded, redone int
	defer func() {
		metricBlockRows("folded").Add(uint64(folded))
		metricBlockRows("redone").Add(uint64(redone))
	}()
	for {
		if err := ctx.CanceledNow(); err != nil {
			return err
		}
		rows := b.scan.cur.NextRows(blockRows)
		if len(rows) == 0 {
			return nil
		}
		var ok bool
		var err error
		if ctx.Fault == nil {
			ok, err = b.foldBlock(ctx, rows)
		}
		if !ok && err == nil {
			err = b.foldRows(ctx, rows)
		}
		if err != nil {
			return err
		}
		if ok {
			folded += len(rows)
		} else {
			redone += len(rows)
		}
	}
}

// foldBlock runs the block kernels over one window; ok is false when a
// guard missed and the window has yet to be folded.
func (b *BlockAggregate) foldBlock(ctx *Context, rows []storage.Row) (ok bool, err error) {
	sel := identity[:len(rows)]
	if b.pred != nil {
		sel = b.sel[:len(rows)] // Select narrows in place
		copy(sel, identity[:])
		if sel, ok = b.pred.Select(rows, sel); !ok {
			return false, nil
		}
	}
	groups := b.table.Len()
	ok = b.fold.Fold(rows, sel)
	// Groups are charged as the row path charges them, one by one in
	// creation order — also those of a block that missed afterwards, which
	// the row loop will then find existing.
	for ; groups < b.table.Len(); groups++ {
		if err := b.charge(ctx, b.table.Group(groups)); err != nil {
			return false, err
		}
	}
	return ok, nil
}

// foldRows runs the row kernels over one window.
func (b *BlockAggregate) foldRows(ctx *Context, rows []storage.Row) error {
	for _, row := range rows {
		if err := ctx.Canceled(); err != nil {
			return err
		}
		if err := b.scan.fault.Fire(); err != nil {
			return err
		}
		if b.scan.Filter != nil {
			match, err := expr.EvalBool(b.scan.Filter, row)
			if err != nil {
				return err
			}
			if !match {
				continue
			}
		}
		if err := b.addRow(ctx, row); err != nil {
			return err
		}
	}
	return nil
}

// metricBlockRows counts the input rows of BlockAggregate windows by how
// they were folded: "folded" by the block kernels, "redone" by the row loop
// after a guard miss (or under an armed fault injector). redone/(folded+
// redone) is a deployment's guard-miss ratio.
func metricBlockRows(how string) *obsv.Counter {
	return obsv.Default.Counter("bufferdb_block_rows_" + how + "_total")
}
