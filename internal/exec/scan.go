package exec

import (
	"fmt"

	"bufferdb/internal/btree"
	"bufferdb/internal/codemodel"
	"bufferdb/internal/expr"
	"bufferdb/internal/faultinject"
	"bufferdb/internal/storage"
)

// SeqScan is the heap scan operator. With a Filter it evaluates the
// predicate per heap tuple and returns only satisfying rows; the scan and
// qualification code runs once per *input* tuple, exactly like PostgreSQL's
// ExecScan loop — which is why a selective predicate amortizes instruction
// work per output tuple (paper §7.3).
type SeqScan struct {
	Table  *storage.Table
	Filter expr.Expr // optional
	// Cols is the column mask of a paged scan: Cols[i] reports whether the
	// filter or any ancestor reads column i; nil means every column.
	Cols []bool

	module *codemodel.Module
	label  byte
	stats  *OpStats
	fault  *faultinject.Point

	cur    storage.Cursor
	place  TablePlacement
	placed bool
	opened bool
}

// NewSeqScan constructs a sequential scan. module may be nil (uninstrumented).
func NewSeqScan(table *storage.Table, filter expr.Expr, module *codemodel.Module) *SeqScan {
	return &SeqScan{Table: table, Filter: filter, module: module, label: 'C'}
}

// SetTraceLabel sets the single-letter label used in invocation traces.
func (s *SeqScan) SetTraceLabel(b byte) { s.label = b }

// Open implements Operator.
func (s *SeqScan) Open(ctx *Context) error {
	s.stats = ctx.StatsFor(s)
	if s.stats != nil {
		defer s.stats.EndOpen(ctx, s.stats.Begin(ctx))
	}
	s.fault = ctx.FaultPoint(s, ":next")
	cur, err := s.Table.Scan(s.Cols)
	if err != nil {
		return err
	}
	s.cur = cur
	s.place, s.placed = ctx.Placements[s.Table]
	s.opened = true
	return nil
}

// Next implements Operator.
func (s *SeqScan) Next(ctx *Context) (out storage.Row, err error) {
	if !s.opened {
		return nil, errNotOpen(s.Name())
	}
	if s.stats != nil {
		defer s.stats.EndNext(ctx, s.stats.Begin(ctx), &out)
	}
	if ctx.Trace != nil {
		ctx.Trace.Record(s.label, s.Name())
	}
	if err := s.fault.Fire(); err != nil {
		return nil, err
	}
	for {
		row, err := s.cur.Next()
		if err != nil {
			return nil, err
		}
		if row == nil {
			return nil, nil
		}
		// A selective filter can reject long stretches without returning;
		// poll cancellation per input row so such scans abort promptly.
		if err := ctx.Canceled(); err != nil {
			return nil, err
		}
		if s.placed {
			ctx.Read(s.place.Base+uint64(s.cur.Rid())*uint64(s.place.RowBytes), s.place.RowBytes)
		}
		if s.Filter == nil {
			ctx.ExecModule(s.module, ctx.DataBits(true))
			return s.cur.Keep(), nil
		}
		match, err := expr.EvalBool(s.Filter, row)
		if err != nil {
			return nil, err
		}
		ctx.ExecModule(s.module, ctx.DataBits(match))
		if match {
			return s.cur.Keep(), nil
		}
	}
}

// Close implements Operator.
func (s *SeqScan) Close(*Context) error {
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
		return fmt.Sprintf("SeqScan(%s, filter=%s)", s.Table.Name(), s.Filter.String())
	}
	return fmt.Sprintf("SeqScan(%s)", s.Table.Name())
}

// indexAccess bundles the shared machinery of the two index operators:
// the search structure plus simulated node-region traffic.
type indexAccess struct {
	table *storage.Table
	meta  *storage.IndexMeta
	tree  *btree.Tree

	nodeRegion uint64
	nodeBytes  uint64
}

func newIndexAccess(table *storage.Table, meta *storage.IndexMeta) (*indexAccess, error) {
	tree, ok := meta.Search.(*btree.Tree)
	if !ok {
		return nil, fmt.Errorf("exec: index %s has no search structure", meta.Name)
	}
	return &indexAccess{table: table, meta: meta, tree: tree}, nil
}

// place reserves the simulated node region on first use.
func (ia *indexAccess) place(ctx *Context) {
	if ctx.CPU == nil || ia.nodeRegion != 0 {
		return
	}
	// ~16 bytes per entry of inner/leaf structure.
	size := ia.tree.Len()*16 + 4096
	ia.nodeRegion = ctx.CPU.AllocData(size)
	ia.nodeBytes = uint64(size)
}

// descend models the root-to-leaf traversal for a key: one 64-byte node
// read per level at a key-dependent (cache-unfriendly) offset.
func (ia *indexAccess) descend(ctx *Context, key int64) {
	if ia.nodeRegion == 0 {
		return
	}
	h := ia.tree.Height()
	x := uint64(key) * 0x9e3779b97f4a7c15
	for level := 0; level < h; level++ {
		x ^= x >> 29
		x *= 0xbf58476d1ce4e5b9
		off := (x % (ia.nodeBytes / 64)) * 64
		ctx.Read(ia.nodeRegion+off, 64)
	}
}

// readHeap models fetching the heap row for rid.
func (ia *indexAccess) readHeap(ctx *Context, rid int) {
	if addr, size, ok := ctx.Placements.Addr(ia.table, rid); ok {
		ctx.Read(addr, size)
	}
}

// IndexLookup is the rescannable inner side of an index nested-loop join:
// each Rescan repositions it on a key; Next then returns the matching heap
// rows. For a unique (primary key) index that is at most one row — the
// paper's foreign-key join case whose output cardinality is too small to
// ever justify a buffer above it (§6).
type IndexLookup struct {
	ia     *indexAccess
	module *codemodel.Module
	label  byte
	stats  *OpStats
	fault  *faultinject.Point

	rids    []int
	pos     int
	lastKey int64
	opened  bool
}

// NewIndexLookup constructs the lookup operator over table's index meta.
func NewIndexLookup(table *storage.Table, meta *storage.IndexMeta, module *codemodel.Module) (*IndexLookup, error) {
	ia, err := newIndexAccess(table, meta)
	if err != nil {
		return nil, err
	}
	return &IndexLookup{ia: ia, module: module, label: 'I'}, nil
}

// SetTraceLabel sets the trace label.
func (s *IndexLookup) SetTraceLabel(b byte) { s.label = b }

// Open implements Operator.
func (s *IndexLookup) Open(ctx *Context) error {
	s.stats = ctx.StatsFor(s)
	if s.stats != nil {
		defer s.stats.EndOpen(ctx, s.stats.Begin(ctx))
	}
	s.fault = ctx.FaultPoint(s, ":next")
	s.ia.place(ctx)
	s.rids = nil
	s.pos = 0
	s.opened = true
	return nil
}

// Rescan implements Rescannable.
func (s *IndexLookup) Rescan(key storage.Value) error {
	if !s.opened {
		return fmt.Errorf("exec: IndexLookup.Rescan before Open")
	}
	if key.Kind != storage.TypeInt64 {
		return fmt.Errorf("exec: index key must be BIGINT, got %v", key.Kind)
	}
	if s.ia.meta.Unique {
		if rid, ok := s.ia.tree.LookupOne(key.I); ok {
			s.rids = append(s.rids[:0], rid)
		} else {
			s.rids = s.rids[:0]
		}
	} else {
		rids, _ := s.ia.tree.Lookup(key.I)
		s.rids = append(s.rids[:0], rids...)
	}
	s.pos = 0
	s.lastKey = key.I
	return nil
}

// Next implements Operator.
func (s *IndexLookup) Next(ctx *Context) (out storage.Row, err error) {
	if !s.opened {
		return nil, errNotOpen(s.Name())
	}
	if s.stats != nil {
		defer s.stats.EndNext(ctx, s.stats.Begin(ctx), &out)
	}
	if ctx.Trace != nil {
		ctx.Trace.Record(s.label, s.Name())
	}
	if err := s.fault.Fire(); err != nil {
		return nil, err
	}
	if s.pos == 0 {
		// Model the root-to-leaf descent on the first fetch of a rescan.
		s.ia.descend(ctx, s.lastKey)
	}
	if s.pos >= len(s.rids) {
		ctx.ExecModule(s.module, ctx.DataBits(false))
		return nil, nil
	}
	rid := s.rids[s.pos]
	s.pos++
	s.ia.readHeap(ctx, rid)
	ctx.ExecModule(s.module, ctx.DataBits(true))
	return s.ia.table.FetchRow(rid)
}

// Close implements Operator.
func (s *IndexLookup) Close(*Context) error {
	s.opened = false
	return nil
}

// Schema implements Operator.
func (s *IndexLookup) Schema() storage.Schema { return s.ia.table.Schema() }

// Children implements Operator.
func (s *IndexLookup) Children() []Operator { return nil }

// Name implements Operator.
func (s *IndexLookup) Name() string {
	return fmt.Sprintf("IndexLookup(%s.%s)", s.ia.table.Name(), s.ia.meta.Column)
}

// IndexFullScan returns a table's rows in index-key order — the ordered
// input the paper's merge-join plan draws from the orders primary key.
type IndexFullScan struct {
	ia     *indexAccess
	module *codemodel.Module
	Filter expr.Expr // optional
	label  byte
	stats  *OpStats
	fault  *faultinject.Point

	cursor *btree.Cursor
	opened bool
}

// NewIndexFullScan constructs the ordered scan.
func NewIndexFullScan(table *storage.Table, meta *storage.IndexMeta, filter expr.Expr, module *codemodel.Module) (*IndexFullScan, error) {
	ia, err := newIndexAccess(table, meta)
	if err != nil {
		return nil, err
	}
	return &IndexFullScan{ia: ia, module: module, Filter: filter, label: 'X'}, nil
}

// SetTraceLabel sets the trace label.
func (s *IndexFullScan) SetTraceLabel(b byte) { s.label = b }

// Open implements Operator.
func (s *IndexFullScan) Open(ctx *Context) error {
	s.stats = ctx.StatsFor(s)
	if s.stats != nil {
		defer s.stats.EndOpen(ctx, s.stats.Begin(ctx))
	}
	s.fault = ctx.FaultPoint(s, ":next")
	s.ia.place(ctx)
	s.cursor = s.ia.tree.Min()
	s.opened = true
	return nil
}

// Next implements Operator.
func (s *IndexFullScan) Next(ctx *Context) (out storage.Row, err error) {
	if !s.opened {
		return nil, errNotOpen(s.Name())
	}
	if s.stats != nil {
		defer s.stats.EndNext(ctx, s.stats.Begin(ctx), &out)
	}
	if ctx.Trace != nil {
		ctx.Trace.Record(s.label, s.Name())
	}
	if err := s.fault.Fire(); err != nil {
		return nil, err
	}
	for {
		if err := ctx.Canceled(); err != nil {
			return nil, err
		}
		_, rid, ok := s.cursor.Next()
		if !ok {
			return nil, nil
		}
		// Leaf-chain walk: sequential reads over the node region.
		if s.ia.nodeRegion != 0 {
			off := (uint64(rid) * 16) % s.ia.nodeBytes
			ctx.Read(s.ia.nodeRegion+off, 16)
		}
		s.ia.readHeap(ctx, rid)
		row, err := s.ia.table.FetchRow(rid)
		if err != nil {
			return nil, err
		}
		if s.Filter == nil {
			ctx.ExecModule(s.module, ctx.DataBits(true))
			return row, nil
		}
		match, err := expr.EvalBool(s.Filter, row)
		if err != nil {
			return nil, err
		}
		ctx.ExecModule(s.module, ctx.DataBits(match))
		if match {
			return row, nil
		}
	}
}

// Close implements Operator.
func (s *IndexFullScan) Close(*Context) error {
	s.opened = false
	return nil
}

// Schema implements Operator.
func (s *IndexFullScan) Schema() storage.Schema { return s.ia.table.Schema() }

// Children implements Operator.
func (s *IndexFullScan) Children() []Operator { return nil }

// Name implements Operator.
func (s *IndexFullScan) Name() string {
	return fmt.Sprintf("IndexFullScan(%s.%s)", s.ia.table.Name(), s.ia.meta.Column)
}
