package exec

import (
	"fmt"
	"sort"
	"strings"

	"bufferdb/internal/codemodel"
	"bufferdb/internal/expr"
	"bufferdb/internal/faultinject"
	"bufferdb/internal/storage"
)

// SortKey is one ORDER BY item.
type SortKey struct {
	Expr expr.Expr
	Desc bool
}

// Sort is the blocking sort operator. It drains its child on the first
// Next, sorts in memory (the paper's setup gives sorting enough memory to
// never spill), and then streams the sorted rows. Because it already
// executes its input in one long batch, the plan refinement algorithm never
// puts a buffer above it (paper §6).
type Sort struct {
	Child Operator
	Keys  []SortKey

	module *codemodel.Module
	label  byte
	stats  *OpStats
	fault  *faultinject.Point

	rows    []storage.Row
	keys    [][]storage.Value
	addrs   []uint64
	memUsed int64
	pos     int
	sorted  bool
	opened  bool
}

// NewSort constructs the operator; module may be nil.
func NewSort(child Operator, keys []SortKey, module *codemodel.Module) *Sort {
	return &Sort{Child: child, Keys: keys, module: module, label: 'O'}
}

// SetTraceLabel sets the trace label.
func (s *Sort) SetTraceLabel(b byte) { s.label = b }

// Open implements Operator.
func (s *Sort) Open(ctx *Context) error {
	s.stats = ctx.StatsFor(s)
	if s.stats != nil {
		defer s.stats.EndOpen(ctx, s.stats.Begin(ctx))
	}
	if err := s.Child.Open(ctx); err != nil {
		return err
	}
	s.fault = ctx.FaultPoint(s, ":next")
	s.rows, s.keys, s.addrs = nil, nil, nil
	ctx.ShrinkMem(s.memUsed) // reopen without Close: release stale charges
	s.memUsed = 0
	s.pos, s.sorted = 0, false
	s.opened = true
	return nil
}

// fill drains the child and sorts. Per input tuple the sort module runs
// once (tuple insertion); the sort itself charges per-comparison cost.
func (s *Sort) fill(ctx *Context) error {
	arena := NewArena(ctx.CPU)
	for {
		if err := ctx.Canceled(); err != nil {
			return err
		}
		row, err := s.Child.Next(ctx)
		if err != nil {
			return err
		}
		if row == nil {
			break
		}
		keys := make([]storage.Value, len(s.Keys))
		for i, k := range s.Keys {
			v, err := k.Expr.Eval(row)
			if err != nil {
				return err
			}
			keys[i] = v
		}
		ctx.ExecModule(s.module, ctx.DataBits(true))
		if err := ctx.GrowMem(int64(row.ByteSize())); err != nil {
			return err
		}
		s.memUsed += int64(row.ByteSize())
		addr := arena.Alloc(row.ByteSize())
		ctx.Write(addr, row.ByteSize())
		s.rows = append(s.rows, row)
		s.keys = append(s.keys, keys)
		s.addrs = append(s.addrs, addr)
	}

	idx := make([]int, len(s.rows))
	for i := range idx {
		idx[i] = i
	}
	cpu := ctx.CPU
	var comparePC uint64
	if s.module != nil && len(s.module.Sites()) > 0 {
		comparePC = s.module.Sites()[0].PC
	}
	less := func(i, j int) bool {
		a, b := idx[i], idx[j]
		result := false
		ka, kb := s.keys[a], s.keys[b]
		for i := range ka {
			c := storage.Compare(ka[i], kb[i])
			if s.Keys[i].Desc {
				c = -c
			}
			if c != 0 {
				result = c < 0
				break
			}
		}
		if cpu != nil {
			// Comparator cost: two key loads, ~30 µops, one data branch.
			cpu.DataRead(s.addrs[a], 16)
			cpu.DataRead(s.addrs[b], 16)
			cpu.AddUops(30)
			if comparePC != 0 {
				cpu.ExecBranch(comparePC, result)
			}
		}
		return result
	}
	sort.SliceStable(idx, less)

	rows := make([]storage.Row, len(idx))
	addrs := make([]uint64, len(idx))
	for i, j := range idx {
		rows[i] = s.rows[j]
		addrs[i] = s.addrs[j]
	}
	s.rows, s.addrs = rows, addrs
	s.keys = nil
	s.sorted = true
	return nil
}

// Next implements Operator.
func (s *Sort) Next(ctx *Context) (out storage.Row, err error) {
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
	if !s.sorted {
		if err := s.fill(ctx); err != nil {
			return nil, err
		}
	}
	if s.pos >= len(s.rows) {
		return nil, nil
	}
	row := s.rows[s.pos]
	ctx.Read(s.addrs[s.pos], row.ByteSize())
	ctx.ExecModule(s.module, ctx.DataBits(true))
	s.pos++
	return row, nil
}

// Close implements Operator.
func (s *Sort) Close(ctx *Context) error {
	s.opened = false
	s.rows, s.keys, s.addrs = nil, nil, nil
	ctx.ShrinkMem(s.memUsed)
	s.memUsed = 0
	return s.Child.Close(ctx)
}

// Schema implements Operator.
func (s *Sort) Schema() storage.Schema { return s.Child.Schema() }

// Children implements Operator.
func (s *Sort) Children() []Operator { return []Operator{s.Child} }

// Name implements Operator.
func (s *Sort) Name() string {
	parts := make([]string, len(s.Keys))
	for i, k := range s.Keys {
		parts[i] = k.Expr.String()
		if k.Desc {
			parts[i] += " DESC"
		}
	}
	return fmt.Sprintf("Sort(%s)", strings.Join(parts, ", "))
}
