package exec

import (
	"fmt"

	"bufferdb/internal/codemodel"
	"bufferdb/internal/faultinject"
	"bufferdb/internal/storage"
)

// Material materializes its child's entire output on the first Next and
// then streams it — PostgreSQL's Material node, which many TPC-H subplans
// introduce and which (as the paper notes in §7.6) already provides the
// batching that explicit buffering would otherwise add.
type Material struct {
	Child Operator

	module *codemodel.Module
	label  byte
	stats  *OpStats
	fault  *faultinject.Point

	rows    []storage.Row
	addrs   []uint64
	memUsed int64
	pos     int
	filled  bool
	opened  bool
}

// NewMaterial constructs the operator; module may be nil.
func NewMaterial(child Operator, module *codemodel.Module) *Material {
	return &Material{Child: child, module: module, label: 'T'}
}

// SetTraceLabel sets the trace label.
func (m *Material) SetTraceLabel(b byte) { m.label = b }

// Open implements Operator.
func (m *Material) Open(ctx *Context) error {
	m.stats = ctx.StatsFor(m)
	if m.stats != nil {
		defer m.stats.EndOpen(ctx, m.stats.Begin(ctx))
	}
	if err := m.Child.Open(ctx); err != nil {
		return err
	}
	m.fault = ctx.FaultPoint(m, ":next")
	m.rows, m.addrs = nil, nil
	ctx.ShrinkMem(m.memUsed) // reopen without Close: release stale charges
	m.memUsed = 0
	m.pos, m.filled = 0, false
	m.opened = true
	return nil
}

// Next implements Operator.
func (m *Material) Next(ctx *Context) (out storage.Row, err error) {
	if !m.opened {
		return nil, errNotOpen(m.Name())
	}
	if m.stats != nil {
		defer m.stats.EndNext(ctx, m.stats.Begin(ctx), &out)
	}
	if ctx.Trace != nil {
		ctx.Trace.Record(m.label, m.Name())
	}
	if err := m.fault.Fire(); err != nil {
		return nil, err
	}
	if !m.filled {
		arena := NewArena(ctx.CPU)
		for {
			if err := ctx.Canceled(); err != nil {
				return nil, err
			}
			row, err := m.Child.Next(ctx)
			if err != nil {
				return nil, err
			}
			if row == nil {
				break
			}
			if err := ctx.GrowMem(int64(row.ByteSize())); err != nil {
				return nil, err
			}
			m.memUsed += int64(row.ByteSize())
			addr := arena.Alloc(row.ByteSize())
			ctx.Write(addr, row.ByteSize())
			ctx.ExecModule(m.module, ctx.DataBits(true))
			m.rows = append(m.rows, row)
			m.addrs = append(m.addrs, addr)
		}
		m.filled = true
	}
	if m.pos >= len(m.rows) {
		return nil, nil
	}
	row := m.rows[m.pos]
	ctx.Read(m.addrs[m.pos], row.ByteSize())
	ctx.ExecModule(m.module, ctx.DataBits(true))
	m.pos++
	return row, nil
}

// Close implements Operator.
func (m *Material) Close(ctx *Context) error {
	m.opened = false
	m.rows, m.addrs = nil, nil
	ctx.ShrinkMem(m.memUsed)
	m.memUsed = 0
	return m.Child.Close(ctx)
}

// Schema implements Operator.
func (m *Material) Schema() storage.Schema { return m.Child.Schema() }

// Children implements Operator.
func (m *Material) Children() []Operator { return []Operator{m.Child} }

// Name implements Operator.
func (m *Material) Name() string { return "Material" }

// Module implements Operator.
func (m *Material) Module() *codemodel.Module { return m.module }

// Blocking implements Operator.
func (m *Material) Blocking() bool { return true }

// Limit passes through the first N rows of its child.
type Limit struct {
	Child Operator
	N     int

	stats   *OpStats
	emitted int
	opened  bool
}

// NewLimit constructs the operator.
func NewLimit(child Operator, n int) *Limit {
	return &Limit{Child: child, N: n}
}

// Open implements Operator.
func (l *Limit) Open(ctx *Context) error {
	l.stats = ctx.StatsFor(l)
	if l.stats != nil {
		defer l.stats.EndOpen(ctx, l.stats.Begin(ctx))
	}
	l.emitted = 0
	l.opened = true
	return l.Child.Open(ctx)
}

// Next implements Operator.
func (l *Limit) Next(ctx *Context) (out storage.Row, err error) {
	if !l.opened {
		return nil, errNotOpen(l.Name())
	}
	if l.stats != nil {
		defer l.stats.EndNext(ctx, l.stats.Begin(ctx), &out)
	}
	if l.emitted >= l.N {
		return nil, nil
	}
	row, err := l.Child.Next(ctx)
	if err != nil || row == nil {
		return nil, err
	}
	l.emitted++
	return row, nil
}

// Close implements Operator.
func (l *Limit) Close(ctx *Context) error {
	l.opened = false
	return l.Child.Close(ctx)
}

// Schema implements Operator.
func (l *Limit) Schema() storage.Schema { return l.Child.Schema() }

// Children implements Operator.
func (l *Limit) Children() []Operator { return []Operator{l.Child} }

// Name implements Operator.
func (l *Limit) Name() string { return fmt.Sprintf("Limit(%d)", l.N) }

// Module implements Operator: Limit is too small to model.
func (l *Limit) Module() *codemodel.Module { return nil }

// Blocking implements Operator.
func (l *Limit) Blocking() bool { return false }

// Values is a leaf operator over fixed rows, used by tests and examples.
type Values struct {
	Rows   []storage.Row
	Sch    storage.Schema
	module *codemodel.Module
	label  byte

	stats  *OpStats
	pos    int
	opened bool
}

// NewValues constructs the fixture operator.
func NewValues(sch storage.Schema, rows []storage.Row) *Values {
	return &Values{Rows: rows, Sch: sch, label: 'V'}
}

// SetModule attaches an instruction-footprint module, letting tests drive
// the simulator with arbitrary row streams.
func (v *Values) SetModule(m *codemodel.Module) { v.module = m }

// SetTraceLabel sets the trace label.
func (v *Values) SetTraceLabel(b byte) { v.label = b }

// Open implements Operator.
func (v *Values) Open(ctx *Context) error {
	v.stats = ctx.StatsFor(v)
	if v.stats != nil {
		defer v.stats.EndOpen(ctx, v.stats.Begin(ctx))
	}
	v.pos = 0
	v.opened = true
	return nil
}

// Next implements Operator.
func (v *Values) Next(ctx *Context) (out storage.Row, err error) {
	if !v.opened {
		return nil, errNotOpen(v.Name())
	}
	if v.stats != nil {
		defer v.stats.EndNext(ctx, v.stats.Begin(ctx), &out)
	}
	if ctx.Trace != nil {
		ctx.Trace.Record(v.label, v.Name())
	}
	if v.pos >= len(v.Rows) {
		return nil, nil
	}
	row := v.Rows[v.pos]
	v.pos++
	ctx.ExecModule(v.module, ctx.DataBits(true))
	return row, nil
}

// Close implements Operator.
func (v *Values) Close(*Context) error {
	v.opened = false
	return nil
}

// Schema implements Operator.
func (v *Values) Schema() storage.Schema { return v.Sch }

// Children implements Operator.
func (v *Values) Children() []Operator { return nil }

// Name implements Operator.
func (v *Values) Name() string { return fmt.Sprintf("Values(%d rows)", len(v.Rows)) }

// Module implements Operator.
func (v *Values) Module() *codemodel.Module { return v.module }

// Blocking implements Operator.
func (v *Values) Blocking() bool { return false }
