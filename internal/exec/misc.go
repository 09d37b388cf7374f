package exec

import (
	"fmt"

	"bufferdb/internal/storage"
)

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

// Values is a leaf operator over fixed rows: the one-row result of an
// INSERT, and test and example inputs.
type Values struct {
	Rows  []storage.Row
	Sch   storage.Schema
	label byte

	stats  *OpStats
	pos    int
	opened bool
}

// NewValues constructs the operator.
func NewValues(sch storage.Schema, rows []storage.Row) *Values {
	return &Values{Rows: rows, Sch: sch, label: 'V'}
}

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
