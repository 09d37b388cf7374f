package exec

import (
	"fmt"

	"bufferdb/internal/faultinject"
	"bufferdb/internal/storage"
)

// CachedRows streams rows adopted from the semantic reuse cache. It is the
// operator behind a spliced plan.KindCachedSource node: a full aggregate
// result on an aggregate hit, or an empty placeholder standing in for the
// drained build input of an adopted hash-join build side. The rows belong
// to the cache — they are shared, read-only, and their memory lives under
// the cache's reservation, so the operator charges nothing against the
// query's budget. The facade keeps the backing entry pinned for the
// cursor's lifetime.
type CachedRows struct {
	rows []storage.Row
	sch  storage.Schema

	stats  *OpStats
	fault  *faultinject.Point
	pos    int
	opened bool
}

// NewCachedRows constructs a cached-source operator over shared rows.
func NewCachedRows(sch storage.Schema, rows []storage.Row) *CachedRows {
	return &CachedRows{rows: rows, sch: sch}
}

// Open implements Operator.
func (c *CachedRows) Open(ctx *Context) error {
	c.stats = ctx.StatsFor(c)
	if c.stats != nil {
		defer c.stats.EndOpen(ctx, c.stats.Begin(ctx))
	}
	c.fault = ctx.FaultPoint(c, ":next")
	c.pos = 0
	c.opened = true
	return nil
}

// Next implements Operator.
func (c *CachedRows) Next(ctx *Context) (out storage.Row, err error) {
	if !c.opened {
		return nil, errNotOpen(c.Name())
	}
	if c.stats != nil {
		defer c.stats.EndNext(ctx, c.stats.Begin(ctx), &out)
	}
	if err := c.fault.Fire(); err != nil {
		return nil, err
	}
	if err := ctx.Canceled(); err != nil {
		return nil, err
	}
	if c.pos >= len(c.rows) {
		return nil, nil
	}
	row := c.rows[c.pos]
	c.pos++
	return row, nil
}

// Close implements Operator.
func (c *CachedRows) Close(*Context) error {
	c.opened = false
	return nil
}

// Schema implements Operator.
func (c *CachedRows) Schema() storage.Schema { return c.sch }

// Children implements Operator.
func (c *CachedRows) Children() []Operator { return nil }

// Name implements Operator.
func (c *CachedRows) Name() string { return fmt.Sprintf("CachedSource(%d rows)", len(c.rows)) }
