package bufferdb

import (
	"container/list"
	"sync"

	"bufferdb/internal/plan"
)

// planCacheEntries bounds the plan-template LRU. It is a constant: a served
// mix repeats a few dozen shapes, and a template is a few kilobytes.
const planCacheEntries = 256

// planCache is the served path's LRU of plan templates, keyed by the
// statement's sql.Shape key: one refined plan per statement shape, which a
// later text of that shape clones and re-binds (plan.Bind) instead of
// parsing, analyzing and refining again. Templates are read-only once
// inserted, so concurrent binds share them. The catalog is fixed after open,
// so no template is ever invalidated; the entries are not charged to the
// memory limit.
type planCache struct {
	mu      sync.Mutex
	entries map[string]*list.Element
	order   *list.List // front = most recently used
}

// planTemplate is a cached plan and its output names, for sql.Shape.Names.
type planTemplate struct {
	key  string
	plan *plan.Node
	cols []string
}

func newPlanCache() *planCache {
	return &planCache{entries: map[string]*list.Element{}, order: list.New()}
}

// get returns the template of key, or nil.
func (c *planCache) get(key []byte) *planTemplate {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[string(key)]
	if !ok {
		return nil
	}
	c.order.MoveToFront(el)
	return el.Value.(*planTemplate)
}

// put makes p the template of key, replacing any earlier one and evicting
// the least recently used template past the bound.
func (c *planCache) put(key []byte, p *plan.Node) {
	cols := p.Schema().Names()
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[string(key)]; ok {
		el.Value = &planTemplate{key: el.Value.(*planTemplate).key, plan: p, cols: cols}
		c.order.MoveToFront(el)
		return
	}
	k := string(key)
	c.entries[k] = c.order.PushFront(&planTemplate{key: k, plan: p, cols: cols})
	if c.order.Len() > planCacheEntries {
		back := c.order.Back()
		c.order.Remove(back)
		delete(c.entries, back.Value.(*planTemplate).key)
	}
}
