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

type planTemplate struct {
	key  string
	plan *plan.Node
}

func newPlanCache() *planCache {
	return &planCache{entries: map[string]*list.Element{}, order: list.New()}
}

// get returns the template of key, or nil.
func (c *planCache) get(key []byte) *plan.Node {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[string(key)]
	if !ok {
		return nil
	}
	c.order.MoveToFront(el)
	return el.Value.(*planTemplate).plan
}

// put makes p the template of key, replacing any earlier one and evicting
// the least recently used template past the bound.
func (c *planCache) put(key []byte, p *plan.Node) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[string(key)]; ok {
		el.Value.(*planTemplate).plan = p
		c.order.MoveToFront(el)
		return
	}
	k := string(key)
	c.entries[k] = c.order.PushFront(&planTemplate{key: k, plan: p})
	if c.order.Len() > planCacheEntries {
		back := c.order.Back()
		c.order.Remove(back)
		delete(c.entries, back.Value.(*planTemplate).key)
	}
}
