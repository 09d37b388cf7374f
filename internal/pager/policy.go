package pager

import "fmt"

// EvictionPolicy decides which resident page the buffer pool drops when a
// miss needs a frame. The pool calls Admit when a page becomes resident,
// Touch on every hit, Remove when a page leaves residency, and Victim to
// choose the next page to drop. Keys are opaque handles the pool composes
// from (file ordinal, page id); a policy never interprets them.
//
// Policies are driven under the pool mutex and need no locking of their
// own. Victim receives an evictable predicate because pinned pages — ones a
// scan currently holds — must be skipped, and only the pool knows pin
// counts.
type EvictionPolicy interface {
	// Name identifies the policy ("lru", "gdsf") in options and metrics.
	Name() string
	// Admit records a page becoming resident.
	Admit(key uint64)
	// Touch records a hit on a resident page.
	Touch(key uint64)
	// Remove records a page leaving residency (evicted or dropped).
	Remove(key uint64)
	// Victim returns the page to evict next among those for which
	// evictable returns true, or ok=false when every resident page is
	// pinned.
	Victim(evictable func(uint64) bool) (key uint64, ok bool)
}

// NewPolicy constructs a policy by name; "" selects LRU. It is the single
// switch the -eviction flag and Options.Eviction resolve through.
func NewPolicy(name string) (EvictionPolicy, error) {
	switch name {
	case "", "lru":
		return newLRUPolicy(), nil
	case "gdsf":
		return newGDSFPolicy(), nil
	}
	return nil, fmt.Errorf("pager: unknown eviction policy %q (lru or gdsf)", name)
}

// lruPolicy evicts the least recently used page: an intrusive doubly-linked
// list from most- to least-recent, with O(1) admit/touch/remove and a
// victim walk that skips pinned entries.
type lruPolicy struct {
	nodes map[uint64]*lruNode
	head  *lruNode // most recent
	tail  *lruNode // least recent
	// free is the last removed node: an eviction is a Remove followed by an
	// Admit, which takes it back.
	free *lruNode
}

type lruNode struct {
	key        uint64
	prev, next *lruNode
}

func newLRUPolicy() *lruPolicy {
	return &lruPolicy{nodes: make(map[uint64]*lruNode)}
}

// Name implements EvictionPolicy.
func (p *lruPolicy) Name() string { return "lru" }

// Admit implements EvictionPolicy.
func (p *lruPolicy) Admit(key uint64) {
	n := p.free
	if n == nil {
		n = &lruNode{}
	}
	p.free = nil
	n.key = key
	p.nodes[key] = n
	p.pushFront(n)
}

// Touch implements EvictionPolicy.
func (p *lruPolicy) Touch(key uint64) {
	n, ok := p.nodes[key]
	if !ok || n == p.head {
		return
	}
	p.unlink(n)
	p.pushFront(n)
}

// Remove implements EvictionPolicy.
func (p *lruPolicy) Remove(key uint64) {
	if n, ok := p.nodes[key]; ok {
		p.unlink(n)
		delete(p.nodes, key)
		p.free = n
	}
}

// Victim implements EvictionPolicy.
func (p *lruPolicy) Victim(evictable func(uint64) bool) (uint64, bool) {
	for n := p.tail; n != nil; n = n.prev {
		if evictable(n.key) {
			return n.key, true
		}
	}
	return 0, false
}

func (p *lruPolicy) pushFront(n *lruNode) {
	n.prev, n.next = nil, p.head
	if p.head != nil {
		p.head.prev = n
	}
	p.head = n
	if p.tail == nil {
		p.tail = n
	}
}

func (p *lruPolicy) unlink(n *lruNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		p.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		p.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

// gdsfPolicy is Greedy-Dual-Size-Frequency eviction (Cherkasova 1998),
// the frequency-aware policy the buffer-management survey in PAPERS.md
// recommends over plain recency for skewed access. Every resident page
// carries a score H + frequency·cost/size; pages here are uniform in size
// and cost, so the score degenerates to H + frequency — but H, the
// "inflation" value raised to each victim's score at eviction, is what
// gives recently admitted pages a chance against long-resident frequent
// ones, which plain LFU lacks. A hot page touched often accumulates score
// faster than the inflation rises and stays resident even when a large
// sequential scan floods the pool — the scan's pages are touched once and
// evict each other instead.
type gdsfPolicy struct {
	scores map[uint64]gdsfEntry
	h      float64
}

type gdsfEntry struct {
	freq  uint64
	score float64
}

func newGDSFPolicy() *gdsfPolicy {
	return &gdsfPolicy{scores: make(map[uint64]gdsfEntry)}
}

// Name implements EvictionPolicy.
func (p *gdsfPolicy) Name() string { return "gdsf" }

// Admit implements EvictionPolicy.
func (p *gdsfPolicy) Admit(key uint64) {
	p.scores[key] = gdsfEntry{freq: 1, score: p.h + 1}
}

// Touch implements EvictionPolicy.
func (p *gdsfPolicy) Touch(key uint64) {
	if e, ok := p.scores[key]; ok {
		e.freq++
		e.score = p.h + float64(e.freq)
		p.scores[key] = e
	}
}

// Remove implements EvictionPolicy.
func (p *gdsfPolicy) Remove(key uint64) {
	delete(p.scores, key)
}

// Victim implements EvictionPolicy. The linear minimum scan is O(resident
// pages); pools are at most a few thousand frames, where map iteration is
// cheaper than maintaining a priority queue against Touch-heavy workloads.
func (p *gdsfPolicy) Victim(evictable func(uint64) bool) (uint64, bool) {
	var (
		bestKey   uint64
		bestScore float64
		found     bool
	)
	for k, e := range p.scores {
		if !evictable(k) {
			continue
		}
		if !found || e.score < bestScore {
			bestKey, bestScore, found = k, e.score, true
		}
	}
	if found {
		// Inflate: future admissions start at the evicted score, so
		// residency earned long ago decays relative to fresh activity.
		p.h = bestScore
	}
	return bestKey, found
}
