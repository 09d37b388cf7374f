package plan

import (
	"bufferdb/internal/exec"
	"bufferdb/internal/reuse"
	"bufferdb/internal/storage"
)

// ApplyReuse consults the semantic reuse cache and rewrites the plan in
// place: an Aggregate whose fingerprint matches a published aggregate table
// is replaced by a CachedSource streaming the cached rows; a hash-join
// build side whose fingerprint matches a published build adopts the cached
// table (its drained input replaced by an empty CachedSource). On a miss
// the cache admits (reuse.Cache.Admit), the matching operator gets a
// publish hook so the state it builds anyway becomes available to later
// queries; a key's first miss gets none, so a one-off subplan skips the
// copy a publish would make.
//
// Returned releases unpin the adopted cache entries; the caller must run
// every one when the cursor closes (or fails to open) — until then the
// entries' memory reservations survive eviction and staleness, so a
// probe never walks un-accounted memory. The returned node is the plan
// root, which itself may have been replaced.
func ApplyReuse(root *Node, cache *reuse.Cache) (*Node, []func()) {
	if cache == nil || root == nil {
		return root, nil
	}
	r := &reuser{cache: cache, ep: cache.Epochs()}
	return r.visit(root), r.releases
}

type reuser struct {
	cache    *reuse.Cache
	ep       *reuse.Epochs
	releases []func()
}

// visit rewrites one node pre-order: fingerprints are taken before any
// descendant is spliced, so keys always describe the original subtree.
func (r *reuser) visit(n *Node) *Node {
	switch n.Kind {
	case KindAggregate:
		if rep := r.aggregate(n); rep != nil {
			return rep
		}
	case KindHashJoin:
		if len(n.Children) == 2 && n.Children[1].Kind == KindHashBuild {
			r.build(n.Children[1])
		}
	}
	for i, c := range n.Children {
		n.Children[i] = r.visit(c)
	}
	return n
}

// aggregate tries to reuse a published aggregate table for n, returning the
// replacement CachedSource on a hit. On an admitted miss it attaches the
// publish hook; it returns nil on every miss. The replacement keeps the
// node's own schema: output aliases are per-query display names the
// fingerprint deliberately ignores, and the cached rows are positional.
func (r *reuser) aggregate(n *Node) *Node {
	key, reads, ok := Fingerprint(n, r.ep)
	if !ok {
		return nil
	}
	if payload, release, hit := r.cache.Lookup(key); hit {
		if at, isAgg := payload.(*reuse.AggTable); isAgg {
			r.releases = append(r.releases, release)
			return r.cachedNode(n.Schema(), at.Rows, n.EstRows, n.Group)
		}
		release()
	}
	if !r.cache.Admit(key) {
		return nil
	}
	cache := r.cache
	n.SharedAgg = &exec.SharedAgg{Publish: func(rows []storage.Row, bytes int64) {
		cache.Publish(key, reads, &reuse.AggTable{Rows: rows}, bytes)
	}}
	return nil
}

// build tries to reuse a published hash-join build side for the HashBuild
// node b. On a hit the executing join adopts the cached table and the build
// input — which would otherwise be drained just to rebuild it — is replaced
// by an empty CachedSource. On an admitted miss the build gets the publish
// hook.
func (r *reuser) build(b *Node) {
	key, reads, ok := Fingerprint(b, r.ep)
	if !ok {
		return
	}
	if payload, release, hit := r.cache.Lookup(key); hit {
		if jt, isBuild := payload.(*exec.JoinTable); isBuild {
			r.releases = append(r.releases, release)
			b.Shared = &exec.SharedBuild{Table: jt}
			b.Reused = true
			inner := b.Children[0]
			b.Children[0] = r.cachedNode(inner.Schema(), nil, 0, inner.Group)
			return
		}
		release()
	}
	if !r.cache.Admit(key) {
		return
	}
	cache := r.cache
	b.Shared = &exec.SharedBuild{Publish: func(table *exec.JoinTable, bytes int64) {
		cache.Publish(key, reads, table, bytes)
	}}
}

// cachedNode builds a spliced CachedSource node.
func (r *reuser) cachedNode(sch storage.Schema, rows []storage.Row, est float64, group int) *Node {
	return &Node{
		Kind:       KindCachedSource,
		CachedRows: rows,
		EstRows:    est,
		Group:      group,
		Reused:     true,
		schema:     sch,
	}
}
