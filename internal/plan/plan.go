// Package plan provides physical query plans: a node tree with cardinality
// estimates, construction helpers, the bridge to the paper's plan
// refinement algorithm (internal/core), and compilation of plans into
// executable operator trees (internal/exec).
//
// The planner mirrors the paper's setting: the optimizer produces a
// conventional plan; a post-optimization refinement pass (§6.2) decides
// where buffer operators pay off and inserts them; nothing about the
// original operators changes.
package plan

import (
	"fmt"
	"slices"
	"strings"

	"bufferdb/internal/core"
	"bufferdb/internal/exec"
	"bufferdb/internal/expr"
	"bufferdb/internal/storage"
)

// Kind enumerates physical operator kinds.
type Kind uint8

// Physical node kinds. HashBuild exists as its own (blocking) node so the
// refinement algorithm sees the paper's module structure — build and probe
// are separate modules in Table 2.
const (
	KindSeqScan Kind = iota
	KindIndexLookup
	KindIndexFullScan
	KindNestLoopJoin
	KindHashBuild
	KindHashJoin // probe side
	KindMergeJoin
	KindSort
	KindAggregate
	KindLimit
	KindBuffer
	KindFilter
	KindProject
	KindCachedSource
)

// String returns the node kind's display name.
func (k Kind) String() string {
	switch k {
	case KindSeqScan:
		return "SeqScan"
	case KindIndexLookup:
		return "IndexLookup"
	case KindIndexFullScan:
		return "IndexFullScan"
	case KindNestLoopJoin:
		return "NestLoopJoin"
	case KindHashBuild:
		return "HashBuild"
	case KindHashJoin:
		return "HashJoin"
	case KindMergeJoin:
		return "MergeJoin"
	case KindSort:
		return "Sort"
	case KindAggregate:
		return "Aggregate"
	case KindLimit:
		return "Limit"
	case KindBuffer:
		return "Buffer"
	case KindFilter:
		return "Filter"
	case KindProject:
		return "Project"
	case KindCachedSource:
		return "CachedSource"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Node is one physical plan operator.
type Node struct {
	Kind     Kind
	Children []*Node

	// Table/Index identify the relation for scan kinds.
	Table *storage.Table
	Index *storage.IndexMeta

	// Filter is a scan predicate (SeqScan, IndexFullScan).
	Filter expr.Expr

	// Join fields: OuterKey/InnerKey are the equi-join key expressions
	// over the respective child schemas; Residual applies to the joined
	// row (nest-loop only).
	OuterKey expr.Expr
	InnerKey expr.Expr
	Residual expr.Expr

	// SortKeys order a Sort node's output.
	SortKeys []exec.SortKey

	// GroupBy/Aggs configure an Aggregate node.
	GroupBy []expr.Expr
	Aggs    []expr.AggSpec

	// LimitN bounds a Limit node.
	LimitN int

	// BufferSize sets a Buffer node's capacity (0 = default).
	BufferSize int

	// ScanCols is a paged SeqScan's column mask: ScanCols[i] reports
	// whether the scan's filter or any ancestor reads column i. nil means
	// every column — what a hand-built plan gets. Set by PruneColumns.
	ScanCols []bool

	// Projections/ProjNames configure a Project node.
	Projections []expr.Expr
	ProjNames   []string

	// EstRows is the optimizer's output-cardinality estimate: rows per
	// execution (per rescan for an IndexLookup).
	EstRows float64

	// Group is the 1-based execution-group id the refinement pass assigned
	// (0 = not refined or not a group member). Inserted Buffer nodes carry
	// the group of the subtree they batch.
	Group int

	// Semantic reuse-cache splice state (see ApplyReuse). Shared on a
	// HashBuild node carries the adopted build table or the publish hook;
	// SharedAgg on an Aggregate node carries the publish hook. CachedRows
	// backs a CachedSource node; Reused marks spliced nodes for EXPLAIN.
	Shared     *exec.SharedBuild
	SharedAgg  *exec.SharedAgg
	CachedRows []storage.Row
	Reused     bool

	schema storage.Schema
}

// Schema returns the node's output row shape.
func (n *Node) Schema() storage.Schema { return n.schema }

// Blocking reports whether the node breaks the pipeline: sort and
// hash-table building consume their whole input before producing output,
// so they already batch execution below them and refinement never wraps
// them in buffers (paper §6). It is the one definition of blocking.
//
// Aggregation is not blocking here. Although it consumes its whole input
// before emitting, its transition code runs once per input tuple,
// interleaved with the child — exactly the thrashing pattern the paper
// buffers against. The paper accordingly treats Aggregation as a regular
// execution-group member (its Query 2 groups Scan and Aggregation
// together; its Query 1 buffers between them).
func (n *Node) Blocking() bool {
	switch n.Kind {
	case KindSort, KindHashBuild:
		return true
	default:
		return false
	}
}

// Label renders a short description for EXPLAIN output. Nodes spliced or
// adopted by the semantic reuse cache carry a "[reused]" marker.
func (n *Node) Label() string {
	l := n.label()
	if n.Reused {
		l += " [reused]"
	}
	return l
}

func (n *Node) label() string {
	switch n.Kind {
	case KindSeqScan:
		if n.Filter != nil {
			return fmt.Sprintf("SeqScan(%s, filter=%s)", n.Table.Name(), n.Filter)
		}
		return fmt.Sprintf("SeqScan(%s)", n.Table.Name())
	case KindIndexLookup:
		return fmt.Sprintf("IndexLookup(%s.%s)", n.Table.Name(), n.Index.Column)
	case KindIndexFullScan:
		if n.Filter != nil {
			return fmt.Sprintf("IndexFullScan(%s.%s, filter=%s)", n.Table.Name(), n.Index.Column, n.Filter)
		}
		return fmt.Sprintf("IndexFullScan(%s.%s)", n.Table.Name(), n.Index.Column)
	case KindNestLoopJoin:
		return fmt.Sprintf("NestLoopJoin(key=%s)", n.OuterKey)
	case KindHashBuild:
		return fmt.Sprintf("HashBuild(key=%s)", n.InnerKey)
	case KindHashJoin:
		return fmt.Sprintf("HashJoin(%s = %s)", n.OuterKey, n.InnerKey)
	case KindMergeJoin:
		return fmt.Sprintf("MergeJoin(%s = %s)", n.OuterKey, n.InnerKey)
	case KindSort:
		keys := make([]string, len(n.SortKeys))
		for i, k := range n.SortKeys {
			keys[i] = k.Expr.String()
			if k.Desc {
				keys[i] += " DESC"
			}
		}
		return fmt.Sprintf("Sort(%s)", strings.Join(keys, ", "))
	case KindAggregate:
		aggs := make([]string, len(n.Aggs))
		for i, a := range n.Aggs {
			aggs[i] = a.String()
		}
		if len(n.GroupBy) == 0 {
			return fmt.Sprintf("Aggregate(%s)", strings.Join(aggs, ", "))
		}
		return fmt.Sprintf("Aggregate(%s) by %d keys", strings.Join(aggs, ", "), len(n.GroupBy))
	case KindLimit:
		return fmt.Sprintf("Limit(%d)", n.LimitN)
	case KindBuffer:
		size := n.BufferSize
		if size == 0 {
			size = core.DefaultBufferSize
		}
		return fmt.Sprintf("Buffer(size=%d)", size)
	case KindFilter:
		return fmt.Sprintf("Filter(%s)", n.Filter)
	case KindProject:
		names := strings.Join(n.ProjNames, ", ")
		return fmt.Sprintf("Project(%s)", names)
	case KindCachedSource:
		return fmt.Sprintf("CachedSource(%d rows)", len(n.CachedRows))
	default:
		return n.Kind.String()
	}
}

// Explain renders the plan tree with cardinality estimates.
func Explain(root *Node) string {
	var b strings.Builder
	var rec func(n *Node, depth int)
	rec = func(n *Node, depth int) {
		fmt.Fprintf(&b, "%s%s  (rows≈%.0f)\n", strings.Repeat("  ", depth), n.Label(), n.EstRows)
		for _, c := range n.Children {
			rec(c, depth+1)
		}
	}
	rec(root, 0)
	return b.String()
}

// Walk visits nodes depth-first, pre-order.
func Walk(n *Node, visit func(*Node)) {
	visit(n)
	for _, c := range n.Children {
		Walk(c, visit)
	}
}

// Tables returns the sorted distinct base tables the plan reads; nil when
// it reads none.
func Tables(root *Node) []string {
	var tables []string
	Walk(root, func(n *Node) {
		if n.Table != nil && !slices.Contains(tables, n.Table.Name()) {
			tables = append(tables, n.Table.Name())
		}
	})
	slices.Sort(tables)
	return tables
}

// CountKind returns the number of nodes of the given kind in the plan.
func CountKind(root *Node, k Kind) int {
	n := 0
	Walk(root, func(node *Node) {
		if node.Kind == k {
			n++
		}
	})
	return n
}
