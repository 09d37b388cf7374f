package plan

import (
	"fmt"

	"bufferdb/internal/exec"
	"bufferdb/internal/expr"
	"bufferdb/internal/storage"
)

// Constructors build physical nodes with derived schemas and cardinality
// estimates. Estimation uses sampling-based selectivity (see estimate.go).

// SeqScan constructs a heap scan, estimating selectivity by sampling.
func SeqScan(table *storage.Table, filter expr.Expr) *Node {
	n := &Node{
		Kind:   KindSeqScan,
		Table:  table,
		Filter: filter,
		schema: table.Schema(),
	}
	n.EstRows = float64(table.NumRows()) * selectivity(table, filter)
	return n
}

// IndexLookup constructs the rescannable inner of an index nested-loop
// join. Its estimate is rows *per rescan* — 1 for a unique index — which is
// what the refinement cardinality rule keys on (paper §6).
func IndexLookup(table *storage.Table, index *storage.IndexMeta) (*Node, error) {
	if index == nil {
		return nil, fmt.Errorf("plan: IndexLookup needs an index")
	}
	n := &Node{
		Kind:   KindIndexLookup,
		Table:  table,
		Index:  index,
		schema: table.Schema(),
	}
	if index.Unique {
		n.EstRows = 1
	} else {
		n.EstRows = rowsPerKey(table, index)
	}
	return n, nil
}

// IndexFullScan constructs an ordered full-index scan.
func IndexFullScan(table *storage.Table, index *storage.IndexMeta, filter expr.Expr) (*Node, error) {
	if index == nil {
		return nil, fmt.Errorf("plan: IndexFullScan needs an index")
	}
	n := &Node{
		Kind:   KindIndexFullScan,
		Table:  table,
		Index:  index,
		Filter: filter,
		schema: table.Schema(),
	}
	n.EstRows = float64(table.NumRows()) * selectivity(table, filter)
	return n, nil
}

// NestLoopJoin constructs an index nested-loop join; inner must be an
// IndexLookup node.
func NestLoopJoin(outer, inner *Node, outerKey expr.Expr, residual expr.Expr) (*Node, error) {
	if inner.Kind != KindIndexLookup {
		return nil, fmt.Errorf("plan: nest-loop inner must be an IndexLookup, got %v", inner.Kind)
	}
	n := &Node{
		Kind:     KindNestLoopJoin,
		Children: []*Node{outer, inner},
		OuterKey: outerKey,
		Residual: residual,
		schema:   outer.schema.Concat(inner.schema),
	}
	n.EstRows = outer.EstRows * inner.EstRows
	return n, nil
}

// HashJoin constructs a hash join: probe on outer, blocking build over
// inner. The build appears as its own node so refinement sees the paper's
// module structure.
func HashJoin(outer, inner *Node, outerKey, innerKey expr.Expr) *Node {
	build := &Node{
		Kind:     KindHashBuild,
		Children: []*Node{inner},
		InnerKey: innerKey,
		schema:   inner.schema,
		EstRows:  inner.EstRows,
	}
	n := &Node{
		Kind:     KindHashJoin,
		Children: []*Node{outer, build},
		OuterKey: outerKey,
		InnerKey: innerKey,
		schema:   outer.schema.Concat(inner.schema),
	}
	// Key-foreign-key equi-join estimate: every outer row matches the
	// average number of inner rows per key.
	n.EstRows = outer.EstRows * matchesPerKey(inner)
	return n
}

// MergeJoin constructs a merge join over inputs sorted on their keys.
func MergeJoin(left, right *Node, leftKey, rightKey expr.Expr) *Node {
	n := &Node{
		Kind:     KindMergeJoin,
		Children: []*Node{left, right},
		OuterKey: leftKey,
		InnerKey: rightKey,
		schema:   left.schema.Concat(right.schema),
	}
	n.EstRows = left.EstRows * matchesPerKey(right)
	return n
}

// Sort constructs a blocking sort.
func Sort(child *Node, keys []exec.SortKey) *Node {
	return &Node{
		Kind:     KindSort,
		Children: []*Node{child},
		SortKeys: keys,
		schema:   child.schema,
		EstRows:  child.EstRows,
	}
}

// Aggregate constructs grouped or ungrouped aggregation.
func Aggregate(child *Node, groupBy []expr.Expr, aggs []expr.AggSpec) (*Node, error) {
	n := &Node{
		Kind:     KindAggregate,
		Children: []*Node{child},
		GroupBy:  groupBy,
		Aggs:     aggs,
	}
	for i, g := range groupBy {
		name := fmt.Sprintf("group%d", i)
		if cr, ok := g.(*expr.ColRef); ok {
			name = cr.Name
		}
		n.schema = append(n.schema, storage.Column{Name: name, Type: g.Type()})
	}
	for _, spec := range aggs {
		ty, err := spec.ResultType()
		if err != nil {
			return nil, err
		}
		n.schema = append(n.schema, storage.Column{Name: spec.OutputName(), Type: ty})
	}
	if len(groupBy) == 0 {
		n.EstRows = 1
	} else {
		// Crude group-count estimate: min(child, a few hundred) — the
		// TPC-H grouping columns are all low-cardinality.
		n.EstRows = minf(child.EstRows, 400)
	}
	return n, nil
}

// Limit constructs a row-count limit.
func Limit(child *Node, n int) *Node {
	return &Node{
		Kind:     KindLimit,
		Children: []*Node{child},
		LimitN:   n,
		schema:   child.schema,
		EstRows:  minf(child.EstRows, float64(n)),
	}
}

// Buffer wraps child in an explicit buffer node (size 0 = default). The
// refinement pass inserts these automatically; the constructor exists for
// hand-built plans and for the buffer-size sweep experiments.
func Buffer(child *Node, size int) *Node {
	return &Node{
		Kind:       KindBuffer,
		Children:   []*Node{child},
		BufferSize: size,
		schema:     child.schema,
		EstRows:    child.EstRows,
	}
}

// Filter constructs a residual-predicate node. Selectivity of residual
// predicates over joined rows defaults to 1/3, the classic guess.
func Filter(child *Node, pred expr.Expr) *Node {
	return &Node{
		Kind:     KindFilter,
		Children: []*Node{child},
		Filter:   pred,
		schema:   child.schema,
		EstRows:  child.EstRows / 3,
	}
}

// Project constructs a target-list evaluation node.
func Project(child *Node, exprs []expr.Expr, names []string) (*Node, error) {
	if len(exprs) == 0 || len(exprs) != len(names) {
		return nil, fmt.Errorf("plan: Project needs matching exprs and names")
	}
	n := &Node{
		Kind:        KindProject,
		Children:    []*Node{child},
		Projections: exprs,
		ProjNames:   names,
		EstRows:     child.EstRows,
	}
	for i, e := range exprs {
		n.schema = append(n.schema, storage.Column{Name: names[i], Type: e.Type()})
	}
	return n, nil
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// Col resolves a named column of a node's output schema to a ColRef.
func Col(n *Node, name string) (*expr.ColRef, error) {
	sch := n.Schema()
	i, err := sch.ColumnIndex("", name)
	if err != nil {
		return nil, err
	}
	if i < 0 {
		return nil, fmt.Errorf("plan: no column %q in %s", name, sch)
	}
	return expr.NewColRef(i, sch[i].QualifiedName(), sch[i].Type), nil
}

// MustCol is Col for statically known columns.
func MustCol(n *Node, name string) *expr.ColRef {
	c, err := Col(n, name)
	if err != nil {
		panic(err)
	}
	return c
}
