package plan

import "bufferdb/internal/expr"

// PruneColumns is the top-down required-columns pass: it gives every
// SeqScan of a paged table the mask of columns its own filter or any
// ancestor reads, so the scan decodes only those (storage.Cursor). The root
// requires all of its columns; Project and Aggregate require exactly what
// their expressions read, whatever is asked of them; joins split what is
// asked of them between their inputs and add their keys; Filter, Sort and
// HashBuild add theirs and pass the rest down. Scans of memory-resident
// tables get no mask — their rows are never decoded, and their
// fingerprints stay what they were.
//
// sql.Analyze runs it last, in place, on the tree it just built; every
// later pass (Refine, Clone) copies nodes whole and so carries the masks
// along.
func PruneColumns(root *Node) { prune(root, nil) }

// colSet is the set of a node's output columns somebody reads; nil means
// all of them.
type colSet []bool

// none is the empty set over width columns.
func none(width int) colSet { return make(colSet, width) }

// with returns s plus the columns the expressions read. An expression the
// walker does not know reads everything.
func (s colSet) with(exprs ...expr.Expr) colSet {
	if s == nil {
		return nil
	}
	out := append(colSet(nil), s...)
	for _, e := range exprs {
		if e == nil {
			continue
		}
		known := expr.Columns(e, func(i int) {
			if i >= 0 && i < len(out) {
				out[i] = true
			}
		})
		if !known {
			return nil
		}
	}
	return out
}

// all reports whether the set is every column.
func (s colSet) all() bool {
	for _, b := range s {
		if !b {
			return false
		}
	}
	return true
}

// prune pushes need — what n's ancestors read of its output — down to the
// scans below n.
func prune(n *Node, need colSet) {
	switch n.Kind {
	case KindSeqScan:
		need = need.with(n.Filter)
		n.ScanCols = nil
		if n.Table.Paged() && !need.all() {
			n.ScanCols = need
		}

	case KindFilter:
		prune(n.Children[0], need.with(n.Filter))

	case KindSort:
		keys := make([]expr.Expr, len(n.SortKeys))
		for i, k := range n.SortKeys {
			keys[i] = k.Expr
		}
		prune(n.Children[0], need.with(keys...))

	case KindHashBuild:
		prune(n.Children[0], need.with(n.InnerKey))

	case KindLimit, KindBuffer:
		prune(n.Children[0], need)

	case KindProject:
		child := n.Children[0]
		prune(child, none(len(child.schema)).with(n.Projections...))

	case KindAggregate:
		child := n.Children[0]
		exprs := append([]expr.Expr(nil), n.GroupBy...)
		for _, a := range n.Aggs {
			exprs = append(exprs, a.Arg)
		}
		prune(child, none(len(child.schema)).with(exprs...))

	case KindHashJoin, KindMergeJoin, KindNestLoopJoin:
		// The output is the outer row followed by the inner row; a residual
		// reads the joined row. HashBuild adds the inner key of a hash join
		// itself; adding it here too covers the merge join.
		outer, inner := n.Children[0], n.Children[1]
		var outerNeed, innerNeed colSet
		if need = need.with(n.Residual); need != nil {
			w := len(outer.schema)
			outerNeed, innerNeed = need[:w], need[w:]
		}
		prune(outer, outerNeed.with(n.OuterKey))
		prune(inner, innerNeed.with(n.InnerKey))

	default:
		// Index scans and cached sources hand up whole rows; anything this
		// pass does not know keeps every column below it.
		for _, c := range n.Children {
			prune(c, nil)
		}
	}
}
