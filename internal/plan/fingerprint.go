package plan

import (
	"fmt"
	"sort"
	"strings"

	"bufferdb/internal/expr"
	"bufferdb/internal/reuse"
)

// Fingerprint derives the semantic reuse-cache key of the subtree rooted at
// n: a canonical rendering in which alpha-equivalent subtrees — same
// semantics under different aliases, whitespace, predicate order or
// comparison spelling — hash equal, while structurally different plans do
// not. Column references render by resolved position and type (never by
// display name), commutative operators sort their operands, conjunction
// chains flatten, and cascaded filters collapse.
//
// reads is the read set of the base tables the subtree reads, at their
// current write epochs in ep: the entry published under key goes stale
// when one of them is written. ok is false when the subtree contains a
// node the canonicalizer does not understand (already-spliced sources, …)
// — such subtrees are simply not cached.
func Fingerprint(n *Node, ep *reuse.Epochs) (key string, reads reuse.ReadSet, ok bool) {
	s, ok := (&canonicalizer{}).node(n)
	if !ok {
		return "", reuse.ReadSet{}, false
	}
	return s, ep.ReadSet(Tables(n)), true
}

// canonicalizer renders plan subtrees into canonical strings.
type canonicalizer struct{}

// table renders a base-table reference.
func (c *canonicalizer) table(name string) string { return "tbl:" + name }

func (c *canonicalizer) node(n *Node) (string, bool) {
	switch n.Kind {
	case KindBuffer:
		// Buffering never changes results: transparent, so refined and
		// unrefined plans of the same query share cache entries.
		return c.node(n.Children[0])

	case KindSeqScan:
		// A masked scan's rows are NULL outside the mask, and a published
		// build's rows are adopted by any query with the same key: the mask
		// is part of what the subtree computes.
		t := c.table(n.Table.Name()) + scanCols(n.ScanCols)
		if n.Filter == nil {
			return "scan(" + t + ")", true
		}
		f, ok := c.expr(n.Filter)
		if !ok {
			return "", false
		}
		return "scan(" + t + ",f=" + f + ")", true

	case KindIndexLookup:
		// The lookup key arrives per rescan from the enclosing nest-loop;
		// the node itself is just the table+index identity.
		return "idxlookup(" + c.table(n.Table.Name()) + "," + n.Index.Column + ")", true

	case KindIndexFullScan:
		t := c.table(n.Table.Name())
		if n.Filter == nil {
			return "idxscan(" + t + "," + n.Index.Column + ")", true
		}
		f, ok := c.expr(n.Filter)
		if !ok {
			return "", false
		}
		return "idxscan(" + t + "," + n.Index.Column + ",f=" + f + ")", true

	case KindFilter:
		// Collapse cascaded filters and the AND-chains inside them into one
		// sorted predicate set: WHERE a AND b ≡ WHERE b AND a ≡ two stacked
		// filters.
		var preds []string
		cur := n
		for cur.Kind == KindFilter || cur.Kind == KindBuffer {
			if cur.Kind == KindFilter {
				ps, ok := c.conjuncts(cur.Filter)
				if !ok {
					return "", false
				}
				preds = append(preds, ps...)
			}
			cur = cur.Children[0]
		}
		child, ok := c.node(cur)
		if !ok {
			return "", false
		}
		sort.Strings(preds)
		return "filter([" + strings.Join(preds, ";") + "]," + child + ")", true

	case KindProject:
		child, ok := c.node(n.Children[0])
		if !ok {
			return "", false
		}
		// Output names are aliases: excluded, so SELECT x AS a ≡ AS b.
		// Expression order is preserved — it is the output column order.
		exprs := make([]string, len(n.Projections))
		for i, e := range n.Projections {
			s, ok := c.expr(e)
			if !ok {
				return "", false
			}
			exprs[i] = s
		}
		return "project([" + strings.Join(exprs, ";") + "]," + child + ")", true

	case KindAggregate:
		child, ok := c.node(n.Children[0])
		if !ok {
			return "", false
		}
		groups := make([]string, len(n.GroupBy))
		for i, g := range n.GroupBy {
			s, ok := c.expr(g)
			if !ok {
				return "", false
			}
			groups[i] = s
		}
		aggs := make([]string, len(n.Aggs))
		for i, a := range n.Aggs {
			s, ok := c.agg(a)
			if !ok {
				return "", false
			}
			aggs[i] = s
		}
		return "agg(g=[" + strings.Join(groups, ";") + "],a=[" + strings.Join(aggs, ";") + "]," + child + ")", true

	case KindHashBuild:
		child, ok := c.node(n.Children[0])
		if !ok {
			return "", false
		}
		k, ok := c.expr(n.InnerKey)
		if !ok {
			return "", false
		}
		return "build(k=" + k + "," + child + ")", true

	case KindHashJoin:
		outer, ok := c.node(n.Children[0])
		if !ok {
			return "", false
		}
		build, ok := c.node(n.Children[1])
		if !ok {
			return "", false
		}
		k, ok := c.expr(n.OuterKey)
		if !ok {
			return "", false
		}
		return "hj(ok=" + k + "," + outer + "," + build + ")", true

	case KindMergeJoin:
		left, ok := c.node(n.Children[0])
		if !ok {
			return "", false
		}
		right, ok := c.node(n.Children[1])
		if !ok {
			return "", false
		}
		lk, ok := c.expr(n.OuterKey)
		if !ok {
			return "", false
		}
		rk, ok := c.expr(n.InnerKey)
		if !ok {
			return "", false
		}
		return "mj(" + lk + "," + rk + "," + left + "," + right + ")", true

	case KindNestLoopJoin:
		outer, ok := c.node(n.Children[0])
		if !ok {
			return "", false
		}
		inner, ok := c.node(n.Children[1])
		if !ok {
			return "", false
		}
		k, ok := c.expr(n.OuterKey)
		if !ok {
			return "", false
		}
		res := ""
		if n.Residual != nil {
			r, ok := c.expr(n.Residual)
			if !ok {
				return "", false
			}
			res = r
		}
		return "nl(k=" + k + ",r=" + res + "," + outer + "," + inner + ")", true

	case KindSort:
		child, ok := c.node(n.Children[0])
		if !ok {
			return "", false
		}
		keys := make([]string, len(n.SortKeys))
		for i, k := range n.SortKeys {
			s, ok := c.expr(k.Expr)
			if !ok {
				return "", false
			}
			if k.Desc {
				s += ":desc"
			}
			keys[i] = s
		}
		return "sort([" + strings.Join(keys, ";") + "]," + child + ")", true

	case KindLimit:
		child, ok := c.node(n.Children[0])
		if !ok {
			return "", false
		}
		return fmt.Sprintf("limit(%d,%s)", n.LimitN, child), true

	default:
		// CachedSource (already spliced) and anything unknown: refuse
		// rather than risk a wrong equality.
		return "", false
	}
}

// scanCols renders a scan's column mask; a scan of every column renders
// nothing.
func scanCols(mask []bool) string {
	if mask == nil {
		return ""
	}
	var b strings.Builder
	b.WriteString(",c=")
	for i, need := range mask {
		if need {
			fmt.Fprintf(&b, "%d.", i)
		}
	}
	return b.String()
}

// conjuncts flattens an AND-chain into its canonicalized operand set.
func (c *canonicalizer) conjuncts(e expr.Expr) ([]string, bool) {
	if b, isBin := e.(*expr.Binary); isBin && b.Op == expr.OpAnd {
		l, ok := c.conjuncts(b.L)
		if !ok {
			return nil, false
		}
		r, ok := c.conjuncts(b.R)
		if !ok {
			return nil, false
		}
		return append(l, r...), true
	}
	s, ok := c.expr(e)
	if !ok {
		return nil, false
	}
	return []string{s}, true
}

// expr canonicalizes a scalar expression. Column references render by
// resolved position and type — never display name — which is what makes
// alias-renamed queries collide.
func (c *canonicalizer) expr(e expr.Expr) (string, bool) {
	switch v := e.(type) {
	case *expr.ColRef:
		return fmt.Sprintf("$%d:%d", v.Idx, uint8(v.Typ)), true

	case *expr.Const:
		return fmt.Sprintf("lit:%d:%s", uint8(v.Val.Kind), v.Val.String()), true

	case *expr.Binary:
		return c.binary(v)

	case *expr.Not:
		s, ok := c.expr(v.E)
		if !ok {
			return "", false
		}
		return "not(" + s + ")", true

	case *expr.Neg:
		s, ok := c.expr(v.E)
		if !ok {
			return "", false
		}
		return "neg(" + s + ")", true

	case *expr.IsNull:
		s, ok := c.expr(v.E)
		if !ok {
			return "", false
		}
		if v.Negate {
			return "isnotnull(" + s + ")", true
		}
		return "isnull(" + s + ")", true

	case *expr.Like:
		s, ok := c.expr(v.E)
		if !ok {
			return "", false
		}
		neg := ""
		if v.Negate {
			neg = "!"
		}
		return "like" + neg + "(" + s + "," + v.Pattern + ")", true

	case *expr.Case:
		var parts []string
		for _, w := range v.Whens {
			cond, ok := c.expr(w.Cond)
			if !ok {
				return "", false
			}
			then, ok := c.expr(w.Then)
			if !ok {
				return "", false
			}
			parts = append(parts, "when("+cond+","+then+")")
		}
		if v.Else != nil {
			s, ok := c.expr(v.Else)
			if !ok {
				return "", false
			}
			parts = append(parts, "else("+s+")")
		}
		return "case(" + strings.Join(parts, ",") + ")", true

	default:
		return "", false
	}
}

// binary canonicalizes operators: AND/OR chains flatten and sort their
// operands, commutative =, <>, + and * sort their two sides, and >/>= flip
// into </<= so "a > b" and "b < a" collide.
func (c *canonicalizer) binary(b *expr.Binary) (string, bool) {
	switch b.Op {
	case expr.OpAnd, expr.OpOr:
		ops, ok := c.flatten(b, b.Op)
		if !ok {
			return "", false
		}
		sort.Strings(ops)
		name := "and"
		if b.Op == expr.OpOr {
			name = "or"
		}
		return name + "(" + strings.Join(ops, ",") + ")", true

	case expr.OpEq, expr.OpNe, expr.OpAdd, expr.OpMul:
		l, ok := c.expr(b.L)
		if !ok {
			return "", false
		}
		r, ok := c.expr(b.R)
		if !ok {
			return "", false
		}
		if l > r {
			l, r = r, l
		}
		return canonOpName(b.Op) + "(" + l + "," + r + ")", true

	case expr.OpGt, expr.OpGe:
		// a > b ≡ b < a; a >= b ≡ b <= a.
		l, ok := c.expr(b.L)
		if !ok {
			return "", false
		}
		r, ok := c.expr(b.R)
		if !ok {
			return "", false
		}
		flipped := expr.OpLt
		if b.Op == expr.OpGe {
			flipped = expr.OpLe
		}
		return canonOpName(flipped) + "(" + r + "," + l + ")", true

	default: // OpSub, OpDiv, OpLt, OpLe: order matters
		l, ok := c.expr(b.L)
		if !ok {
			return "", false
		}
		r, ok := c.expr(b.R)
		if !ok {
			return "", false
		}
		return canonOpName(b.Op) + "(" + l + "," + r + ")", true
	}
}

// flatten collects the canonicalized operands of a same-op logic chain.
func (c *canonicalizer) flatten(e expr.Expr, op expr.BinOp) ([]string, bool) {
	if b, isBin := e.(*expr.Binary); isBin && b.Op == op {
		l, ok := c.flatten(b.L, op)
		if !ok {
			return nil, false
		}
		r, ok := c.flatten(b.R, op)
		if !ok {
			return nil, false
		}
		return append(l, r...), true
	}
	s, ok := c.expr(e)
	if !ok {
		return nil, false
	}
	return []string{s}, true
}

// canonOpName names a binary operator in canonical output (symbol-free,
// stable).
func canonOpName(op expr.BinOp) string {
	switch op {
	case expr.OpAdd:
		return "add"
	case expr.OpSub:
		return "sub"
	case expr.OpMul:
		return "mul"
	case expr.OpDiv:
		return "div"
	case expr.OpEq:
		return "eq"
	case expr.OpNe:
		return "ne"
	case expr.OpLt:
		return "lt"
	case expr.OpLe:
		return "le"
	default:
		return fmt.Sprintf("op%d", uint8(op))
	}
}

// agg canonicalizes one aggregate call. The output alias (As) is excluded:
// SUM(x) AS total ≡ SUM(x) AS t.
func (c *canonicalizer) agg(a expr.AggSpec) (string, bool) {
	if a.Func == expr.AggCountStar {
		return "count*", true
	}
	s, ok := c.expr(a.Arg)
	if !ok {
		return "", false
	}
	return fmt.Sprintf("f%d(%s)", uint8(a.Func), s), true
}
