package plan

import (
	"fmt"

	"bufferdb/internal/expr"
	"bufferdb/internal/storage"
)

// Bind returns a private copy of template, as Clone does, with every
// statement parameter in its expressions re-bound through arg
// (expr.Rebind) and, when names is not nil, its output columns renamed to
// names (rename). Only expressions and output names change: join choice,
// estimates, buffer placement, execution groups and column masks stay the
// template's. A bind that fails, or that would change an expression's
// type, returns an error and the caller plans the statement fresh.
func Bind(template *Node, arg expr.Arg, names []string) (*Node, error) {
	b := binder{arg: arg}
	n := b.node(template)
	if b.err == nil && names != nil {
		b.err = rename(n, template, names)
	}
	if b.err != nil {
		return nil, b.err
	}
	return n, nil
}

// binder carries the first error of one Bind.
type binder struct {
	arg expr.Arg
	err error
}

func (b *binder) node(t *Node) *Node {
	cp := *t
	cp.Children = make([]*Node, len(t.Children))
	for i, c := range t.Children {
		cp.Children[i] = b.node(c)
	}
	cp.Filter = b.expr(t.Filter)
	cp.OuterKey = b.expr(t.OuterKey)
	cp.InnerKey = b.expr(t.InnerKey)
	cp.Residual = b.expr(t.Residual)
	cp.GroupBy = b.exprs(t.GroupBy)
	cp.Projections = b.exprs(t.Projections)
	for i, k := range t.SortKeys {
		if e := b.expr(k.Expr); e != k.Expr {
			cp.SortKeys = unshare(cp.SortKeys, t.SortKeys)
			cp.SortKeys[i].Expr = e
		}
	}
	for i, a := range t.Aggs {
		if e := b.expr(a.Arg); e != a.Arg {
			cp.Aggs = unshare(cp.Aggs, t.Aggs)
			cp.Aggs[i].Arg = e
		}
	}
	return &cp
}

// unshare returns s, first copied when it is still the template's slice t:
// a bound plan writes only into slices of its own.
func unshare[T any](s, t []T) []T {
	if &s[0] == &t[0] {
		return append([]T(nil), t...)
	}
	return s
}

// expr re-binds one expression, returning e itself when it holds no
// parameter (or after the bind has failed).
func (b *binder) expr(e expr.Expr) expr.Expr {
	if e == nil || b.err != nil {
		return e
	}
	out, err := expr.Rebind(e, b.arg)
	if err == nil && out.Type() != e.Type() {
		err = fmt.Errorf("plan: binding changed %s from %v to %v", e, e.Type(), out.Type())
	}
	if err != nil {
		b.err = err
		return e
	}
	return out
}

// exprs re-binds a list, copying it only when an element changes.
func (b *binder) exprs(es []expr.Expr) []expr.Expr {
	out := es
	for i, e := range es {
		if r := b.expr(e); r != e {
			out = unshare(out, es)
			out[i] = r
		}
	}
	return out
}

// rename gives root, the bind's copy of template, the output column names
// names: the Project the select list built, and each Sort, Limit or Buffer
// above it, share one new schema, as a fresh plan's share the Project's,
// and a sort key over a renamed column names it anew, as ORDER BY
// resolution would have.
func rename(root, template *Node, names []string) error {
	proj := root
	for proj.Kind != KindProject {
		switch proj.Kind {
		case KindSort, KindLimit, KindBuffer:
			proj = proj.Children[0]
		default:
			return fmt.Errorf("plan: no output projection to rename")
		}
	}
	if len(names) != len(proj.ProjNames) {
		return fmt.Errorf("plan: %d output names for %d columns", len(names), len(proj.ProjNames))
	}
	schema := make(storage.Schema, len(names))
	for i, c := range proj.schema {
		schema[i] = storage.Column{Name: names[i], Type: c.Type}
	}
	for n, t := root, template; ; n, t = n.Children[0], t.Children[0] {
		n.schema = schema
		if n == proj {
			n.ProjNames = names
			return nil
		}
		for i, k := range n.SortKeys {
			if c, ok := k.Expr.(*expr.ColRef); ok && c.Name != names[c.Idx] {
				n.SortKeys = unshare(n.SortKeys, t.SortKeys)
				n.SortKeys[i].Expr = expr.NewColRef(c.Idx, names[c.Idx], c.Typ)
			}
		}
	}
}
