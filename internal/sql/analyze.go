package sql

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"bufferdb/internal/exec"
	"bufferdb/internal/expr"
	"bufferdb/internal/plan"
	"bufferdb/internal/storage"
)

// JoinMethod selects the physical join algorithm, mirroring the paper's
// §7.5 methodology of forcing the optimizer into each of the three plans.
type JoinMethod string

// Supported join methods. Empty defaults to hash join.
const (
	JoinDefault  JoinMethod = ""
	JoinHash     JoinMethod = "hash"
	JoinNestLoop JoinMethod = "nestloop"
	JoinMerge    JoinMethod = "merge"
)

// ErrBadJoinMethod is wrapped by planning errors for an unrecognized
// Options.ForceJoin value.
var ErrBadJoinMethod = errors.New("unknown join method")

// Options configures planning.
type Options struct {
	// ForceJoin selects the join algorithm for every join in the query.
	ForceJoin JoinMethod
}

// validate rejects malformed options up front, before any parsing work.
func (o Options) validate() error {
	switch o.ForceJoin {
	case JoinDefault, JoinHash, JoinNestLoop, JoinMerge:
		return nil
	default:
		return fmt.Errorf("sql: %w %q", ErrBadJoinMethod, o.ForceJoin)
	}
}

// PlanQuery parses and plans a SQL statement into a physical plan.
func PlanQuery(query string, cat *storage.Catalog, opt Options) (*plan.Node, error) {
	stmt, err := Parse(query)
	if err != nil {
		return nil, err
	}
	return Analyze(stmt, cat, opt)
}

// Analyze turns a parsed statement into a physical plan. Its last step
// gives every scan of a paged table its column mask (plan.PruneColumns):
// every planning entry point comes through here, so none has to remember
// to.
func Analyze(stmt *SelectStmt, cat *storage.Catalog, opt Options) (*plan.Node, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	a := &analyzer{cat: cat, opt: opt}
	root, err := a.plan(stmt)
	if err != nil {
		return nil, err
	}
	plan.PruneColumns(root)
	return root, nil
}

// scopeCol is one visible column during analysis.
type scopeCol struct {
	binding string // table alias or name
	name    string
	typ     storage.Type
	pos     int
}

// scope is the set of columns visible to expression resolution.
type scope struct {
	cols []scopeCol
}

func scopeOf(binding string, sch storage.Schema, offset int) *scope {
	s := &scope{}
	for i, c := range sch {
		s.cols = append(s.cols, scopeCol{binding: binding, name: c.Name, typ: c.Type, pos: offset + i})
	}
	return s
}

func (s *scope) concat(other *scope) *scope {
	out := &scope{cols: append([]scopeCol{}, s.cols...)}
	// Positions are absolute within the joined row: shift the right side
	// past the left side's width.
	off := len(s.cols)
	for _, c := range other.cols {
		c.pos += off
		out.cols = append(out.cols, c)
	}
	return out
}

// resolve finds a column by (optional) binding and name.
func (s *scope) resolve(binding, name string) (*scopeCol, error) {
	var found *scopeCol
	for i := range s.cols {
		c := &s.cols[i]
		if !strings.EqualFold(c.name, name) {
			continue
		}
		if binding != "" && !strings.EqualFold(c.binding, binding) {
			continue
		}
		if found != nil {
			return nil, fmt.Errorf("sql: ambiguous column %q", name)
		}
		found = c
	}
	if found == nil {
		if binding != "" {
			return nil, fmt.Errorf("sql: no column %s.%s in scope", binding, name)
		}
		return nil, fmt.Errorf("sql: no column %q in scope", name)
	}
	return found, nil
}

type boundTable struct {
	ref   TableRef
	table *storage.Table
	scope *scope // table-local scope (offsets 0..)
}

type analyzer struct {
	cat *storage.Catalog
	opt Options
}

func (a *analyzer) plan(stmt *SelectStmt) (*plan.Node, error) {
	if len(stmt.From) == 0 {
		return nil, fmt.Errorf("sql: FROM clause required")
	}

	// Bind tables.
	var tables []boundTable
	refs := append([]TableRef{}, stmt.From...)
	for _, j := range stmt.Joins {
		refs = append(refs, j.Table)
	}
	seen := map[string]bool{}
	for _, ref := range refs {
		t, err := a.cat.Table(ref.Name)
		if err != nil {
			return nil, err
		}
		b := strings.ToLower(ref.Binding())
		if seen[b] {
			return nil, fmt.Errorf("sql: duplicate table binding %q", ref.Binding())
		}
		seen[b] = true
		tables = append(tables, boundTable{ref: ref, table: t, scope: scopeOf(ref.Binding(), t.Schema(), 0)})
	}

	// Collect conjuncts from WHERE and JOIN … ON.
	var conjuncts []Node
	if stmt.Where != nil {
		conjuncts = SplitConjuncts(stmt.Where)
	}
	for _, j := range stmt.Joins {
		conjuncts = append(conjuncts, SplitConjuncts(j.On)...)
	}

	// Classify each conjunct by the bindings it references.
	type joinCond struct {
		l, r *Ident // l = r
	}
	pushdown := map[string][]Node{}
	var joinConds []joinCond
	var residual []Node
	for _, c := range conjuncts {
		bs, err := a.bindingsOf(c, tables)
		if err != nil {
			return nil, err
		}
		switch len(bs) {
		case 0, 1:
			b := ""
			if len(bs) == 1 {
				b = bs[0]
			} else {
				b = strings.ToLower(tables[0].ref.Binding())
			}
			pushdown[b] = append(pushdown[b], c)
		case 2:
			if l, r, ok := asEquiJoin(c); ok {
				joinConds = append(joinConds, joinCond{l: l, r: r})
			} else {
				residual = append(residual, c)
			}
		default:
			residual = append(residual, c)
		}
	}

	// filterFor is the conjunction of a table's single-table predicates,
	// resolved in sc: the table's own scope for a scan, the joined row's
	// for a nest-loop residual. nil when the table has none.
	filterFor := func(bt boundTable, sc *scope) (expr.Expr, error) {
		var filter expr.Expr
		for _, c := range pushdown[strings.ToLower(bt.ref.Binding())] {
			e, err := a.toExpr(c, sc)
			if err != nil {
				return nil, err
			}
			if filter == nil {
				filter = e
			} else {
				filter = expr.MustBinary(expr.OpAnd, filter, e)
			}
		}
		return filter, nil
	}

	// Left-deep join in FROM order.
	filter, err := filterFor(tables[0], tables[0].scope)
	if err != nil {
		return nil, err
	}
	cur := plan.SeqScan(tables[0].table, filter)
	curScope := tables[0].scope
	joined := map[string]bool{strings.ToLower(tables[0].ref.Binding()): true}

	consumed := make([]bool, len(joinConds))
	for _, bt := range tables[1:] {
		b := strings.ToLower(bt.ref.Binding())
		// Find a join condition connecting the accumulated side to bt.
		var accIdent, newIdent *Ident
		for i, jc := range joinConds {
			if consumed[i] {
				continue
			}
			lb, _ := a.bindingOfIdent(jc.l, tables)
			rb, _ := a.bindingOfIdent(jc.r, tables)
			switch {
			case joined[lb] && rb == b:
				accIdent, newIdent = jc.l, jc.r
			case joined[rb] && lb == b:
				accIdent, newIdent = jc.r, jc.l
			}
			if accIdent != nil {
				consumed[i] = true
				break
			}
		}
		if accIdent == nil {
			return nil, fmt.Errorf("sql: no equi-join condition connects table %q (cross joins unsupported)", bt.ref.Binding())
		}
		accCol, err := curScope.resolve(accIdent.Table, accIdent.Name)
		if err != nil {
			return nil, err
		}
		newCol, err := bt.scope.resolve(newIdent.Table, newIdent.Name)
		if err != nil {
			return nil, err
		}
		accKey := expr.NewColRef(accCol.pos, accCol.binding+"."+accCol.name, accCol.typ)
		newKey := expr.NewColRef(newCol.pos, newCol.binding+"."+newCol.name, newCol.typ)

		joinedScope := curScope.concat(bt.scope)
		cur, err = a.join(cur, bt, accKey, newKey, joinedScope, filterFor)
		if err != nil {
			return nil, err
		}
		curScope = joinedScope
		joined[b] = true
	}

	// Unconsumed equi-join conditions (a table connected by more than one
	// equality, e.g. TPC-H Q5's c_nationkey = s_nationkey) apply as
	// residual filters over the joined rows.
	for i, jc := range joinConds {
		if consumed[i] {
			continue
		}
		l, err := curScope.resolve(jc.l.Table, jc.l.Name)
		if err != nil {
			return nil, err
		}
		r, err := curScope.resolve(jc.r.Table, jc.r.Name)
		if err != nil {
			return nil, err
		}
		eq, err := a.binary("=",
			expr.NewColRef(l.pos, l.binding+"."+l.name, l.typ),
			expr.NewColRef(r.pos, r.binding+"."+r.name, r.typ))
		if err != nil {
			return nil, err
		}
		cur = plan.Filter(cur, eq)
	}

	// Residual predicates.
	for _, c := range residual {
		e, err := a.toExpr(c, curScope)
		if err != nil {
			return nil, err
		}
		cur = plan.Filter(cur, e)
	}

	// Aggregation / projection.
	hasAgg := len(stmt.GroupBy) > 0
	for _, item := range stmt.Items {
		if !item.Star && containsAggregate(item.Expr) {
			hasAgg = true
		}
	}
	var finalNode *plan.Node
	if hasAgg {
		finalNode, err = a.planAggregate(stmt, cur, curScope)
	} else {
		finalNode, err = a.planProjection(stmt, cur, curScope)
	}
	if err != nil {
		return nil, err
	}

	// ORDER BY over the final schema.
	if len(stmt.OrderBy) > 0 {
		keys, err := a.orderKeys(stmt.OrderBy, finalNode)
		if err != nil {
			return nil, err
		}
		finalNode = plan.Sort(finalNode, keys)
	}
	if stmt.Limit >= 0 {
		finalNode = plan.Limit(finalNode, stmt.Limit)
	}
	return finalNode, nil
}

// join builds one join step with the configured method. filterFor gives
// bt's single-table predicate in a scope: bt's own for its scan, or joined
// (the joined row's) for an index nest-loop, whose inner is a bare lookup
// and so applies it after the join.
func (a *analyzer) join(outer *plan.Node, bt boundTable, outerKey, innerKey *expr.ColRef,
	joined *scope, filterFor func(boundTable, *scope) (expr.Expr, error)) (*plan.Node, error) {

	method := a.opt.ForceJoin
	if method == JoinDefault {
		method = JoinHash
	}
	switch method {
	case JoinHash:
		filter, err := filterFor(bt, bt.scope)
		if err != nil {
			return nil, err
		}
		return plan.HashJoin(outer, plan.SeqScan(bt.table, filter), outerKey, innerKey), nil

	case JoinNestLoop:
		idx := bt.table.IndexOn(bt.scope.cols[innerKey.Idx].name)
		if idx == nil {
			return nil, fmt.Errorf("sql: nestloop join needs an index on %s.%s",
				bt.table.Name(), bt.scope.cols[innerKey.Idx].name)
		}
		residual, err := filterFor(bt, joined)
		if err != nil {
			return nil, err
		}
		lookup, err := plan.IndexLookup(bt.table, idx)
		if err != nil {
			return nil, err
		}
		return plan.NestLoopJoin(outer, lookup, outerKey, residual)

	case JoinMerge:
		filter, err := filterFor(bt, bt.scope)
		if err != nil {
			return nil, err
		}
		sortedOuter := plan.Sort(outer, []exec.SortKey{{Expr: outerKey}})
		idx := bt.table.IndexOn(bt.scope.cols[innerKey.Idx].name)
		if idx == nil {
			right := plan.Sort(plan.SeqScan(bt.table, filter), []exec.SortKey{{Expr: innerKey}})
			return plan.MergeJoin(sortedOuter, right, outerKey, innerKey), nil
		}
		right, err := plan.IndexFullScan(bt.table, idx, filter)
		if err != nil {
			return nil, err
		}
		return plan.MergeJoin(sortedOuter, right, outerKey, innerKey), nil

	default:
		return nil, fmt.Errorf("sql: %w %q", ErrBadJoinMethod, method)
	}
}

// planAggregate builds Aggregate (+ Project for the select-list shape).
func (a *analyzer) planAggregate(stmt *SelectStmt, child *plan.Node, sc *scope) (*plan.Node, error) {
	// Group-by expressions.
	var groupBy []expr.Expr
	groupKey := map[string]int{} // astString → output position
	for i, g := range stmt.GroupBy {
		e, err := a.toExpr(g, sc)
		if err != nil {
			return nil, err
		}
		groupBy = append(groupBy, e)
		groupKey[astString(g)] = i
	}

	// Aggregate calls, in discovery order across the select list.
	var aggs []expr.AggSpec
	aggKey := map[string]int{} // astString → index into aggs
	var collect func(n Node) error
	collect = func(n Node) error {
		switch e := n.(type) {
		case *FuncCall:
			key := astString(e)
			if _, ok := aggKey[key]; ok {
				return nil
			}
			spec := expr.AggSpec{}
			switch e.Name {
			case "COUNT":
				if e.Star {
					spec.Func = expr.AggCountStar
				} else {
					spec.Func = expr.AggCount
				}
			case "SUM":
				spec.Func = expr.AggSum
			case "AVG":
				spec.Func = expr.AggAvg
			case "MIN":
				spec.Func = expr.AggMin
			case "MAX":
				spec.Func = expr.AggMax
			default:
				return fmt.Errorf("sql: unknown aggregate %s", e.Name)
			}
			if !e.Star {
				arg, err := a.toExpr(e.Arg, sc)
				if err != nil {
					return err
				}
				spec.Arg = arg
			}
			aggKey[key] = len(aggs)
			aggs = append(aggs, spec)
			return nil
		case *BinaryExpr:
			if err := collect(e.L); err != nil {
				return err
			}
			return collect(e.R)
		case *UnaryExpr:
			return collect(e.E)
		default:
			return nil
		}
	}
	for _, item := range stmt.Items {
		if item.Star {
			return nil, fmt.Errorf("sql: SELECT * cannot be combined with aggregation")
		}
		if err := collect(item.Expr); err != nil {
			return nil, err
		}
	}
	if len(aggs) == 0 {
		return nil, fmt.Errorf("sql: GROUP BY without aggregates is unsupported")
	}

	aggNode, err := plan.Aggregate(child, groupBy, aggs)
	if err != nil {
		return nil, err
	}

	// Post-aggregation projection: rewrite each select item over the
	// aggregate's output schema (group keys first, then agg results).
	aggSchema := aggNode.Schema()
	outScope := &scope{}
	for i, c := range aggSchema {
		outScope.cols = append(outScope.cols, scopeCol{name: c.Name, typ: c.Type, pos: i})
	}
	var exprs []expr.Expr
	var names []string
	for _, item := range stmt.Items {
		e, err := a.toPostAggExpr(item.Expr, groupKey, aggKey, len(groupBy), aggSchema, sc)
		if err != nil {
			return nil, err
		}
		exprs = append(exprs, e)
		name := item.Alias
		if name == "" {
			name = astString(item.Expr)
		}
		names = append(names, name)
	}
	return plan.Project(aggNode, exprs, names)
}

// toPostAggExpr rewrites a select-list expression over the aggregate
// output: aggregate calls and group-by expressions become column refs.
func (a *analyzer) toPostAggExpr(n Node, groupKey, aggKey map[string]int, nGroups int,
	aggSchema storage.Schema, inScope *scope) (expr.Expr, error) {

	key := astString(n)
	if i, ok := groupKey[key]; ok {
		return expr.NewColRef(i, aggSchema[i].Name, aggSchema[i].Type), nil
	}
	if i, ok := aggKey[key]; ok {
		pos := nGroups + i
		return expr.NewColRef(pos, aggSchema[pos].Name, aggSchema[pos].Type), nil
	}
	switch e := n.(type) {
	case *BinaryExpr:
		l, err := a.toPostAggExpr(e.L, groupKey, aggKey, nGroups, aggSchema, inScope)
		if err != nil {
			return nil, err
		}
		r, err := a.toPostAggExpr(e.R, groupKey, aggKey, nGroups, aggSchema, inScope)
		if err != nil {
			return nil, err
		}
		return a.binary(e.Op, l, r)
	case *UnaryExpr:
		inner, err := a.toPostAggExpr(e.E, groupKey, aggKey, nGroups, aggSchema, inScope)
		if err != nil {
			return nil, err
		}
		if e.Op == "-" {
			return expr.NewNeg(inner)
		}
		return expr.NewNot(inner)
	case *NumberLit, *StringLit, *DateLit, *IntervalLit, *NullLit, *BoolLit:
		return a.toExpr(n, inScope)
	case *Ident:
		return nil, fmt.Errorf("sql: column %s must appear in GROUP BY or inside an aggregate", astString(n))
	default:
		return nil, fmt.Errorf("sql: unsupported select-list expression %s over aggregation", key)
	}
}

// planProjection builds the non-aggregate select list.
func (a *analyzer) planProjection(stmt *SelectStmt, child *plan.Node, sc *scope) (*plan.Node, error) {
	if len(stmt.Items) == 1 && stmt.Items[0].Star {
		return child, nil
	}
	var exprs []expr.Expr
	var names []string
	for _, item := range stmt.Items {
		if item.Star {
			return nil, fmt.Errorf("sql: mixed * and expressions in SELECT list")
		}
		e, err := a.toExpr(item.Expr, sc)
		if err != nil {
			return nil, err
		}
		exprs = append(exprs, e)
		name := item.Alias
		if name == "" {
			name = astString(item.Expr)
		}
		names = append(names, name)
	}
	return plan.Project(child, exprs, names)
}

// orderKeys resolves ORDER BY items over the final output schema: by output
// name, by 1-based ordinal, or by rendering match.
func (a *analyzer) orderKeys(items []OrderItem, final *plan.Node) ([]exec.SortKey, error) {
	sch := final.Schema()
	var keys []exec.SortKey
	for _, item := range items {
		var ref *expr.ColRef
		switch e := item.Expr.(type) {
		case *NumberLit:
			n, err := strconv.Atoi(e.Text)
			if err != nil || n < 1 || n > len(sch) {
				return nil, fmt.Errorf("sql: ORDER BY ordinal %s out of range", e.Text)
			}
			ref = expr.NewColRef(n-1, sch[n-1].Name, sch[n-1].Type)
		default:
			name := astString(item.Expr)
			if id, ok := item.Expr.(*Ident); ok && id.Table == "" {
				name = id.Name
			}
			for i, c := range sch {
				if strings.EqualFold(c.Name, name) {
					ref = expr.NewColRef(i, c.Name, c.Type)
					break
				}
			}
			if ref == nil {
				return nil, fmt.Errorf("sql: ORDER BY item %q not in select list", name)
			}
		}
		keys = append(keys, exec.SortKey{Expr: ref, Desc: item.Desc})
	}
	return keys, nil
}

// bindingsOf returns the distinct table bindings an expression references.
func (a *analyzer) bindingsOf(n Node, tables []boundTable) ([]string, error) {
	set := map[string]bool{}
	var walk func(n Node) error
	walk = func(n Node) error {
		switch e := n.(type) {
		case *Ident:
			b, err := a.bindingOfIdent(e, tables)
			if err != nil {
				return err
			}
			set[b] = true
		case *BinaryExpr:
			if err := walk(e.L); err != nil {
				return err
			}
			return walk(e.R)
		case *UnaryExpr:
			return walk(e.E)
		case *BetweenExpr:
			for _, s := range []Node{e.E, e.Lo, e.Hi} {
				if err := walk(s); err != nil {
					return err
				}
			}
		case *LikeExpr:
			return walk(e.E)
		case *IsNullExpr:
			return walk(e.E)
		case *FuncCall:
			if e.Arg != nil {
				return walk(e.Arg)
			}
		case *CaseExpr:
			for _, w := range e.Whens {
				if err := walk(w.Cond); err != nil {
					return err
				}
				if err := walk(w.Then); err != nil {
					return err
				}
			}
			if e.Else != nil {
				return walk(e.Else)
			}
		case *InExpr:
			if err := walk(e.E); err != nil {
				return err
			}
			for _, item := range e.List {
				if err := walk(item); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := walk(n); err != nil {
		return nil, err
	}
	var out []string
	for b := range set {
		out = append(out, b)
	}
	return out, nil
}

// bindingOfIdent resolves which table binding an identifier belongs to.
func (a *analyzer) bindingOfIdent(id *Ident, tables []boundTable) (string, error) {
	if id.Table != "" {
		for _, bt := range tables {
			if strings.EqualFold(bt.ref.Binding(), id.Table) {
				return strings.ToLower(bt.ref.Binding()), nil
			}
		}
		return "", fmt.Errorf("sql: unknown table reference %q", id.Table)
	}
	found := ""
	for _, bt := range tables {
		if i, _ := bt.table.Schema().ColumnIndex("", id.Name); i >= 0 {
			if found != "" {
				return "", fmt.Errorf("sql: ambiguous column %q", id.Name)
			}
			found = strings.ToLower(bt.ref.Binding())
		}
	}
	if found == "" {
		return "", fmt.Errorf("sql: unknown column %q", id.Name)
	}
	return found, nil
}

// asEquiJoin matches conjuncts of the form ident = ident.
func asEquiJoin(n Node) (*Ident, *Ident, bool) {
	b, ok := n.(*BinaryExpr)
	if !ok || b.Op != "=" {
		return nil, nil, false
	}
	l, lok := b.L.(*Ident)
	r, rok := b.R.(*Ident)
	if !lok || !rok {
		return nil, nil, false
	}
	return l, r, true
}

// SplitConjuncts flattens a conjunction into its AND-ed parts.
func SplitConjuncts(n Node) []Node {
	if b, ok := n.(*BinaryExpr); ok && b.Op == "AND" {
		return append(SplitConjuncts(b.L), SplitConjuncts(b.R)...)
	}
	return []Node{n}
}
