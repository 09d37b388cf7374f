package dist

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"bufferdb"
	"bufferdb/internal/codemodel"
	"bufferdb/internal/exec"
	"bufferdb/internal/expr"
	"bufferdb/internal/sql"
	"bufferdb/internal/storage"
)

// ErrNotDistributable is wrapped when a query's joins cannot run
// shard-local under the shard map: it references sharded tables that are
// not equi-joined on their sharding columns, so no scatter produces the
// single-node answer. The dynamic error names the offending tables.
var ErrNotDistributable = errors.New("dist: query is not distributable under the shard map")

// leg is one remote stream of a plan: the hash slice it reads and the
// nodes that may serve it, in routing order. An unaddressed leg (slice -1)
// reads a node's primary database, which holds every replicated table in
// full, so any node serves it.
type leg struct {
	slice int
	nodes []int
}

// distPlan is the coordinator's compiled form of one query.
type distPlan struct {
	// legs are the remote streams: one per hash slice for a scatter, one
	// unaddressed leg for a replicated-only query.
	legs []leg
	// shardSQL is the text every leg executes.
	shardSQL string
	// shardSchema is the schema of one leg's result stream.
	shardSchema storage.Schema
	// merge builds the coordinator pipeline above the legs.
	merge func(parts []exec.Operator) (exec.Operator, error)
	// replayable marks legs whose streams are deterministic (no aggregate),
	// so a mid-stream failover can re-issue the leg on another node and
	// skip the rows already merged. Aggregate legs are not replayable: the
	// shard's group stream order is not stable across runs, so a mid-stream
	// loss after rows flowed forces a full scatter restart instead.
	replayable bool
}

// plan analyzes one query against the shard map. A query touching only
// replicated tables runs whole, as one leg; queries over sharded tables
// are checked for co-location and rewritten into a scatter phase (shard
// SQL, one leg per slice) plus a gather phase (local merge pipeline).
func (c *Coordinator) plan(sqlText string) (*distPlan, error) {
	if sql.IsInsert(sqlText) {
		return nil, fmt.Errorf("dist: INSERT is not supported on a sharded deployment: %w", bufferdb.ErrReadOnly)
	}
	stmt, err := sql.Parse(sqlText)
	if err != nil {
		return nil, err
	}

	hasAgg := len(stmt.GroupBy) > 0
	for _, item := range stmt.Items {
		if !item.Star && sql.ContainsAggregate(item.Expr) {
			hasAgg = true
		}
	}
	refs := append([]sql.TableRef{}, stmt.From...)
	for _, j := range stmt.Joins {
		refs = append(refs, j.Table)
	}
	var shardedRefs []sql.TableRef
	for _, r := range refs {
		if c.smap.Sharded(r.Name) {
			shardedRefs = append(shardedRefs, r)
		}
	}
	if len(shardedRefs) == 0 {
		return c.planReplicated(sqlText, !hasAgg)
	}
	if err := c.checkColocated(stmt, refs, shardedRefs); err != nil {
		return nil, err
	}

	var p *distPlan
	if hasAgg {
		p, err = c.planAggregate(stmt)
	} else {
		p, err = c.planScan(stmt)
	}
	if err != nil {
		return nil, err
	}
	p.legs = c.slices
	return p, nil
}

// planReplicated plans a query over replicated tables only as one
// unaddressed leg running the original text, with the leg itself as the
// merge. Its candidates are every node, starting from the next one in
// round-robin order, so such queries spread across the fleet and fail over
// like any leg.
func (c *Coordinator) planReplicated(sqlText string, replayable bool) (*distPlan, error) {
	schema, err := c.validateShardSQL(sqlText)
	if err != nil {
		return nil, err
	}
	n := len(c.shards)
	start := int((c.rr.Add(1) - 1) % uint64(n))
	nodes := make([]int, n)
	for k := range nodes {
		nodes[k] = (start + k) % n
	}
	return &distPlan{
		legs:        []leg{{slice: -1, nodes: nodes}},
		shardSQL:    sqlText,
		shardSchema: schema,
		replayable:  replayable,
		merge:       func(parts []exec.Operator) (exec.Operator, error) { return parts[0], nil },
	}, nil
}

// --- co-location ---------------------------------------------------------

// checkColocated verifies every sharded table's sharding column sits in one
// equivalence class of the query's equi-join conditions, so each shard's
// slice joins only with itself and the scatter is lossless.
func (c *Coordinator) checkColocated(stmt *sql.SelectStmt, refs, shardedRefs []sql.TableRef) error {
	if len(shardedRefs) == 1 {
		return nil
	}
	uf := map[string]string{}
	var find func(x string) string
	find = func(x string) string {
		r, ok := uf[x]
		if !ok || r == x {
			uf[x] = x
			return x
		}
		root := find(r)
		uf[x] = root
		return root
	}
	union := func(a, b string) { uf[find(a)] = find(b) }

	keyOf := func(id *sql.Ident) string {
		b := strings.ToLower(id.Table)
		if b == "" {
			// Unqualified: resolve against the referenced tables' schemas.
			for _, r := range refs {
				t, err := c.cat.Table(r.Name)
				if err != nil {
					continue
				}
				if i, _ := t.Schema().ColumnIndex("", id.Name); i >= 0 {
					b = strings.ToLower(r.Binding())
					break
				}
			}
		}
		return b + "." + strings.ToLower(id.Name)
	}

	var conjuncts []sql.Node
	if stmt.Where != nil {
		conjuncts = splitAnd(stmt.Where)
	}
	for _, j := range stmt.Joins {
		conjuncts = append(conjuncts, splitAnd(j.On)...)
	}
	for _, cj := range conjuncts {
		b, ok := cj.(*sql.BinaryExpr)
		if !ok || b.Op != "=" {
			continue
		}
		l, lok := b.L.(*sql.Ident)
		r, rok := b.R.(*sql.Ident)
		if lok && rok {
			union(keyOf(l), keyOf(r))
		}
	}

	root := ""
	var names []string
	for _, r := range shardedRefs {
		names = append(names, r.Name)
		key := strings.ToLower(r.Binding()) + "." + strings.ToLower(c.smap.ShardColumn(r.Name))
		if root == "" {
			root = find(key)
		} else if find(key) != root {
			return fmt.Errorf("%w: tables %s are not equi-joined on their sharding columns",
				ErrNotDistributable, strings.Join(names, ", "))
		}
	}
	return nil
}

// splitAnd flattens a conjunction into its AND-ed parts.
func splitAnd(n sql.Node) []sql.Node {
	if b, ok := n.(*sql.BinaryExpr); ok && b.Op == "AND" {
		return append(splitAnd(b.L), splitAnd(b.R)...)
	}
	return []sql.Node{n}
}

// --- non-aggregate scatter ------------------------------------------------

// planScan scatters a projection/filter query. Without ORDER BY the merged
// stream concatenates shard streams in shard order; with ORDER BY the
// coordinator re-sorts the gathered rows (shards keep ORDER BY only when a
// LIMIT rides on it, as a top-N pushdown that bounds what each shard
// ships).
func (c *Coordinator) planScan(stmt *sql.SelectStmt) (*distPlan, error) {
	shardStmt := *stmt
	if len(stmt.OrderBy) > 0 && stmt.Limit < 0 {
		// Sorting shard-side would be wasted work: the coordinator must
		// re-sort the merged stream anyway.
		shardStmt.OrderBy = nil
	}
	shardSQL := render(&shardStmt)
	schema, err := c.validateShardSQL(shardSQL)
	if err != nil {
		return nil, err
	}

	var keys []exec.SortKey
	if len(stmt.OrderBy) > 0 {
		keys, err = orderKeysOver(stmt.OrderBy, schema)
		if err != nil {
			return nil, err
		}
	}
	limit := stmt.Limit
	return &distPlan{
		shardSQL:    shardSQL,
		shardSchema: schema,
		replayable:  true,
		merge: func(parts []exec.Operator) (exec.Operator, error) {
			ex, err := exec.NewExchange(parts)
			if err != nil {
				return nil, err
			}
			var node exec.Operator = ex
			if len(keys) > 0 {
				node = exec.NewSort(node, keys, nil)
			}
			if limit >= 0 {
				node = exec.NewLimit(node, limit)
			}
			return node, nil
		},
	}, nil
}

// --- aggregate scatter ----------------------------------------------------

// partialAgg is one original aggregate call and its shard-side partials.
type partialAgg struct {
	fn  string // COUNT | COUNT* | SUM | AVG | MIN | MAX
	pos int    // merged-aggregate position of the (first) partial
}

// planAggregate rewrites an aggregation into shard-local partials plus a
// coordinator merge:
//
//	COUNT(*) / COUNT(x) → shard COUNT, merged with SUM (exact, integer)
//	SUM / MIN / MAX     → shard partial, merged with the same function
//	AVG(x)              → shard SUM(x), COUNT(x); merged sums divided
//
// Group-by expressions compute shard-side (aliased __g0, __g1, …) so the
// coordinator groups on opaque columns; the final projection re-applies the
// original select-list shape — including arithmetic over aggregates — and
// restores the single-node output names.
func (c *Coordinator) planAggregate(stmt *sql.SelectStmt) (*distPlan, error) {
	var shardItems []sql.SelectItem
	groupKey := map[string]int{}
	for i, g := range stmt.GroupBy {
		groupKey[sql.NodeString(g)] = i
		shardItems = append(shardItems, sql.SelectItem{Expr: g, Alias: fmt.Sprintf("__g%d", i)})
	}
	nGroups := len(stmt.GroupBy)

	// Discover aggregate calls in the analyzer's order (select-list order,
	// descending only through binary/unary arithmetic, deduplicated by
	// rendering) so partial positions line up with single-node planning.
	var aggs []partialAgg
	aggKey := map[string]int{}
	nPartials := 0
	var collect func(n sql.Node) error
	collect = func(n sql.Node) error {
		switch e := n.(type) {
		case *sql.FuncCall:
			key := sql.NodeString(e)
			if _, ok := aggKey[key]; ok {
				return nil
			}
			aggKey[key] = len(aggs)
			switch e.Name {
			case "COUNT", "SUM", "MIN", "MAX":
				fn := e.Name
				if e.Name == "COUNT" && e.Star {
					fn = "COUNT*"
				}
				aggs = append(aggs, partialAgg{fn: fn, pos: nPartials})
				shardItems = append(shardItems, sql.SelectItem{
					Expr: e, Alias: fmt.Sprintf("__a%d", nPartials)})
				nPartials++
			case "AVG":
				aggs = append(aggs, partialAgg{fn: "AVG", pos: nPartials})
				shardItems = append(shardItems,
					sql.SelectItem{Expr: &sql.FuncCall{Name: "SUM", Arg: e.Arg},
						Alias: fmt.Sprintf("__a%d_s", nPartials)},
					sql.SelectItem{Expr: &sql.FuncCall{Name: "COUNT", Arg: e.Arg},
						Alias: fmt.Sprintf("__a%d_c", nPartials)})
				nPartials += 2
			default:
				return fmt.Errorf("dist: unknown aggregate %s", e.Name)
			}
			return nil
		case *sql.BinaryExpr:
			if err := collect(e.L); err != nil {
				return err
			}
			return collect(e.R)
		case *sql.UnaryExpr:
			return collect(e.E)
		default:
			if sql.ContainsAggregate(n) {
				return fmt.Errorf("dist: unsupported select-list expression %s over aggregation", sql.NodeString(n))
			}
			return nil
		}
	}
	for _, item := range stmt.Items {
		if item.Star {
			return nil, fmt.Errorf("dist: SELECT * cannot be combined with aggregation")
		}
		if err := collect(item.Expr); err != nil {
			return nil, err
		}
	}
	if len(aggs) == 0 {
		return nil, fmt.Errorf("dist: GROUP BY without aggregates is unsupported")
	}

	shardStmt := sql.SelectStmt{
		Items:   shardItems,
		From:    stmt.From,
		Joins:   stmt.Joins,
		Where:   stmt.Where,
		GroupBy: stmt.GroupBy,
		Limit:   -1,
	}
	shardSQL := render(&shardStmt)
	schema, err := c.validateShardSQL(shardSQL)
	if err != nil {
		return nil, err
	}

	// Merge aggregates: one spec per shard partial, re-aggregating the
	// partial column under the combining function.
	var mergeAggs []expr.AggSpec
	for _, pa := range aggs {
		mk := func(fn expr.AggFunc, pos int) {
			col := nGroups + pos
			mergeAggs = append(mergeAggs, expr.AggSpec{
				Func: fn,
				Arg:  expr.NewColRef(col, schema[col].Name, schema[col].Type),
				As:   schema[col].Name,
			})
		}
		switch pa.fn {
		case "COUNT", "COUNT*", "SUM":
			mk(expr.AggSum, pa.pos)
		case "MIN":
			mk(expr.AggMin, pa.pos)
		case "MAX":
			mk(expr.AggMax, pa.pos)
		case "AVG":
			mk(expr.AggSum, pa.pos)   // __aN_s
			mk(expr.AggSum, pa.pos+1) // __aN_c
		}
	}
	groupRefs := make([]expr.Expr, nGroups)
	for i := 0; i < nGroups; i++ {
		groupRefs[i] = expr.NewColRef(i, schema[i].Name, schema[i].Type)
	}

	// Precompute the final projection over the merged-aggregate schema, and
	// the single-node output names.
	probe, err := exec.NewAggregate(stubOp{schema: schema}, groupRefs, mergeAggs, nil)
	if err != nil {
		return nil, err
	}
	msch := probe.Schema()
	var finalExprs []expr.Expr
	var names []string
	for _, item := range stmt.Items {
		e, err := finalExpr(item.Expr, groupKey, aggKey, aggs, nGroups, msch)
		if err != nil {
			return nil, err
		}
		finalExprs = append(finalExprs, e)
		name := item.Alias
		if name == "" {
			name = sql.NodeString(item.Expr)
		}
		names = append(names, name)
	}
	outSchema := make(storage.Schema, len(finalExprs))
	for i, e := range finalExprs {
		outSchema[i] = storage.Column{Name: names[i], Type: e.Type()}
	}
	var keys []exec.SortKey
	if len(stmt.OrderBy) > 0 {
		keys, err = orderKeysOver(stmt.OrderBy, outSchema)
		if err != nil {
			return nil, err
		}
	}
	limit := stmt.Limit

	return &distPlan{
		shardSQL:    shardSQL,
		shardSchema: schema,
		merge: func(parts []exec.Operator) (exec.Operator, error) {
			ex, err := exec.NewExchange(parts)
			if err != nil {
				return nil, err
			}
			agg, err := exec.NewAggregate(ex, groupRefs, mergeAggs, nil)
			if err != nil {
				return nil, err
			}
			var node exec.Operator
			node, err = exec.NewProject(agg, finalExprs, names, nil)
			if err != nil {
				return nil, err
			}
			if len(keys) > 0 {
				node = exec.NewSort(node, keys, nil)
			}
			if limit >= 0 {
				node = exec.NewLimit(node, limit)
			}
			return node, nil
		},
	}, nil
}

// finalExpr rewrites one select-list expression over the merged-aggregate
// schema: group keys and aggregate calls become column references (AVG
// becomes merged-sum ÷ merged-count), arithmetic re-applies on top.
func finalExpr(n sql.Node, groupKey, aggKey map[string]int, aggs []partialAgg,
	nGroups int, msch storage.Schema) (expr.Expr, error) {

	key := sql.NodeString(n)
	if i, ok := groupKey[key]; ok {
		return expr.NewColRef(i, msch[i].Name, msch[i].Type), nil
	}
	if i, ok := aggKey[key]; ok {
		pa := aggs[i]
		ref := func(off int) *expr.ColRef {
			pos := nGroups + pa.pos + off
			return expr.NewColRef(pos, msch[pos].Name, msch[pos].Type)
		}
		if pa.fn == "AVG" {
			return expr.NewBinary(expr.OpDiv, ref(0), ref(1))
		}
		return ref(0), nil
	}
	switch e := n.(type) {
	case *sql.BinaryExpr:
		l, err := finalExpr(e.L, groupKey, aggKey, aggs, nGroups, msch)
		if err != nil {
			return nil, err
		}
		r, err := finalExpr(e.R, groupKey, aggKey, aggs, nGroups, msch)
		if err != nil {
			return nil, err
		}
		return binaryExpr(e.Op, l, r)
	case *sql.UnaryExpr:
		inner, err := finalExpr(e.E, groupKey, aggKey, aggs, nGroups, msch)
		if err != nil {
			return nil, err
		}
		if e.Op == "-" {
			return expr.NewNeg(inner)
		}
		return expr.NewNot(inner)
	case *sql.NumberLit:
		if e.IsInt {
			v, err := strconv.ParseInt(e.Text, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("dist: bad integer literal %q", e.Text)
			}
			return expr.NewConst(storage.NewInt(v)), nil
		}
		v, err := strconv.ParseFloat(e.Text, 64)
		if err != nil {
			return nil, fmt.Errorf("dist: bad numeric literal %q", e.Text)
		}
		return expr.NewConst(storage.NewFloat(v)), nil
	case *sql.StringLit:
		return expr.NewConst(storage.NewString(e.Val)), nil
	case *sql.DateLit:
		d, err := storage.ParseDate(e.Val)
		if err != nil {
			return nil, err
		}
		return expr.NewConst(d), nil
	case *sql.IntervalLit:
		return expr.NewConst(storage.NewInt(e.Days)), nil
	case *sql.NullLit:
		return expr.NewConst(storage.Null), nil
	case *sql.BoolLit:
		return expr.NewConst(storage.NewBool(e.Val)), nil
	case *sql.Ident:
		return nil, fmt.Errorf("dist: column %s must appear in GROUP BY or inside an aggregate", key)
	default:
		return nil, fmt.Errorf("dist: unsupported select-list expression %s over aggregation", key)
	}
}

// binaryExpr maps an AST operator onto a typed expression.
func binaryExpr(op string, l, r expr.Expr) (expr.Expr, error) {
	var bop expr.BinOp
	switch op {
	case "+":
		bop = expr.OpAdd
	case "-":
		bop = expr.OpSub
	case "*":
		bop = expr.OpMul
	case "/":
		bop = expr.OpDiv
	case "=":
		bop = expr.OpEq
	case "<>":
		bop = expr.OpNe
	case "<":
		bop = expr.OpLt
	case "<=":
		bop = expr.OpLe
	case ">":
		bop = expr.OpGt
	case ">=":
		bop = expr.OpGe
	case "AND":
		bop = expr.OpAnd
	case "OR":
		bop = expr.OpOr
	default:
		return nil, fmt.Errorf("dist: unknown operator %q", op)
	}
	return expr.NewBinary(bop, l, r)
}

// orderKeysOver resolves ORDER BY items over an output schema, mirroring
// the single-node analyzer: 1-based ordinals, output-column names, or the
// rendering of the select item.
func orderKeysOver(items []sql.OrderItem, sch storage.Schema) ([]exec.SortKey, error) {
	var keys []exec.SortKey
	for _, item := range items {
		var ref *expr.ColRef
		switch e := item.Expr.(type) {
		case *sql.NumberLit:
			n, err := strconv.Atoi(e.Text)
			if err != nil || n < 1 || n > len(sch) {
				return nil, fmt.Errorf("dist: ORDER BY ordinal %s out of range", e.Text)
			}
			ref = expr.NewColRef(n-1, sch[n-1].Name, sch[n-1].Type)
		default:
			name := sql.NodeString(item.Expr)
			if id, ok := item.Expr.(*sql.Ident); ok && id.Table == "" {
				name = id.Name
			}
			for i, col := range sch {
				if strings.EqualFold(col.Name, name) {
					ref = expr.NewColRef(i, col.Name, col.Type)
					break
				}
			}
			if ref == nil {
				return nil, fmt.Errorf("dist: ORDER BY item %q not in select list", name)
			}
		}
		keys = append(keys, exec.SortKey{Expr: ref, Desc: item.Desc})
	}
	return keys, nil
}

// validateShardSQL re-parses and analyzes the rendered shard statement
// against the schema-only catalog: the round trip proves the renderer's
// output is valid for the shards' own parsers, and the resulting plan's
// schema is exactly what each shard will stream back.
func (c *Coordinator) validateShardSQL(shardSQL string) (storage.Schema, error) {
	p, err := sql.PlanQuery(shardSQL, c.cat, sql.Options{})
	if err != nil {
		return nil, fmt.Errorf("dist: shard statement %q failed validation: %w", shardSQL, err)
	}
	return p.Schema(), nil
}

// stubOp is a schema-only operator used to probe derived schemas at plan
// time; it is never opened.
type stubOp struct {
	schema storage.Schema
}

func (s stubOp) Open(*exec.Context) error { return errors.New("dist: stub operator") }
func (s stubOp) Next(*exec.Context) (storage.Row, error) {
	return nil, errors.New("dist: stub operator")
}
func (s stubOp) Close(*exec.Context) error { return nil }
func (s stubOp) Schema() storage.Schema    { return s.schema }
func (s stubOp) Children() []exec.Operator { return nil }
func (s stubOp) Name() string              { return "Stub" }
func (s stubOp) Module() *codemodel.Module { return nil }
func (s stubOp) Blocking() bool            { return false }
