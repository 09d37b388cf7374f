package dist

import (
	"errors"
	"fmt"
	"strings"

	"bufferdb"
	"bufferdb/internal/plan"
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
	// merge is the gather phase: the analyzer's plan of a statement over
	// the legs' gathered stream, read as one table of shardSchema. Its one
	// SeqScan compiles to that stream (Rows.start).
	merge *plan.Node
}

// plan analyzes one query against the shard map. A query touching only
// replicated tables runs whole, as one leg; queries over sharded tables
// are checked for co-location and rewritten into a scatter phase (shard
// SQL, one leg per slice) plus a gather phase (a merge statement over the
// legs' stream, planned by the same analyzer).
func (c *Coordinator) plan(sqlText string) (*distPlan, error) {
	shape, err := sql.Lex(sqlText)
	if err != nil {
		return nil, err
	}
	if shape.IsInsert() {
		return nil, fmt.Errorf("dist: INSERT is not supported on a sharded deployment: %w", bufferdb.ErrReadOnly)
	}
	stmt, err := shape.Parse()
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
		return c.planReplicated(stmt, sqlText)
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
// unaddressed leg running the original text, merged by SELECT *: the leg
// itself, analyzed as a single node does, so its errors read alike. Its
// candidates are every node, starting from the next one in round-robin
// order, so such queries spread across the fleet and fail over like any leg.
func (c *Coordinator) planReplicated(stmt *sql.SelectStmt, sqlText string) (*distPlan, error) {
	p, err := sql.Analyze(stmt, c.cat, sql.Options{})
	if err != nil {
		return nil, err
	}
	schema := p.Schema()
	merge, err := mergePlan(&sql.SelectStmt{Items: selectStar, Limit: -1}, schema)
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
		merge:       merge,
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
		conjuncts = sql.SplitConjuncts(stmt.Where)
	}
	for _, j := range stmt.Joins {
		conjuncts = append(conjuncts, sql.SplitConjuncts(j.On)...)
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

// --- non-aggregate scatter ------------------------------------------------

// planScan scatters a projection/filter query. Its merge is SELECT * over
// the legs with the original ORDER BY and LIMIT: without ORDER BY the
// merged stream concatenates shard streams in shard order; with it the
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
	merge, err := mergePlan(&sql.SelectStmt{Items: selectStar, OrderBy: stmt.OrderBy, Limit: stmt.Limit}, schema)
	if err != nil {
		return nil, err
	}
	return &distPlan{shardSQL: shardSQL, shardSchema: schema, merge: merge}, nil
}

// --- aggregate scatter ----------------------------------------------------

// planAggregate rewrites an aggregation into shard-local partials plus a
// merge statement over them:
//
//	COUNT(*) / COUNT(x) → shard COUNT, merged with SUM (exact, integer)
//	SUM / MIN / MAX     → shard partial, merged with the same function
//	AVG(x)              → shard SUM(x), COUNT(x); merged SUM ÷ merged SUM
//
// Group-by expressions compute shard-side (aliased __g0, __g1, …) and the
// merge groups on those columns. The merge keeps the original select list
// with each group expression and aggregate call replaced by its merged
// form, every item aliased with its single-node name, and the original
// ORDER BY and LIMIT; the analyzer plans it as it would on one node.
func (c *Coordinator) planAggregate(stmt *sql.SelectStmt) (*distPlan, error) {
	var shardItems []sql.SelectItem
	var groupBy []sql.Node
	// merged maps an expression's rendering to its form over the legs:
	// group keys first, then aggregate calls as discovery reaches them.
	merged := map[string]sql.Node{}
	for i, g := range stmt.GroupBy {
		alias := fmt.Sprintf("__g%d", i)
		shardItems = append(shardItems, sql.SelectItem{Expr: g, Alias: alias})
		groupBy = append(groupBy, &sql.Ident{Name: alias})
		merged[sql.NodeString(g)] = groupBy[i]
	}

	// Discover aggregate calls in the analyzer's order (select-list order,
	// descending only through binary/unary arithmetic, deduplicated by
	// rendering) so partial positions line up with single-node planning.
	nPartials := 0
	partial := func(e sql.Node, suffix string) *sql.Ident {
		alias := fmt.Sprintf("__a%d%s", nPartials, suffix)
		shardItems = append(shardItems, sql.SelectItem{Expr: e, Alias: alias})
		return &sql.Ident{Name: alias}
	}
	var rewrite func(n sql.Node) (sql.Node, error)
	rewrite = func(n sql.Node) (sql.Node, error) {
		key := sql.NodeString(n)
		if m, ok := merged[key]; ok {
			return m, nil
		}
		switch e := n.(type) {
		case *sql.FuncCall:
			var m sql.Node
			switch e.Name {
			case "COUNT", "SUM", "MIN", "MAX":
				fn := e.Name
				if fn == "COUNT" {
					fn = "SUM"
				}
				m = &sql.FuncCall{Name: fn, Arg: partial(e, "")}
				nPartials++
			case "AVG":
				sum := partial(&sql.FuncCall{Name: "SUM", Arg: e.Arg}, "_s")
				count := partial(&sql.FuncCall{Name: "COUNT", Arg: e.Arg}, "_c")
				m = &sql.BinaryExpr{Op: "/",
					L: &sql.FuncCall{Name: "SUM", Arg: sum}, R: &sql.FuncCall{Name: "SUM", Arg: count}}
				nPartials += 2
			default:
				return nil, fmt.Errorf("dist: unknown aggregate %s", e.Name)
			}
			merged[key] = m
			return m, nil
		case *sql.BinaryExpr:
			l, err := rewrite(e.L)
			if err != nil {
				return nil, err
			}
			r, err := rewrite(e.R)
			if err != nil {
				return nil, err
			}
			return &sql.BinaryExpr{Op: e.Op, L: l, R: r}, nil
		case *sql.UnaryExpr:
			inner, err := rewrite(e.E)
			if err != nil {
				return nil, err
			}
			return &sql.UnaryExpr{Op: e.Op, E: inner}, nil
		default:
			// Anything else stays as written: a literal plans as one, and
			// a bare column or an aggregate nested elsewhere draws the
			// analyzer's own error from the merge statement.
			return n, nil
		}
	}
	items := make([]sql.SelectItem, len(stmt.Items))
	for i, item := range stmt.Items {
		if item.Star {
			items[i] = item
			continue
		}
		e, err := rewrite(item.Expr)
		if err != nil {
			return nil, err
		}
		name := item.Alias
		if name == "" {
			name = sql.NodeString(item.Expr)
		}
		items[i] = sql.SelectItem{Expr: e, Alias: name}
	}
	if nPartials == 0 {
		return nil, fmt.Errorf("dist: GROUP BY without aggregates is unsupported")
	}

	shardSQL := render(&sql.SelectStmt{
		Items:   shardItems,
		From:    stmt.From,
		Joins:   stmt.Joins,
		Where:   stmt.Where,
		GroupBy: stmt.GroupBy,
		Limit:   -1,
	})
	schema, err := c.validateShardSQL(shardSQL)
	if err != nil {
		return nil, err
	}
	merge, err := mergePlan(&sql.SelectStmt{
		Items: items, GroupBy: groupBy, OrderBy: stmt.OrderBy, Limit: stmt.Limit,
	}, schema)
	if err != nil {
		return nil, err
	}
	return &distPlan{shardSQL: shardSQL, shardSchema: schema, merge: merge}, nil
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

// legsTable names the one table a merge statement reads: the legs'
// gathered stream.
const legsTable = "__legs"

// selectStar is the select list of a merge that passes the stream through.
var selectStar = []sql.SelectItem{{Star: true}}

// mergePlan plans the gather phase: stmt reads the legs' gathered stream as
// one schema-only table of shardSchema, and the single-node analyzer plans
// it, so the merge resolves names, types, dates and ORDER BY exactly as one
// node does and its planning errors are the single node's.
func mergePlan(stmt *sql.SelectStmt, shardSchema storage.Schema) (*plan.Node, error) {
	cat := storage.NewCatalog()
	cat.MustAdd(storage.NewTable(legsTable, shardSchema))
	stmt.From = []sql.TableRef{{Name: legsTable}}
	return sql.Analyze(stmt, cat, sql.Options{})
}
