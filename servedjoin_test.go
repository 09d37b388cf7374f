package bufferdb

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"

	"bufferdb/internal/bench"
	"bufferdb/internal/plan"
)

// servedQ3 is served_analytic's q3 text (servedShapes): customer ⋈ orders ⋈
// lineitem with the sentinel on all three tables.
var servedQ3 = servedShapes[4]

// buildSides lists the tables each hash build of p reads, innermost build
// first; a build over a join lists its tables sorted, joined by "⋈".
func buildSides(p *plan.Node) []string {
	var out []string
	var walk func(n *plan.Node)
	walk = func(n *plan.Node) {
		for _, c := range n.Children {
			walk(c)
		}
		if n.Kind == plan.KindHashBuild {
			out = append(out, strings.Join(plan.Tables(n), "⋈"))
		}
	}
	walk(p)
	return out
}

// TestServedJoinBuildSide: a served hash join builds the input with the
// smaller literal-free estimate, and the paper's path — Explain and any
// forced join method — keeps the left-deep plan in FROM order, which builds
// the table joined last.
func TestServedJoinBuildSide(t *testing.T) {
	for _, tc := range []struct {
		name, text        string
		served, fromOrder []string
	}{
		{"q3", servedQ3, []string{"customer", "customer⋈orders"}, []string{"orders", "lineitem"}},
		{"lookup", adhocLookup(7), []string{"nation"}, []string{"region"}},
		{"point", `SELECT o_orderdate, l_quantity FROM orders, lineitem WHERE l_orderkey = o_orderkey AND l_orderkey = 5`,
			[]string{"lineitem"}, []string{"lineitem"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, err := testDB.planText(tc.text)
			if err != nil {
				t.Fatal(err)
			}
			if got := buildSides(p); !reflect.DeepEqual(got, tc.served) {
				t.Errorf("served plan builds %v, want %v\n%s", got, tc.served, plan.Explain(p))
			}
			for _, po := range []PlanOptions{{}, {ForceJoin: "hash"}} {
				conv, refined, err := testDB.planPair(tc.text, po, true)
				if err != nil {
					t.Fatal(err)
				}
				if got := buildSides(refined); !reflect.DeepEqual(got, tc.fromOrder) {
					t.Errorf("ForceJoin %q: plan builds %v, want FROM order %v", po.ForceJoin, got, tc.fromOrder)
				}
				var opts []PlanOption
				if po.ForceJoin != "" {
					opts = append(opts, WithForceJoin(po.ForceJoin))
				}
				orig, ref, err := testDB.Explain(tc.text, opts...)
				if err != nil {
					t.Fatal(err)
				}
				if orig != plan.Explain(conv) || ref != plan.Explain(refined) {
					t.Errorf("ForceJoin %q: Explain is not the FROM-order plan:\n%s", po.ForceJoin, ref)
				}
			}
		})
	}
}

// fromList matches a comma-separated FROM list.
var fromList = regexp.MustCompile(`FROM ([a-z_]+(?:, [a-z_]+)*)`)

// fromPermutations returns text once per ordering of its FROM list.
func fromPermutations(text string) []string {
	m := fromList.FindStringSubmatchIndex(text)
	tables := strings.Split(text[m[2]:m[3]], ", ")
	var out []string
	var permute func(k int)
	permute = func(k int) {
		if k == len(tables) {
			out = append(out, text[:m[2]]+strings.Join(tables, ", ")+text[m[3]:])
			return
		}
		for i := k; i < len(tables); i++ {
			tables[k], tables[i] = tables[i], tables[k]
			permute(k + 1)
			tables[k], tables[i] = tables[i], tables[k]
		}
	}
	permute(0)
	return out
}

// floatTolerance bounds the relative difference of a DOUBLE result cell
// between two join orders: a sum folds its rows in the order the probe
// streams them, so the last bits may differ. Every other cell is exact.
const floatTolerance = 1e-9

// sameRowSets reports how got and want differ as multisets of rows — "" when
// they agree, integers, strings and dates exactly and DOUBLE cells within
// floatTolerance. Rows are sorted by their non-DOUBLE cells, then their
// DOUBLE cells, since a join order without ORDER BY changes the row order.
func sameRowSets(got, want [][]any) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d rows, want %d", len(got), len(want))
	}
	less := func(a, b []any) bool {
		for pass := 0; pass < 2; pass++ {
			for i := range a {
				fa, aok := a[i].(float64)
				fb, bok := b[i].(float64)
				switch {
				case pass == 0 && !aok && !bok:
					if sa, sb := fmt.Sprint(a[i]), fmt.Sprint(b[i]); sa != sb {
						return sa < sb
					}
				case pass == 1 && aok && bok && fa != fb:
					return fa < fb
				}
			}
		}
		return false
	}
	g, w := append([][]any(nil), got...), append([][]any(nil), want...)
	sort.SliceStable(g, func(i, j int) bool { return less(g[i], g[j]) })
	sort.SliceStable(w, func(i, j int) bool { return less(w[i], w[j]) })
	for r := range g {
		if len(g[r]) != len(w[r]) {
			return fmt.Sprintf("row %d has %d cells, want %d", r, len(g[r]), len(w[r]))
		}
		for c := range g[r] {
			fg, gok := g[r][c].(float64)
			fw, wok := w[r][c].(float64)
			if gok && wok {
				if math.Abs(fg-fw) > floatTolerance*math.Max(math.Abs(fw), 1) {
					return fmt.Sprintf("row %d cell %d = %v, want %v", r, c, fg, fw)
				}
				continue
			}
			if !reflect.DeepEqual(g[r][c], w[r][c]) {
				return fmt.Sprintf("row %d cell %d = %v (%T), want %v (%T)", r, c, g[r][c], g[r][c], w[r][c], w[r][c])
			}
		}
	}
	return ""
}

// TestServedJoinPermutations is the build side's differential: for every
// connected FROM ordering of q3, TPC-H Q5 and Q10, the lookup and two
// SELECT * joins, the served plan (db.Query) must return the rows of the
// FROM-order plan (planPair) run on the served executor, and SELECT * must
// name its columns in FROM order whichever side was built. It runs at SF
// 0.0005: Q5's orderings that join customer to supplier on the nation key
// first build an intermediate that grows with the square of the scale.
func TestServedJoinPermutations(t *testing.T) {
	ctx := context.Background()
	db, err := OpenTPCH(0.0005, Options{})
	if err != nil {
		t.Fatal(err)
	}
	texts := []string{
		servedQ3, bench.TPCHQ5, bench.TPCHQ10, adhocLookup(7),
		`SELECT * FROM nation, region WHERE n_regionkey = r_regionkey AND n_nationkey = 3`,
		`SELECT * FROM customer, orders WHERE c_custkey = o_custkey AND c_mktsegment = 'BUILDING' AND o_orderdate < DATE '1995-03-15'`,
	}
	permutations, swapped, starSwapped := 0, 0, 0
	for ti, text := range texts {
		for _, perm := range fromPermutations(text) {
			_, fromOrder, err := db.planPair(perm, PlanOptions{}, true)
			if err != nil {
				if strings.Contains(err.Error(), "no equi-join condition connects") {
					continue // a FROM prefix with no join edge: not a connected ordering
				}
				t.Fatalf("text %d: %v\n%s", ti, err, perm)
			}
			permutations++
			want, err := collect(db.execPlan(ctx, fromOrder, QueryOptions{}))
			if err != nil {
				t.Fatalf("text %d FROM order: %v\n%s", ti, err, perm)
			}
			served, err := db.freshServed(perm)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(buildSides(served), buildSides(fromOrder)) {
				swapped++
				if strings.HasPrefix(perm, "SELECT *") {
					starSwapped++
				}
			}
			got, err := db.Query(ctx, perm)
			if err != nil {
				t.Fatalf("text %d served: %v\n%s", ti, err, perm)
			}
			if !reflect.DeepEqual(got.Columns, want.Columns) {
				t.Errorf("text %d: served columns %v, FROM order %v\n%s", ti, got.Columns, want.Columns, perm)
			}
			if len(want.Rows) == 0 {
				t.Errorf("text %d: no rows, the comparison shows nothing\n%s", ti, perm)
			}
			if diff := sameRowSets(got.Rows, want.Rows); diff != "" {
				t.Errorf("text %d: served %s\n%s", ti, diff, perm)
			}
		}
	}
	if swapped == 0 || starSwapped == 0 {
		t.Fatalf("%d orderings, %d built another side (%d SELECT *): the test exercised nothing",
			permutations, swapped, starSwapped)
	}
	t.Logf("%d connected orderings, %d built another side than FROM order (%d SELECT *)", permutations, swapped, starSwapped)
}
