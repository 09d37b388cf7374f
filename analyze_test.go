package bufferdb

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bufferdb/internal/exec"
	"bufferdb/internal/expr"
	"bufferdb/internal/plan"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files with current output")

// goldenCompare checks got against testdata/<name>.golden, rewriting the
// file under -update.
func goldenCompare(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("output differs from %s (run with -update to refresh):\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

const analyzeQuery = `
	SELECT l_returnflag, COUNT(*) AS orders, SUM(l_extendedprice) AS revenue
	FROM lineitem
	WHERE l_quantity > 10
	GROUP BY l_returnflag
	ORDER BY l_returnflag`

// TestGoldenExplain pins the Explain rendering (conventional and refined)
// for a refined TPC-H aggregation.
func TestGoldenExplain(t *testing.T) {
	orig, refined, err := testDB.Explain(analyzeQuery)
	if err != nil {
		t.Fatal(err)
	}
	goldenCompare(t, "explain_agg", "-- conventional:\n"+orig+"-- refined:\n"+refined)
}

// TestGoldenExplainAnalyze pins the deterministic columns of the
// EXPLAIN ANALYZE table (operator, engine, group, calls, rows, drains,
// avgfill) across both engines.
func TestGoldenExplainAnalyze(t *testing.T) {
	cases := []struct {
		name string
		opts []QueryOption
	}{
		{"analyze_volcano", nil},
		{"analyze_vec", []QueryOption{WithEngine(EngineVec)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, err := testDB.ExplainAnalyze(context.Background(), analyzeQuery, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			goldenCompare(t, tc.name, a.Table())
		})
	}
}

// TestAnalyzeAttributionSums is the acceptance check: on a refined TPC-H
// aggregation the per-operator self attributions (cycles, instruction-cache
// misses) must sum, within slack, to the run's whole-query totals — on both
// engines.
func TestAnalyzeAttributionSums(t *testing.T) {
	for _, eng := range []Engine{EngineVolcano, EngineVec} {
		t.Run(string(eng), func(t *testing.T) {
			a, err := testDB.ExplainAnalyze(context.Background(), analyzeQuery, WithEngine(eng))
			if err != nil {
				t.Fatal(err)
			}
			var selfCycles float64
			var selfL1I uint64
			var sawBuffer, sawDrains bool
			a.Root.Walk(func(s *OpStat) {
				selfCycles += s.SelfCycles
				selfL1I += s.SelfL1I
				if s.Calls == 0 && s.Opens == 0 {
					t.Errorf("operator %s never invoked", s.Name)
				}
				if s.Buffer {
					sawBuffer = true
					if s.Drains > 0 {
						sawDrains = true
					}
				}
			})
			// The block engine batches natively, so explicit buffer
			// operators with drain counts only appear on the Volcano side.
			if eng == EngineVolcano && (!sawBuffer || !sawDrains) {
				t.Fatalf("refined plan shows no draining buffer (buffer=%v drains=%v):\n%s", sawBuffer, sawDrains, a.String())
			}
			if a.Totals.Cycles <= 0 {
				t.Fatalf("no simulated cycles recorded")
			}
			if rel := math.Abs(selfCycles-a.Totals.Cycles) / a.Totals.Cycles; rel > 0.05 {
				t.Errorf("self cycles sum %.0f vs totals %.0f (off by %.1f%%)", selfCycles, a.Totals.Cycles, rel*100)
			}
			diff := math.Abs(float64(selfL1I) - float64(a.Totals.L1IMisses))
			if diff > 8 && diff > 0.1*float64(a.Totals.L1IMisses) {
				t.Errorf("self L1I sum %d vs totals %d", selfL1I, a.Totals.L1IMisses)
			}
			// Rows at the root of the stat tree match the statement's result.
			res, err := testDB.Query(context.Background(), analyzeQuery, WithEngine(eng))
			if err != nil {
				t.Fatal(err)
			}
			if a.Root.Rows != uint64(len(res.Rows)) {
				t.Errorf("root stat rows %d, query returned %d", a.Root.Rows, len(res.Rows))
			}
		})
	}
}

// TestStatsZeroOverheadConsistent is the conformance check: collecting
// per-operator stats must not change results, and — because the collector
// only reads simulator state — must leave the simulated hardware counters
// exactly where an uninstrumented run puts them.
func TestStatsZeroOverheadConsistent(t *testing.T) {
	ctx := context.Background()
	for _, eng := range []Engine{EngineVolcano, EngineVec} {
		t.Run(string(eng), func(t *testing.T) {
			plain, err := testDB.Query(ctx, analyzeQuery, WithEngine(eng))
			if err != nil {
				t.Fatal(err)
			}
			p, err := testDB.plan(analyzeQuery, QueryOptions{})
			if err != nil {
				t.Fatal(err)
			}
			_, pe, err := planEngine(QueryOptions{Engine: eng})
			if err != nil {
				t.Fatal(err)
			}
			cp, err := plan.CompileAnalyzed(p, nil, pe)
			if err != nil {
				t.Fatal(err)
			}
			rows, err := exec.Run(&exec.Context{Catalog: testDB.cat, Ctx: ctx, Stats: exec.NewStatsCollector()}, cp.Root)
			if err != nil {
				t.Fatal(err)
			}
			counted := make([][]any, len(rows))
			for i, r := range rows {
				counted[i] = r.Natives(nil)
			}
			if fmt.Sprint(plain.Rows) != fmt.Sprint(counted) {
				t.Errorf("stats collection changed the result:\n%v\nvs\n%v", plain.Rows, counted)
			}
		})
	}

	// Zero overhead when off: an operator's name renders its whole text
	// (the scan's filter, here), so Open may render it only for a stats
	// collector or a fault injector, never on the plain path.
	for _, eng := range plan.Engines() {
		p, err := testDB.plan(analyzeQuery, QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		renders := 0
		plan.Walk(p, func(n *plan.Node) {
			if n.Filter != nil {
				n.Filter = renderSpy{n.Filter, &renders}
			}
		})
		run := func(ectx *exec.Context) {
			t.Helper()
			op, err := plan.Compile(p, testDB.cm, eng)
			if err != nil {
				t.Fatal(err)
			}
			renders = 0
			if _, err := exec.Run(ectx, op); err != nil {
				t.Fatal(err)
			}
		}
		if run(&exec.Context{Catalog: testDB.cat}); renders != 0 {
			t.Errorf("%v: plain run rendered the scan filter %d times", eng, renders)
		}
		if run(&exec.Context{Catalog: testDB.cat, Stats: exec.NewStatsCollector()}); renders == 0 {
			t.Errorf("%v: stats run never rendered the scan filter; the spy is not on Open's path", eng)
		}
	}

	// Counter identity: an instrumented simulated run (ExplainAnalyze) and
	// an uninstrumented one (Profile's refined side) execute the same plan
	// on identical fresh machines.
	prof, err := testDB.Profile(analyzeQuery)
	if err != nil {
		t.Fatal(err)
	}
	a, err := testDB.ExplainAnalyze(ctx, analyzeQuery)
	if err != nil {
		t.Fatal(err)
	}
	if a.Totals.Cycles != prof.Buffered.Cycles || a.Totals.Uops != prof.Buffered.Uops ||
		a.Totals.L1IMisses != prof.Buffered.L1IMisses {
		t.Errorf("instrumented run perturbed the simulation:\nanalyze: cycles=%.0f uops=%d l1i=%d\nprofile: cycles=%.0f uops=%d l1i=%d",
			a.Totals.Cycles, a.Totals.Uops, a.Totals.L1IMisses,
			prof.Buffered.Cycles, prof.Buffered.Uops, prof.Buffered.L1IMisses)
	}
}

// renderSpy counts how often an expression is rendered to text.
type renderSpy struct {
	expr.Expr
	renders *int
}

func (s renderSpy) String() string {
	*s.renders++
	return s.Expr.String()
}

// TestQueryFunctionalOptions covers the per-statement options: none of
// them changes the answer, and an unknown engine is rejected.
func TestQueryFunctionalOptions(t *testing.T) {
	ctx := context.Background()
	q := `SELECT COUNT(*) FROM lineitem WHERE l_quantity > 30`

	base, err := testDB.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	vec, err := testDB.Query(ctx, q, WithEngine(EngineVec))
	if err != nil {
		t.Fatal(err)
	}
	small, err := testDB.Query(ctx, q, WithBufferSize(256))
	if err != nil {
		t.Fatal(err)
	}
	noref, err := testDB.Query(ctx, q, WithoutRefinement())
	if err != nil {
		t.Fatal(err)
	}
	psh, err := testDB.Query(ctx, q, WithEngine(EnginePush))
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprint(base.Rows)
	for name, res := range map[string]*Result{"vec": vec, "buffer256": small, "norefine": noref, "push": psh} {
		if fmt.Sprint(res.Rows) != want {
			t.Errorf("%s result %v differs from base %v", name, res.Rows, base.Rows)
		}
	}

	if _, err := testDB.Query(ctx, q, WithEngine(Engine("gpu"))); err == nil {
		t.Error("unknown engine option not rejected")
	}
}

// TestColumnsCachedAndScanErrors covers the Rows fixes: Columns must not
// allocate per call, and Scan errors must name the 0-based column index.
func TestColumnsCachedAndScanErrors(t *testing.T) {
	rows, err := testDB.QueryStream(context.Background(),
		`SELECT l_orderkey, l_comment FROM lineitem LIMIT 1`)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()

	c1, c2 := rows.Columns(), rows.Columns()
	if &c1[0] != &c2[0] {
		t.Error("Columns() allocates a new slice per call; want the cached one")
	}
	allocs := testing.AllocsPerRun(100, func() { _ = rows.Columns() })
	if allocs != 0 {
		t.Errorf("Columns() allocates %.0f per call, want 0", allocs)
	}

	if !rows.Next() {
		t.Fatalf("no row: %v", rows.Err())
	}
	var k int64
	var wrong int64 // l_comment is a string; scanning into int64 must fail
	err = rows.Scan(&k, &wrong)
	if err == nil {
		t.Fatal("Scan type mismatch not reported")
	}
	if !strings.Contains(err.Error(), "column 1") {
		t.Errorf("Scan error does not name the 0-based column index: %v", err)
	}
}

// TestFoldedPredicates pins what constant folding must not change: a
// subtree that errors (1/0) still plans, explains, and fails only when a row
// is evaluated, with the evaluator's message, on every engine; and a folded
// subtree still renders and fingerprints as the tree that was written.
func TestFoldedPredicates(t *testing.T) {
	ctx := context.Background()
	const bad = `SELECT COUNT(*) FROM lineitem WHERE l_quantity > 1/0`
	if _, _, err := testDB.Explain(bad); err != nil {
		t.Errorf("EXPLAIN of x > 1/0 failed at plan time: %v", err)
	}
	for _, eng := range []Engine{EngineVolcano, EngineVec, EnginePush} {
		_, err := testDB.Query(ctx, bad, WithEngine(eng))
		if err == nil || !strings.Contains(err.Error(), "expr: division by zero") {
			t.Errorf("%v: x > 1/0 = %v, want division by zero at execution", eng, err)
		}
	}

	const folded = `SELECT COUNT(*) FROM lineitem WHERE l_discount >= 0.05 - 0.01 AND l_orderkey <> -7`
	orig, _, err := testDB.Explain(folded)
	if err != nil {
		t.Fatal(err)
	}
	if want := "filter=((lineitem.l_discount >= (0.05 - 0.01)) AND (lineitem.l_orderkey <> -7))"; !strings.Contains(orig, want) {
		t.Errorf("EXPLAIN lost the written predicate %q:\n%s", want, orig)
	}
	p, err := testDB.plan(folded, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	key, _, ok := plan.Fingerprint(p, testDB.epochs)
	for _, want := range []string{"sub(lit:3:0.05,lit:3:0.01)", "neg(lit:2:7)"} {
		if !ok || !strings.Contains(key, want) {
			t.Errorf("fingerprint lost %q: %q (ok=%v)", want, key, ok)
		}
	}
}
