package bufferdb

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

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

// analyzeJoinQuery reaches a hash join, both adapter directions and a
// pipeline nested under a Volcano sort.
const analyzeJoinQuery = `SELECT o_orderkey, c_name FROM orders, customer WHERE o_custkey = c_custkey AND c_custkey < 3 ORDER BY o_orderkey LIMIT 5`

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
// avgfill) across every engine, on an aggregation and on a join.
func TestGoldenExplainAnalyze(t *testing.T) {
	cases := []struct {
		name  string
		query string
		opts  []PlanOption
	}{
		{"analyze_volcano", analyzeQuery, nil},
		{"analyze_vec", analyzeQuery, []PlanOption{WithEngine(EngineVec)}},
		{"analyze_push", analyzeQuery, []PlanOption{WithEngine(EnginePush)}},
		{"analyze_join_volcano", analyzeJoinQuery, nil},
		{"analyze_join_vec", analyzeJoinQuery, []PlanOption{WithEngine(EngineVec)}},
		{"analyze_join_push", analyzeJoinQuery, []PlanOption{WithEngine(EnginePush)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, err := testDB.ExplainAnalyze(context.Background(), tc.query, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			goldenCompare(t, tc.name, a.Table())
		})
	}
}

// TestAnalyzeAttributionSums is the acceptance check: on a refined TPC-H
// aggregation and on a join the per-operator self attributions (cycles,
// instruction-cache misses) must sum, within slack, to the run's
// whole-query totals — on every engine.
func TestAnalyzeAttributionSums(t *testing.T) {
	for _, eng := range plan.Engines() {
		t.Run(eng.String(), func(t *testing.T) { checkAttributionSums(t, analyzeQuery, eng) })
		t.Run("join_"+eng.String(), func(t *testing.T) { checkAttributionSums(t, analyzeJoinQuery, eng) })
	}
}

// checkAttributionSums runs one statement under EXPLAIN ANALYZE and holds
// its self attributions to the run's totals.
func checkAttributionSums(t *testing.T, query string, eng Engine) {
	t.Helper()
	a, err := testDB.ExplainAnalyze(context.Background(), query, WithEngine(eng))
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
	res, err := testDB.queryWith(context.Background(), query, PlanOptions{Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	if a.Root.Rows != uint64(len(res.Rows)) {
		t.Errorf("root stat rows %d, query returned %d", a.Root.Rows, len(res.Rows))
	}
}

// TestStatsZeroOverheadConsistent is the conformance check: collecting
// per-operator stats must not change results, and — because the collector
// only reads simulator state — must leave the simulated hardware counters
// exactly where an uninstrumented run puts them.
func TestStatsZeroOverheadConsistent(t *testing.T) {
	ctx := context.Background()
	for _, eng := range []Engine{EngineVolcano, EngineVec} {
		t.Run(eng.String(), func(t *testing.T) {
			plain, err := testDB.queryWith(ctx, analyzeQuery, PlanOptions{Engine: eng})
			if err != nil {
				t.Fatal(err)
			}
			p, err := testDB.plan(analyzeQuery)
			if err != nil {
				t.Fatal(err)
			}
			root, _, err := plan.CompileAnalyzed(p, nil, eng)
			if err != nil {
				t.Fatal(err)
			}
			rows, err := exec.Run(&exec.Context{Catalog: testDB.cat, Ctx: ctx, Stats: exec.NewStatsCollector()}, root)
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
		p, err := testDB.plan(analyzeQuery)
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
}

// TestProfileHonorsEngine is the counter identity: an instrumented
// simulated run (ExplainAnalyze) and an uninstrumented one (Profile's
// refined side) execute the same plan on the same engine on identical fresh
// machines, both on the row operators the code model selects.
func TestProfileHonorsEngine(t *testing.T) {
	for _, eng := range plan.Engines() {
		t.Run(eng.String(), func(t *testing.T) {
			prof, err := testDB.Profile(analyzeQuery, WithEngine(eng))
			if err != nil {
				t.Fatal(err)
			}
			a, err := testDB.ExplainAnalyze(context.Background(), analyzeQuery, WithEngine(eng))
			if err != nil {
				t.Fatal(err)
			}
			if a.Totals.Cycles != prof.Buffered.Cycles || a.Totals.Uops != prof.Buffered.Uops ||
				a.Totals.L1IMisses != prof.Buffered.L1IMisses {
				t.Errorf("profile and analysis disagree:\nanalyze: cycles=%.0f uops=%d l1i=%d\nprofile: cycles=%.0f uops=%d l1i=%d",
					a.Totals.Cycles, a.Totals.Uops, a.Totals.L1IMisses,
					prof.Buffered.Cycles, prof.Buffered.Uops, prof.Buffered.L1IMisses)
			}
		})
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

// TestQueryFunctionalOptions covers the per-statement options: no served
// limit and no reproduction knob changes the answer, and an unknown engine
// is rejected.
func TestQueryFunctionalOptions(t *testing.T) {
	ctx := context.Background()
	q := `SELECT COUNT(*) FROM lineitem WHERE l_quantity > 30`

	base, err := testDB.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	limited, err := testDB.Query(ctx, q, WithTimeout(time.Minute), WithMemoryBudget(1<<30),
		WithFaultInjector(NewFaultInjector(1, Fault{Match: "NoSuchOperator", Kind: FaultError})))
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprint(base.Rows)
	if fmt.Sprint(limited.Rows) != want {
		t.Errorf("served limits changed the result: %v vs %v", limited.Rows, base.Rows)
	}
	for name, po := range map[string]PlanOptions{
		"vec":       {Engine: EngineVec},
		"push":      {Engine: EnginePush},
		"buffer256": {BufferSize: 256},
		"norefine":  {DisableRefinement: true},
	} {
		res, err := testDB.queryWith(ctx, q, po)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if fmt.Sprint(res.Rows) != want {
			t.Errorf("%s result %v differs from base %v", name, res.Rows, base.Rows)
		}
	}

	// Every PlanOption entry point rejects an out-of-range engine alike.
	if _, err := testDB.ExplainAnalyze(ctx, q, WithEngine(EnginePush+1)); !errors.Is(err, ErrUnknownEngine) {
		t.Errorf("ExplainAnalyze: out-of-range engine = %v, want ErrUnknownEngine", err)
	}
	if _, _, err := testDB.Explain(q, WithEngine(EnginePush+1)); !errors.Is(err, ErrUnknownEngine) {
		t.Errorf("Explain: out-of-range engine = %v, want ErrUnknownEngine", err)
	}
	if _, err := testDB.Profile(q, WithEngine(EnginePush+1)); !errors.Is(err, ErrUnknownEngine) {
		t.Errorf("Profile: out-of-range engine = %v, want ErrUnknownEngine", err)
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
		_, err := testDB.queryWith(ctx, bad, PlanOptions{Engine: eng})
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
	p, err := testDB.plan(folded)
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

// TestExplainAnalyzeCancellation: cancellation is the one governor
// behaviour every engine keeps, because ExplainAnalyze passes its context
// to the run. A context canceled before the run and one that cancels on its
// third poll — inside the part build on every engine — both fail with
// context.Canceled, leave no goroutine behind, and the next ExplainAnalyze
// reports the clean run's table.
func TestExplainAnalyzeCancellation(t *testing.T) {
	const q = `SELECT SUM(ps_supplycost), COUNT(*) FROM partsupp, part WHERE ps_partkey = p_partkey`
	for _, e := range plan.Engines() {
		t.Run(e.String(), func(t *testing.T) {
			want, err := testDB.ExplainAnalyze(context.Background(), q, WithEngine(e))
			if err != nil {
				t.Fatal(err)
			}
			canceled, cancel := context.WithCancel(context.Background())
			cancel()
			var polls atomic.Int64
			midBuild := cancelWhen{context.Background(), func() bool { return polls.Add(1) > 2 }}
			for _, tc := range []struct {
				name string
				ctx  context.Context
			}{{"before the run", canceled}, {"mid-build", midBuild}} {
				base := runtime.NumGoroutine()
				if _, err := testDB.ExplainAnalyze(tc.ctx, q, WithEngine(e)); !errors.Is(err, context.Canceled) {
					t.Fatalf("canceled %s: want context.Canceled, got %v", tc.name, err)
				}
				waitGoroutines(t, base)
				got, err := testDB.ExplainAnalyze(context.Background(), q, WithEngine(e))
				if err != nil {
					t.Fatalf("after canceled %s: %v", tc.name, err)
				}
				if got.Table() != want.Table() {
					t.Fatalf("after canceled %s:\n%s\nwant\n%s", tc.name, got.Table(), want.Table())
				}
			}
		})
	}
}
