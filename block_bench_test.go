package bufferdb

import (
	"fmt"
	"sync"
	"testing"

	"bufferdb/internal/codemodel"
	"bufferdb/internal/exec"
	"bufferdb/internal/plan"
)

// The block path's instrument: the four aggregate shapes of the served
// workloads, each compiled both ways from one refined plan. Compiling
// against the code model is the switch — it keeps every node on the row
// operators (Volcano+Buffer here, the served default) — and the context has
// no CPU either way, so both sides run native.
var blockBenchQueries = []struct{ name, sql string }{
	{"q1", `SELECT l_returnflag, l_linestatus, SUM(l_quantity), SUM(l_extendedprice),
		SUM(l_extendedprice * (1 - l_discount)), SUM(l_extendedprice * (1 - l_discount) * (1 + l_tax)),
		AVG(l_quantity), AVG(l_extendedprice), AVG(l_discount), COUNT(*) FROM lineitem
		WHERE l_shipdate <= DATE '1998-09-02' GROUP BY l_returnflag, l_linestatus`},
	{"q6", `SELECT SUM(l_extendedprice * l_discount), COUNT(*) FROM lineitem
		WHERE l_shipdate >= DATE '1994-01-01' AND l_shipdate < DATE '1995-01-01'
		AND l_discount BETWEEN 0.05 - 0.01 AND 0.05 + 0.01 AND l_quantity < 24`},
	{"dashboard", `SELECT l_shipmode, SUM(l_extendedprice * (1 - l_discount)), COUNT(*) FROM lineitem
		WHERE l_shipdate >= DATE '1995-01-01' AND l_shipdate < DATE '1996-01-01' GROUP BY l_shipmode`},
	// ~30 k groups: the group index must not degrade as the table grows.
	{"orderkey_groups", `SELECT l_orderkey, SUM(l_extendedprice), COUNT(*) FROM lineitem GROUP BY l_orderkey`},
}

var blockBenchDB = sync.OnceValue(func() *DB {
	db, err := OpenTPCH(0.02, Options{})
	if err != nil {
		panic(err)
	}
	return db
})

// compileBothWays plans query on db (refined unless refine is false) and
// compiles the plan for the block path (no code model) and for the row path
// (code model).
func compileBothWays(tb testing.TB, db *DB, query string, refine bool) (block, rows exec.Operator) {
	tb.Helper()
	_, p, err := db.planPair(query, PlanOptions{}, refine)
	if err != nil {
		tb.Fatal(err)
	}
	for cm, op := range map[*codemodel.Catalog]*exec.Operator{nil: &block, db.cm: &rows} {
		if *op, err = plan.Compile(plan.Clone(p), cm, plan.EngineVolcano); err != nil {
			tb.Fatal(err)
		}
	}
	if !hasBlockAggregate(block) || hasBlockAggregate(rows) {
		names := func(op exec.Operator) (s []string) {
			exec.Walk(op, func(o exec.Operator) { s = append(s, o.Name()) })
			return s
		}
		tb.Fatalf("%s: the block operator is not on exactly the code-model-free side:\n%q\n%q",
			query, names(block), names(rows))
	}
	return block, rows
}

func hasBlockAggregate(root exec.Operator) (found bool) {
	exec.Walk(root, func(op exec.Operator) {
		if _, ok := op.(*exec.BlockAggregate); ok {
			found = true
		}
	})
	return found
}

func BenchmarkBlockAggregate(b *testing.B) {
	db := blockBenchDB()
	for _, q := range blockBenchQueries {
		block, rows := compileBothWays(b, db, q.sql, true)
		for _, side := range []struct {
			name string
			op   exec.Operator
		}{{"rows", rows}, {"block", block}} {
			b.Run(fmt.Sprintf("%s/%s", q.name, side.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := exec.Run(&exec.Context{Catalog: db.cat}, side.op); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// TestBlockAggregateAllocs pins the block path's allocation shape: a fixed
// number per operator (kernels' vectors, selection vector, group index),
// a few per group, none per block or per row.
func TestBlockAggregateAllocs(t *testing.T) {
	db := blockBenchDB()
	lineitem, err := db.cat.Table("lineitem")
	if err != nil {
		t.Fatal(err)
	}
	rowsIn := lineitem.NumRows()
	for _, q := range blockBenchQueries {
		block, _ := compileBothWays(t, db, q.sql, true)
		var groups int
		allocs := testing.AllocsPerRun(3, func() {
			out, err := exec.Run(&exec.Context{Catalog: db.cat}, block)
			if err != nil {
				t.Fatal(err)
			}
			groups = len(out)
		})
		// Per group: the Group, its key string, key row, accumulator slice
		// and one accumulator per aggregate, its output row, its share of
		// the growing maps and slices. Q1's ten are the most aggregates.
		limit := float64(200 + 24*groups)
		t.Logf("%s: %.0f allocs for %d groups over %d rows (%d blocks)", q.name, allocs, groups, rowsIn, rowsIn/1024)
		if allocs > limit {
			t.Errorf("%s: %.0f allocations for %d groups, want at most %.0f", q.name, allocs, groups, limit)
		}
	}
}
