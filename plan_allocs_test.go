package bufferdb

import (
	"fmt"
	"runtime"
	"testing"

	"bufferdb/internal/sql"
)

// adhocLookup is the benchmark of record's served_short lookup shape — a
// nation ⋈ region point lookup — with sentinel s on both tables, so every
// call is a text no cache has seen, and every text one shape.
func adhocLookup(s int) string {
	return fmt.Sprintf("SELECT n_name, r_name FROM nation, region WHERE n_regionkey = r_regionkey AND n_nationkey = %d"+
		" AND n_nationkey <> %d AND r_regionkey <> %d", s%25, -s, -s)
}

// aliasedDashboard is served_short's alias_reuse text: one dashboard with
// output aliases suffixed by s, so every call is a text no cache has seen,
// and every text one shape.
func aliasedDashboard(s int) string { return servedDashboard(5, fmt.Sprintf("_%d", s)) }

// TestAdhocPlanAllocs bounds what planning one ad hoc statement allocates.
// fresh is parse, analyze and refinement at the served threshold: before
// the footprint bitsets and on-demand refinement labels it took 233
// allocations and 25.9 KB. lex is the lexer and shape key alone, which
// every statement pays. hit is db.plan of a cached shape: lex, then clone
// and re-bind the template. alias_hit is db.plan of the aliased dashboard,
// whose hit also renames the output columns; planned fresh it took 291
// allocations and 22.2 KB. Each bound is its measurement plus 10 %.
func TestAdhocPlanAllocs(t *testing.T) {
	for _, tc := range []struct {
		name                string
		maxAllocs, maxBytes float64
		text                func(s int) string
		plan                func(text string) error
	}{
		{"fresh", 173, 12_375, adhocLookup, func(text string) error {
			_, _, err := testDB.planPair(text, PlanOptions{}, true)
			return err
		}},
		{"lex", 4, 1_745, adhocLookup, func(text string) error {
			_, err := sql.Lex(text)
			return err
		}},
		{"hit", 29, 4_950, adhocLookup, func(text string) error {
			_, err := testDB.plan(text)
			return err
		}},
		{"alias_hit", 32, 6_285, aliasedDashboard, func(text string) error {
			_, err := testDB.plan(text)
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Texts are built outside the measured calls.
			const runs = 50
			texts := make([]string, 2*runs+2)
			for i := range texts {
				texts[i] = tc.text(i + 1)
			}
			s := 0
			plan := func() {
				if err := tc.plan(texts[s]); err != nil {
					t.Fatal(err)
				}
				s++
			}
			plan() // warm the code model's module table and the plan cache
			allocs := testing.AllocsPerRun(runs, plan)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				plan()
			}
			runtime.ReadMemStats(&after)
			bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
			t.Logf("%s plan: %.0f allocs, %.0f B", tc.name, allocs, bytes)
			if allocs > tc.maxAllocs {
				t.Errorf("%s planning took %.0f allocations, want at most %.0f", tc.name, allocs, tc.maxAllocs)
			}
			if bytes > tc.maxBytes {
				t.Errorf("%s planning allocated %.0f B, want at most %.0f", tc.name, bytes, tc.maxBytes)
			}
		})
	}
}

// BenchmarkAdhocPlan times planning the served_short lookup shape with a
// fresh sentinel per iteration: fresh parses, analyzes and refines; hit is
// the served path, which binds the cached template. alias is the served
// path on the aliased dashboard, a new alias suffix per iteration.
func BenchmarkAdhocPlan(b *testing.B) {
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := testDB.planPair(adhocLookup(i), PlanOptions{}, true); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("hit", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := testDB.plan(adhocLookup(i)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("alias", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := testDB.plan(aliasedDashboard(i)); err != nil {
				b.Fatal(err)
			}
		}
	})
}
