package bufferdb

import (
	"fmt"
	"runtime"
	"testing"
)

// adhocLookup is the benchmark of record's served_short lookup shape — a
// nation ⋈ region point lookup — with sentinel s on both tables, so every
// call is a statement no cache has seen.
func adhocLookup(s int) string {
	return fmt.Sprintf("SELECT n_name, r_name FROM nation, region WHERE n_regionkey = r_regionkey AND n_nationkey = %d"+
		" AND n_nationkey <> %d AND r_regionkey <> %d", s%25, -s, -s)
}

// TestAdhocPlanAllocs bounds what planning one ad hoc statement allocates:
// parse, analyze, and refinement at the served threshold. Before the
// footprint bitsets and on-demand refinement labels it took 233 allocations
// and 25.9 KB; the bounds are the measurement after them plus 10 %.
func TestAdhocPlanAllocs(t *testing.T) {
	const maxAllocs, maxBytes = 198, 13_640
	s := 1
	plan := func() {
		s++
		if _, err := testDB.plan(adhocLookup(s)); err != nil {
			t.Fatal(err)
		}
	}
	plan() // warm the code model's module table
	allocs := testing.AllocsPerRun(50, plan)
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		plan()
	}
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("db.plan of the lookup: %.0f allocs, %.0f B", allocs, bytes)
	if allocs > maxAllocs {
		t.Errorf("planning the lookup took %.0f allocations, want at most %d", allocs, maxAllocs)
	}
	if bytes > maxBytes {
		t.Errorf("planning the lookup allocated %.0f B, want at most %d", bytes, maxBytes)
	}
}

// BenchmarkAdhocPlan times planning the served_short lookup shape with a
// fresh sentinel per iteration.
func BenchmarkAdhocPlan(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := testDB.plan(adhocLookup(i)); err != nil {
			b.Fatal(err)
		}
	}
}
