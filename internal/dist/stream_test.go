package dist_test

import (
	"context"
	"testing"

	"bufferdb/internal/client"
	"bufferdb/internal/dist"
	"bufferdb/internal/server"
	"bufferdb/internal/storage"
)

// streamSQL is the benchmark of record's stream(27) op (benchmark/
// workload.go): six lineitem columns over 27 months of ship dates, 44 041
// rows at SF 0.02. The result stream, not the scan, is the cost.
const streamSQL = "SELECT l_orderkey, l_partkey, l_quantity, l_extendedprice, l_shipdate, l_shipmode FROM lineitem" +
	" WHERE l_shipdate >= DATE '1993-04-01' AND l_shipdate < DATE '1995-07-01' AND l_orderkey <> -1"

// streamTarget dials a served deployment of n nodes at scale sf: one
// unsharded daemon, or a coordinator behind the session loop in front of n
// shard daemons — the hops a fleet_scatter op crosses.
func streamTarget(t testing.TB, n int, sf float64) (*client.Client, *dist.Coordinator) {
	t.Helper()
	var co *dist.Coordinator
	var addr string
	if n == 1 {
		_, addr = startShard(t, 0, 1, sf, nil)
	} else {
		co = startFleetSF(t, n, sf, dist.Config{}).co
		_, addr = serveBackend(t, server.Config{Backend: co})
	}
	cl, err := client.Dial(addr, client.Config{})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl, co
}

// drainStream runs streamSQL as the benchmark harness does — every row
// asked for in native form — and returns the row count.
func drainStream(t testing.TB, cl *client.Client) int {
	t.Helper()
	rows, err := cl.Query(context.Background(), streamSQL, client.WithoutResultCache())
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	defer rows.Close()
	n := 0
	for rows.Next() {
		if len(rows.Row()) != 6 {
			t.Fatalf("row %d has %d columns", n, len(rows.Row()))
		}
		n++
	}
	if err := rows.Err(); err != nil {
		t.Fatalf("rows: %v", err)
	}
	return n
}

// BenchmarkStream times one stream op end to end, client included, against
// one node and through a coordinator over three shards.
func BenchmarkStream(b *testing.B) {
	for _, tc := range []struct {
		name  string
		nodes int
	}{{"single_node", 1}, {"fleet_of_3", 3}} {
		b.Run(tc.name, func(b *testing.B) {
			cl, _ := streamTarget(b, tc.nodes, 0.02)
			rows := drainStream(b, cl)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				drainStream(b, cl)
			}
			b.ReportMetric(float64(rows), "rows/op")
		})
	}
}

// TestStreamAllocsPerRow is the allocation ceiling of a streamed row across
// the whole fleet: shard operator → shard session → coordinator leg → merge
// → coordinator session → client. What is left per row is the shard's
// projected row, one string decoded on the coordinator, and — only because
// the final consumer asks for native values — one string and six boxes in
// the client's Row. Nothing is boxed between an operator and a socket, so a
// consumer of typed rows straight off the coordinator pays two.
func TestStreamAllocsPerRow(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation ceiling needs a quiet process")
	}
	cl, co := streamTarget(t, 3, 0.01)
	rows := drainStream(t, cl)
	if rows < 10_000 {
		t.Fatalf("stream returned %d rows; too few to amortise per-query allocations", rows)
	}

	perRow := testing.AllocsPerRun(3, func() { drainStream(t, cl) }) / float64(rows)
	t.Logf("%d rows, %.2f allocations per row through the fleet", rows, perRow)
	if perRow > 10 {
		t.Errorf("%.2f allocations per streamed row through the fleet, want at most 10", perRow)
	}

	typed := func() {
		cur, err := co.Query(context.Background(), streamSQL)
		if err != nil {
			t.Fatalf("coordinator Query: %v", err)
		}
		defer cur.Close()
		var last storage.Row
		for cur.Next() {
			last = cur.Values()
		}
		if err := cur.Err(); err != nil || len(last) != 6 {
			t.Fatalf("coordinator stream: last row %v, err %v", last, err)
		}
	}
	perRow = testing.AllocsPerRun(3, typed) / float64(rows)
	t.Logf("%.2f allocations per row up to the coordinator's typed cursor", perRow)
	if perRow > 2.5 {
		t.Errorf("%.2f allocations per row before the final client, want about 2", perRow)
	}
}
