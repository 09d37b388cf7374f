package dist_test

import (
	"context"
	"errors"
	"net"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"bufferdb"
	"bufferdb/internal/client"
	"bufferdb/internal/dist"
	"bufferdb/internal/obsv"
	"bufferdb/internal/server"
	"bufferdb/internal/shard"
)

// startReplicaNode boots one daemon hosting every slice the rotated
// placement assigns to node under n/rf: its primary slice plus the rf-1
// preceding ones. listen is "127.0.0.1:0" for a fresh port or a concrete
// address when a test restarts a killed node in place.
func startReplicaNode(t testing.TB, node, n, rf int, listen string, hook func(string) *bufferdb.FaultInjector) (*server.Server, string) {
	t.Helper()
	dbs, err := bufferdb.OpenTPCHReplicas(testSF, bufferdb.Options{
		MemoryLimit: 256 << 20,
	}, n, shard.Slices(node, n, rf))
	if err != nil {
		t.Fatalf("OpenTPCHReplicas node %d (%d/%d): %v", node, n, rf, err)
	}
	srv, err := server.New(server.Config{DB: dbs[node], Slices: dbs, FaultHook: hook})
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	var l net.Listener
	// A node restarting on its old address can race the kernel releasing
	// the port; retry briefly.
	for deadline := time.Now().Add(5 * time.Second); ; {
		l, err = net.Listen("tcp", listen)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("listen %s: %v", listen, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		<-done
	})
	return srv, l.Addr().String()
}

// startReplicaFleet boots an n-node fleet at replication factor rf and a
// coordinator over it. hooks attaches fault injectors per node index.
func startReplicaFleet(t testing.TB, n, rf int, cfg dist.Config, hooks map[int]func(string) *bufferdb.FaultInjector) *shardFleet {
	t.Helper()
	f := &shardFleet{}
	for i := 0; i < n; i++ {
		srv, addr := startReplicaNode(t, i, n, rf, "127.0.0.1:0", hooks[i])
		f.servers = append(f.servers, srv)
		f.addrs = append(f.addrs, addr)
	}
	cfg.Shards = f.addrs
	cfg.Replication = rf
	co, err := dist.Open(cfg)
	if err != nil {
		t.Fatalf("dist.Open: %v", err)
	}
	t.Cleanup(func() { co.Close() })
	f.co = co
	return f
}

// kill force-closes a server's listeners and connections, the in-process
// equivalent of kill -9: streams break mid-frame, nothing drains.
func kill(srv *server.Server) {
	killed, cancel := context.WithCancel(context.Background())
	cancel()
	_ = srv.Shutdown(killed)
}

// slowLineitem injects per-row scan latency so a small slice stays
// genuinely mid-flight long enough for a kill to land mid-stream instead of
// after the rows reached the kernel socket buffers.
func slowLineitem(sql string) *bufferdb.FaultInjector {
	if !strings.Contains(sql, "lineitem") {
		return nil
	}
	return bufferdb.NewFaultInjector(1, bufferdb.Fault{
		Match: "Scan", Kind: bufferdb.FaultLatency,
		After: 100, Every: 10, Latency: 2 * time.Millisecond,
	})
}

// waitSettled polls until the coordinator's tracked bytes drain and
// goroutines return to baseline.
func waitSettled(t *testing.T, co *dist.Coordinator, baseline int) {
	t.Helper()
	settled(t, co.TrackedBytes, baseline)
}

// TestChaosFailoverMidStreamScan is the replication acceptance gate: losing
// one node of a 3-node RF=2 fleet mid-stream must not fail the query or
// change one byte of its result. The lost node's leg replays on the
// surviving replica, skipping the rows the merge already consumed.
func TestChaosFailoverMidStreamScan(t *testing.T) {
	fleet := startReplicaFleet(t, 3, 2, dist.Config{
		BreakerThreshold: 1,
		BreakerCooldown:  time.Hour, // keep the breaker open for the health assertions
	}, map[int]func(string) *bufferdb.FaultInjector{1: slowLineitem})
	ref := singleNode(t)
	q := `SELECT l_orderkey, l_quantity, l_extendedprice, l_comment FROM lineitem`

	want, err := ref.Query(context.Background(), q)
	if err != nil {
		t.Fatalf("single-node: %v", err)
	}
	if h := fleet.co.Health(); h.Status != "pass" {
		t.Fatalf("healthy fleet reports %q (%s)", h.Status, h.Detail)
	}
	baseline := runtime.NumGoroutine()

	rows, err := fleet.co.Query(context.Background(), q)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	var got [][]any
	for i := 0; i < 10 && rows.Next(); i++ {
		got = append(got, append([]any(nil), rows.Row()...))
	}
	// Node 1 serves slice 1's leg (primary placement) and replicates slice
	// 0. Killing it mid-stream forces slice 1 onto node 2.
	kill(fleet.servers[1])
	for rows.Next() {
		got = append(got, append([]any(nil), rows.Row()...))
	}
	if err := rows.Err(); err != nil {
		t.Fatalf("stream did not survive node kill: %v", err)
	}
	if err := rows.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	compareRows(t, got, want.Rows, false)

	if h := fleet.co.Health(); h.Status != "warn" {
		t.Fatalf("health after single-node loss = %q (%s), want warn", h.Status, h.Detail)
	}
	waitSettled(t, fleet.co, baseline)
}

// TestChaosFailoverReplicatedOnly: a query over replicated tables only is a
// one-leg plan, and its leg fails over like a scatter leg. Killing the node
// it runs on mid-stream must replay the leg on the next node and leave the
// rows byte-identical to the single node's.
func TestChaosFailoverReplicatedOnly(t *testing.T) {
	slowPartsupp := func(sql string) *bufferdb.FaultInjector {
		if !strings.Contains(sql, "partsupp") {
			return nil
		}
		return bufferdb.NewFaultInjector(1, bufferdb.Fault{
			Match: "Scan", Kind: bufferdb.FaultLatency,
			After: 100, Every: 10, Latency: 2 * time.Millisecond,
		})
	}
	failReplicatedLeg(t, slowPartsupp,
		`SELECT ps_partkey, ps_suppkey, ps_availqty, ps_supplycost, ps_comment FROM partsupp`)
}

// failReplicatedLeg runs q, a replicated-only query, on a 3-node rf=2 fleet
// whose node 0 runs under hook, kills node 0 after the caller read ten
// rows, and asserts the leg replayed once on node 1 and the rows are the
// single node's, in order, type and float bits.
func failReplicatedLeg(t *testing.T, hook func(string) *bufferdb.FaultInjector, q string) {
	t.Helper()
	// The round-robin cursor sends the coordinator's first replicated-only
	// query to node 0, then fails over in node order.
	fleet := startReplicaFleet(t, 3, 2, dist.Config{
		BreakerThreshold: 1,
		BreakerCooldown:  time.Hour,
	}, map[int]func(string) *bufferdb.FaultInjector{0: hook})
	ref := singleNode(t)

	want, err := ref.Query(context.Background(), q)
	if err != nil {
		t.Fatalf("single-node: %v", err)
	}
	replays := obsv.Default.Counter(`bufferdb_coord_leg_replays_total{shard="` + fleet.addrs[1] + `"}`)
	replaysBefore := replays.Value()
	baseline := runtime.NumGoroutine()

	rows, err := fleet.co.Query(context.Background(), q)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	var got [][]any
	for i := 0; i < 10 && rows.Next(); i++ {
		got = append(got, append([]any(nil), rows.Row()...))
	}
	kill(fleet.servers[0])
	for rows.Next() {
		got = append(got, append([]any(nil), rows.Row()...))
	}
	if err := rows.Err(); err != nil {
		t.Fatalf("replicated-only stream did not survive its node after %d of %d rows: %v", len(got), len(want.Rows), err)
	}
	if err := rows.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if !reflect.DeepEqual(got, want.Rows) {
		compareRows(t, got, want.Rows, true)
		t.Fatal("rows differ from the single node's in dynamic type or float bits")
	}
	if d := replays.Value() - replaysBefore; d != 1 {
		t.Fatalf("leg replays on node 1 = %d, want 1", d)
	}
	waitSettled(t, fleet.co, baseline)
}

// slowAggregate injects 1ms of latency per group the matching statement's
// Aggregate emits past its tenth, so a node dies while its leg is still
// streaming groups.
func slowAggregate(table string) func(string) *bufferdb.FaultInjector {
	return func(sql string) *bufferdb.FaultInjector {
		if !strings.Contains(sql, table) {
			return nil
		}
		return bufferdb.NewFaultInjector(1, bufferdb.Fault{
			Match: "Aggregate", Kind: bufferdb.FaultLatency,
			After: 10, Every: 1, Latency: time.Millisecond,
		})
	}
}

// TestChaosFailoverAggReplay kills a node while its leg streams partial
// aggregates. A shard emits its groups in key order, so the leg replays on
// the surviving replica like a scan leg, and the answer matches the single
// node's.
func TestChaosFailoverAggReplay(t *testing.T) {
	fleet := startReplicaFleet(t, 3, 2, dist.Config{BreakerThreshold: 1},
		map[int]func(string) *bufferdb.FaultInjector{1: slowAggregate("lineitem")})
	ref := singleNode(t)
	q := `SELECT l_orderkey, COUNT(*), SUM(l_extendedprice) FROM lineitem GROUP BY l_orderkey`

	want, err := ref.Query(context.Background(), q)
	if err != nil {
		t.Fatalf("single-node: %v", err)
	}
	// Node 1 serves slice 1's leg; node 2 is that slice's other replica.
	replays := obsv.Default.Counter(`bufferdb_coord_leg_replays_total{shard="` + fleet.addrs[2] + `"}`)
	replaysBefore := replays.Value()
	baseline := runtime.NumGoroutine()

	rows, err := fleet.co.Query(context.Background(), q)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	// The final aggregate blocks until every leg drains, so the kill must
	// come from the side, mid-aggregation. The victim streams ~1000 groups
	// at 1ms each, and the server flushes 256-row batches, so the first
	// rows reach the coordinator around 270ms; a kill at 450ms lands after
	// the leg has emitted but well before it finishes.
	time.AfterFunc(450*time.Millisecond, func() { kill(fleet.servers[1]) })
	got := drainCoord(t, rows)
	compareRows(t, got, want.Rows, false)
	if d := replays.Value() - replaysBefore; d != 1 {
		t.Fatalf("leg replays on node 2 = %d, want 1", d)
	}
	waitSettled(t, fleet.co, baseline)
}

// TestChaosFailoverReplicatedAggregate: an aggregate over replicated
// tables only is one leg under a pass-through merge, so its rows reach the
// caller while the leg streams. Killing its node after the caller read
// some must replay the leg on the next node, not fail the query.
func TestChaosFailoverReplicatedAggregate(t *testing.T) {
	failReplicatedLeg(t, slowAggregate("partsupp"),
		`SELECT ps_partkey, SUM(ps_supplycost), COUNT(*) FROM partsupp GROUP BY ps_partkey`)
}

// TestAggregateLegsReplayIdentically is the premise of leg replay: both
// replicas of a slice stream an aggregate shard statement's groups
// identically, in order and to the float bit, even when one runs the row
// path (an armed fault injector) and the other the block path; and they
// stream a join's rows in one order even when their plan caches were primed
// with different literals, because the served build side reads none.
func TestAggregateLegsReplayIdentically(t *testing.T) {
	armed := func(string) *bufferdb.FaultInjector {
		return bufferdb.NewFaultInjector(1, bufferdb.Fault{
			Match: "Aggregate", Kind: bufferdb.FaultLatency, After: 1 << 40,
		})
	}
	fleet := startReplicaFleet(t, 3, 2, dist.Config{},
		map[int]func(string) *bufferdb.FaultInjector{1: armed})
	run := func(node int, q string) [][]any {
		t.Helper()
		cl, err := client.Dial(fleet.addrs[node], client.Config{})
		if err != nil {
			t.Fatalf("Dial node %d: %v", node, err)
		}
		defer cl.Close()
		rows, err := cl.Query(context.Background(), q, client.WithSlice(1))
		if err != nil {
			t.Fatalf("node %d: %v", node, err)
		}
		defer rows.Close()
		var out [][]any
		for rows.Next() {
			out = append(out, append([]any(nil), rows.Row()...))
		}
		if err := rows.Err(); err != nil {
			t.Fatalf("node %d: %v", node, err)
		}
		return out
	}
	// Slice 1 lives on nodes 1 and 2. Each primes the join streams' shapes
	// with its own dates, chosen so that sampled estimates would build
	// opposite sides on the two nodes: node 1 keeps almost no orders, node
	// 2 almost no lineitems and every order. The customer ⋈ orders stream
	// comes out in another row order when the other side is built.
	join := func(orderDay, shipDay string) string {
		return "SELECT o_orderkey, o_orderdate, l_linenumber, l_extendedprice FROM orders JOIN lineitem" +
			" ON (l_orderkey = o_orderkey) WHERE (o_orderdate >= DATE '" + orderDay + "')" +
			" AND (l_shipdate >= DATE '" + shipDay + "')"
	}
	custJoin := func(orderDay string) string {
		return "SELECT c_custkey, c_name, o_orderkey, o_totalprice FROM customer JOIN orders" +
			" ON (o_custkey = c_custkey) WHERE (c_mktsegment = 'BUILDING') AND (o_orderdate >= DATE '" + orderDay + "')"
	}
	run(1, join("1998-07-01", "1992-01-01"))
	run(2, join("1992-01-01", "1998-11-01"))
	run(1, custJoin("1998-07-01"))
	run(2, custJoin("1992-01-01"))
	// The statements are the shard SQL the coordinator ships for a grouped
	// scan, Q1's two-key partials and a co-located join, then the two join
	// streams.
	for _, q := range []string{
		"SELECT l_orderkey AS __g0, COUNT(*) AS __a0, SUM(l_extendedprice) AS __a1 FROM lineitem GROUP BY l_orderkey",
		"SELECT l_returnflag AS __g0, l_linestatus AS __g1, SUM(l_quantity) AS __a0, SUM(l_extendedprice) AS __a1, SUM((l_extendedprice * (1 - l_discount))) AS __a2, SUM(((l_extendedprice * (1 - l_discount)) * (1 + l_tax))) AS __a3, SUM(l_quantity) AS __a4_s, COUNT(l_quantity) AS __a4_c, SUM(l_extendedprice) AS __a6_s, COUNT(l_extendedprice) AS __a6_c, SUM(l_discount) AS __a8_s, COUNT(l_discount) AS __a8_c, COUNT(*) AS __a10 FROM lineitem WHERE ((l_shipdate <= DATE '1998-09-02') AND (l_orderkey <> (-1))) GROUP BY l_returnflag, l_linestatus",
		"SELECT o_orderpriority AS __g0, COUNT(*) AS __a0, SUM(l_extendedprice) AS __a1 FROM orders JOIN lineitem ON (l_orderkey = o_orderkey) WHERE (o_orderdate >= DATE '1995-01-01') GROUP BY o_orderpriority",
		join("1995-01-01", "1995-01-01"),
		custJoin("1995-01-01"),
	} {
		rowPath, blockPath := run(1, q), run(2, q)
		if len(rowPath) < 2 {
			t.Fatalf("%s: %d rows, want several", q, len(rowPath))
		}
		if !reflect.DeepEqual(rowPath, blockPath) {
			t.Errorf("%s: replicas of slice 1 disagree (%d vs %d rows)", q, len(rowPath), len(blockPath))
		}
	}
}

// TestChaosFailoverAllReplicasDown checks the fail-fast contract: when every
// replica of a slice is gone, the query fails with a ShardError naming that
// slice and wrapping ErrShardUnavailable — it does not hang or retry
// forever — and the fleet reports unhealthy.
func TestChaosFailoverAllReplicasDown(t *testing.T) {
	fleet := startReplicaFleet(t, 3, 2, dist.Config{
		BreakerThreshold: 1,
		BreakerCooldown:  time.Hour,
	}, nil)
	baseline := runtime.NumGoroutine()

	// Slice 1 lives on nodes 1 and 2; killing both erases it.
	kill(fleet.servers[1])
	kill(fleet.servers[2])

	rows, err := fleet.co.Query(context.Background(),
		`SELECT l_orderkey, l_quantity FROM lineitem`)
	if err == nil {
		for rows.Next() {
		}
		err = rows.Err()
		rows.Close()
	}
	if err == nil {
		t.Fatal("query over an erased slice succeeded")
	}
	var se *dist.ShardError
	if !errors.As(err, &se) {
		t.Fatalf("error is %T (%v), want *dist.ShardError", err, err)
	}
	if se.Shard != 1 {
		t.Fatalf("error attributed to slice %d (%s), want 1", se.Shard, se.Addr)
	}
	if !errors.Is(err, bufferdb.ErrShardUnavailable) {
		t.Fatalf("error does not wrap ErrShardUnavailable: %v", err)
	}

	if h := fleet.co.Health(); h.Status != "fail" {
		t.Fatalf("health with an erased slice = %q (%s), want fail", h.Status, h.Detail)
	}
	waitSettled(t, fleet.co, baseline)
}

// TestBreakerHalfOpenRecovery kills a node, lets its breaker open, restarts
// the node in place, and checks traffic brings the fleet back to full
// health through the half-open probe — no manual reset.
func TestBreakerHalfOpenRecovery(t *testing.T) {
	fleet := startReplicaFleet(t, 2, 2, dist.Config{
		BreakerThreshold: 1,
		BreakerCooldown:  200 * time.Millisecond,
	}, nil)
	q := `SELECT COUNT(*) FROM lineitem`

	runOnce := func() error {
		rows, err := fleet.co.Query(context.Background(), q)
		if err != nil {
			return err
		}
		for rows.Next() {
		}
		defer rows.Close()
		return rows.Err()
	}

	kill(fleet.servers[1])
	if err := runOnce(); err != nil {
		t.Fatalf("query after node loss: %v", err)
	}
	if h := fleet.co.Health(); h.Status != "warn" {
		t.Fatalf("health after node loss = %q (%s), want warn", h.Status, h.Detail)
	}

	// Restart the node on its old address; the shard map does not change.
	_, _ = startReplicaNode(t, 1, 2, 2, fleet.addrs[1], nil)

	// Drive traffic until a probe closes the breaker again.
	deadline := time.Now().Add(10 * time.Second)
	for fleet.co.Health().Status != "pass" {
		if time.Now().After(deadline) {
			h := fleet.co.Health()
			t.Fatalf("fleet never recovered: %q (%s)", h.Status, h.Detail)
		}
		if err := runOnce(); err != nil {
			t.Fatalf("query during recovery: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestReplicaFleetEquivalence runs every scatter shape over a replicated
// healthy fleet: slice addressing must be invisible when nothing fails.
func TestReplicaFleetEquivalence(t *testing.T) {
	fleet := startReplicaFleet(t, 3, 2, dist.Config{}, nil)
	ref := singleNode(t)

	for _, q := range equivalenceQueries {
		t.Run(q.name, func(t *testing.T) {
			want, err := ref.Query(context.Background(), q.sql)
			if err != nil {
				t.Fatalf("single-node: %v", err)
			}
			rows, err := fleet.co.Query(context.Background(), q.sql)
			if err != nil {
				t.Fatalf("coordinator: %v", err)
			}
			compareRows(t, drainCoord(t, rows), want.Rows, q.ordered)
		})
	}
	if n := fleet.co.TrackedBytes(); n != 0 {
		t.Fatalf("tracked bytes = %d, want 0", n)
	}
}

// TestReplicaTables checks the coordinator's wire catalog counts each slice
// exactly once on a replicated fleet instead of double-counting replicas.
func TestReplicaTables(t *testing.T) {
	fleet := startReplicaFleet(t, 3, 2, dist.Config{}, nil)
	ref := singleNode(t)

	_, addr := serveBackend(t, server.Config{Backend: fleet.co})
	cl, err := client.Dial(addr, client.Config{})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()

	infos, err := cl.Tables(context.Background())
	if err != nil {
		t.Fatalf("Tables: %v", err)
	}
	counts := map[string]uint64{}
	for _, ti := range infos {
		counts[ti.Name] = ti.Rows
	}
	for _, tbl := range []string{"lineitem", "orders", "customer", "nation"} {
		want, err := ref.RowCount(tbl)
		if err != nil {
			t.Fatalf("RowCount(%s): %v", tbl, err)
		}
		if counts[tbl] != uint64(want) {
			t.Fatalf("%s rows = %d, want %d (replica double-count?)", tbl, counts[tbl], want)
		}
	}
}
