package dist_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"bufferdb"
	"bufferdb/internal/client"
	"bufferdb/internal/codemodel"
	"bufferdb/internal/dist"
	"bufferdb/internal/exec"
	"bufferdb/internal/obsv"
	"bufferdb/internal/plan"
	"bufferdb/internal/server"
	"bufferdb/internal/sql"
	"bufferdb/internal/storage"
	"bufferdb/internal/tpch"
)

// testSF is small enough to generate three shard slices in milliseconds but
// large enough that scans stream multiple row batches per shard.
const testSF = 0.002

// shardFleet is an in-process sharded deployment: N shard daemons over the
// same seed plus the coordinator fronting them.
type shardFleet struct {
	servers []*server.Server
	addrs   []string
	co      *dist.Coordinator
}

// startShard boots one shard daemon holding slice idx-of-n. hook, when
// non-nil, attaches fault injectors to the shard's statements.
func startShard(t testing.TB, idx, n int, sf float64, hook func(string) *bufferdb.FaultInjector) (*server.Server, string) {
	t.Helper()
	db, err := bufferdb.OpenTPCH(sf, bufferdb.Options{
		ShardIndex:  idx,
		ShardCount:  n,
		MemoryLimit: 256 << 20,
	})
	if err != nil {
		t.Fatalf("OpenTPCH shard %d/%d: %v", idx, n, err)
	}
	return serveBackend(t, server.Config{DB: db, FaultHook: hook})
}

// serveBackend serves cfg — a shard's database or a coordinator — on a
// loopback listener until the test ends.
func serveBackend(t testing.TB, cfg server.Config) (*server.Server, string) {
	t.Helper()
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
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

// startFleet boots n shards and a coordinator over them.
func startFleet(t testing.TB, n int, cfg dist.Config) *shardFleet {
	return startFleetSF(t, n, testSF, cfg)
}

func startFleetSF(t testing.TB, n int, sf float64, cfg dist.Config) *shardFleet {
	t.Helper()
	f := &shardFleet{}
	for i := 0; i < n; i++ {
		srv, addr := startShard(t, i, n, sf, nil)
		f.servers = append(f.servers, srv)
		f.addrs = append(f.addrs, addr)
	}
	cfg.Shards = f.addrs
	co, err := dist.Open(cfg)
	if err != nil {
		t.Fatalf("dist.Open: %v", err)
	}
	t.Cleanup(func() { co.Close() })
	f.co = co
	return f
}

// singleNode opens the unsharded reference database over the same seed.
func singleNode(t testing.TB) *bufferdb.DB {
	t.Helper()
	db, err := bufferdb.OpenTPCH(testSF, bufferdb.Options{MemoryLimit: 256 << 20})
	if err != nil {
		t.Fatalf("OpenTPCH: %v", err)
	}
	return db
}

// drainCoord materializes a coordinator cursor.
func drainCoord(t testing.TB, rows *dist.Rows) [][]any {
	t.Helper()
	defer rows.Close()
	var out [][]any
	for rows.Next() {
		out = append(out, append([]any(nil), rows.Row()...))
	}
	if err := rows.Err(); err != nil {
		t.Fatalf("coordinator rows: %v", err)
	}
	return out
}

// cellString canonicalizes one native cell, rounding floats so merge-order
// summation differences below 1e-9 relative compare equal.
func cellString(v any) string {
	switch x := v.(type) {
	case float64:
		return strconv.FormatFloat(x, 'e', 9, 64)
	case time.Time:
		return x.UTC().Format("2006-01-02")
	default:
		return fmt.Sprintf("%v", x)
	}
}

func rowString(row []any) string {
	parts := make([]string, len(row))
	for i, v := range row {
		parts[i] = cellString(v)
	}
	return strings.Join(parts, " | ")
}

// compareRows checks got against want, pairwise when ordered, as multisets
// otherwise. Floats compare with 1e-9 relative tolerance.
func compareRows(t *testing.T, got, want [][]any, ordered bool) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("row count: got %d, want %d", len(got), len(want))
	}
	if !ordered {
		sortKey := func(rows [][]any) []string {
			keys := make([]string, len(rows))
			for i, r := range rows {
				keys[i] = rowString(r)
			}
			sort.Strings(keys)
			return keys
		}
		g, w := sortKey(got), sortKey(want)
		for i := range g {
			if g[i] != w[i] {
				t.Fatalf("multiset mismatch at sorted row %d:\n got  %s\n want %s", i, g[i], w[i])
			}
		}
		return
	}
	for i := range got {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("row %d width: got %d, want %d", i, len(got[i]), len(want[i]))
		}
		for j := range got[i] {
			if !cellEqual(got[i][j], want[i][j]) {
				t.Fatalf("row %d col %d: got %v (%T), want %v (%T)",
					i, j, got[i][j], got[i][j], want[i][j], want[i][j])
			}
		}
	}
}

func cellEqual(a, b any) bool {
	af, aok := a.(float64)
	bf, bok := b.(float64)
	if aok && bok {
		if math.IsNaN(af) || math.IsNaN(bf) {
			return math.IsNaN(af) == math.IsNaN(bf)
		}
		diff := math.Abs(af - bf)
		scale := math.Max(1, math.Max(math.Abs(af), math.Abs(bf)))
		return diff <= 1e-9*scale
	}
	at, aok := a.(time.Time)
	bt, bok := b.(time.Time)
	if aok && bok {
		return at.Equal(bt)
	}
	return a == b
}

// equivalenceQueries covers every scatter shape: grouped and global
// aggregates (COUNT/SUM/AVG/MIN/MAX and arithmetic over them), co-located
// sharded joins, replicated⋈sharded joins, bare scans, and top-N pushdown.
var equivalenceQueries = []struct {
	name    string
	sql     string
	ordered bool
}{
	{"agg_group", `SELECT l_returnflag, COUNT(*), SUM(l_extendedprice), AVG(l_quantity), MIN(l_shipdate), MAX(l_discount)
		FROM lineitem WHERE l_quantity > 10 GROUP BY l_returnflag ORDER BY l_returnflag`, true},
	{"agg_global", `SELECT SUM(l_extendedprice * l_discount), COUNT(*) FROM lineitem
		WHERE l_discount > 0.02 AND l_quantity < 24`, true},
	{"agg_arith", `SELECT l_linestatus, SUM(l_extendedprice * (1 - l_discount)) AS revenue, AVG(l_extendedprice) / 1000
		FROM lineitem GROUP BY l_linestatus ORDER BY l_linestatus`, true},
	{"join_colocated", `SELECT o_orderpriority, COUNT(*), SUM(l_extendedprice)
		FROM orders JOIN lineitem ON l_orderkey = o_orderkey
		WHERE o_orderdate >= DATE '1995-01-01' GROUP BY o_orderpriority ORDER BY o_orderpriority`, true},
	{"join_replicated", `SELECT c_mktsegment, COUNT(*), SUM(o_totalprice)
		FROM customer JOIN orders ON o_custkey = c_custkey
		GROUP BY c_mktsegment ORDER BY c_mktsegment`, true},
	{"scan_unordered", `SELECT l_orderkey, l_quantity, l_shipdate FROM lineitem WHERE l_quantity >= 49`, false},
	{"scan_topn", `SELECT l_orderkey, l_extendedprice FROM lineitem
		ORDER BY l_extendedprice DESC, l_orderkey LIMIT 5`, true},
	{"replicated_only", `SELECT r_name, COUNT(*) FROM region GROUP BY r_name ORDER BY r_name`, true},
	{"agg_post", `SELECT l_returnflag, MAX(l_shipdate) > '1998-01-01' AS late, COUNT(*) + 1 AS n FROM lineitem
		GROUP BY l_returnflag ORDER BY n DESC, l_returnflag`, true},
}

// TestDistEquivalence is the acceptance gate: every scatter shape over a
// 3-shard deployment matches the unsharded answer of every engine.
func TestDistEquivalence(t *testing.T) {
	fleet := startFleet(t, 3, dist.Config{})
	cat, err := tpch.Generate(tpch.Config{ScaleFactor: testSF})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range equivalenceQueries {
		rows, err := fleet.co.Query(context.Background(), q.sql)
		if err != nil {
			t.Fatalf("%s: coordinator: %v", q.name, err)
		}
		got := drainCoord(t, rows)
		for _, e := range plan.Engines() {
			t.Run(e.String()+"/"+q.name, func(t *testing.T) {
				compareRows(t, got, engineAnswer(t, cat, q.sql, e), q.ordered)
			})
		}
	}
	if n := fleet.co.TrackedBytes(); n != 0 {
		t.Fatalf("coordinator tracked bytes after drain = %d, want 0", n)
	}
}

// engineAnswer is q's answer over the unsharded catalog on engine e, planned
// the way the facade plans a served statement (refined at
// plan.DefaultCardinalityThreshold) and run in process: a daemon serves
// only Volcano, so the reproduction engines are held to the fleet here.
func engineAnswer(t *testing.T, cat *storage.Catalog, q string, e plan.Engine) [][]any {
	t.Helper()
	p, err := sql.PlanQuery(q, cat, sql.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p, _, err = plan.Refine(p, codemodel.NewCatalog(), plan.RefineOptions{CardinalityThreshold: plan.DefaultCardinalityThreshold})
	if err != nil {
		t.Fatal(err)
	}
	op, err := plan.Compile(p, nil, e)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := exec.Run(&exec.Context{Catalog: cat}, op)
	if err != nil {
		t.Fatalf("%s: %v", e, err)
	}
	out := make([][]any, len(rows))
	for i, row := range rows {
		out[i] = row.Natives(nil)
	}
	return out
}

// TestDistColumns checks the coordinator restores single-node output names
// through the partial-aggregate rewrite.
func TestDistColumns(t *testing.T) {
	fleet := startFleet(t, 2, dist.Config{})
	ref := singleNode(t)
	q := `SELECT l_returnflag, COUNT(*) AS n, SUM(l_extendedprice), AVG(l_quantity)
		FROM lineitem GROUP BY l_returnflag ORDER BY l_returnflag`

	want, err := ref.Query(context.Background(), q)
	if err != nil {
		t.Fatalf("single-node: %v", err)
	}
	rows, err := fleet.co.Query(context.Background(), q)
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	defer rows.Close()
	got := rows.Columns()
	if len(got) != len(want.Columns) {
		t.Fatalf("columns: got %v, want %v", got, want.Columns)
	}
	for i := range got {
		if got[i] != want.Columns[i] {
			t.Fatalf("column %d: got %q, want %q", i, got[i], want.Columns[i])
		}
	}
}

// TestDistScan checks one projection of every kind — BIGINT, DOUBLE, DATE,
// VARCHAR and a column of NULLs — reads the same at every hop count, and
// that the coordinator cursor's Row/Scan mirror the client contract, for a
// one-leg replicated-only plan and for a scatter: embedded, through one
// server, off the coordinator, and through the coordinator's own server,
// the [][]any are identical, dynamic types included.
func TestDistScan(t *testing.T) {
	fleet := startFleet(t, 3, dist.Config{})
	ref := singleNode(t)
	_, oneAddr := serveBackend(t, server.Config{DB: ref})
	_, coAddr := serveBackend(t, server.Config{Backend: fleet.co})
	served := func(addr string, q string) [][]any {
		t.Helper()
		cl, err := client.Dial(addr, client.Config{})
		if err != nil {
			t.Fatalf("Dial: %v", err)
		}
		defer cl.Close()
		res, err := cl.QueryAll(context.Background(), q)
		if err != nil {
			t.Fatalf("QueryAll over %s: %v", addr, err)
		}
		return res.Rows
	}

	for mode, q := range map[string]string{
		"replicated": `SELECT s_suppkey, s_acctbal, DATE '1995-03-15' AS d, s_name, NULL AS nothing, s_suppkey < 5 AS small
			FROM supplier ORDER BY s_suppkey`,
		"scatter": `SELECT l_orderkey, l_extendedprice, l_shipdate, l_comment, NULL AS nothing, l_orderkey < 100 AS small
			FROM lineitem WHERE l_orderkey < 200 ORDER BY l_orderkey, l_extendedprice, l_comment`,
	} {
		t.Run(mode, func(t *testing.T) {
			embedded, err := ref.Query(context.Background(), q)
			if err != nil {
				t.Fatalf("embedded: %v", err)
			}
			want := embedded.Rows
			if len(want) < 20 {
				t.Fatalf("only %d rows", len(want))
			}
			direct, err := fleet.co.Query(context.Background(), q)
			if err != nil {
				t.Fatalf("coordinator: %v", err)
			}
			for hop, got := range map[string][][]any{
				"one server":           served(oneAddr, q),
				"coordinator":          drainCoord(t, direct),
				"coordinator's server": served(coAddr, q),
			} {
				if !reflect.DeepEqual(got, want) {
					compareRows(t, got, want, true)
					t.Fatalf("%s: rows differ from the embedded answer in dynamic type or float bits", hop)
				}
			}

			// Every cursor converts through one Scan: each column into every
			// destination type, NULL included, yields the same value or the
			// same error on the embedded, one-server and coordinator cursors.
			embeddedRows, err := ref.QueryStream(context.Background(), q)
			if err != nil {
				t.Fatalf("embedded stream: %v", err)
			}
			wantScans := scanMatrix(t, embeddedRows)
			for _, addr := range []string{oneAddr, coAddr} {
				cl, err := client.Dial(addr, client.Config{})
				if err != nil {
					t.Fatalf("Dial: %v", err)
				}
				remote, err := cl.Query(context.Background(), q)
				if err != nil {
					t.Fatalf("Query over %s: %v", addr, err)
				}
				got := scanMatrix(t, remote)
				cl.Close()
				if !reflect.DeepEqual(got, wantScans) {
					t.Fatalf("Scan over %s differs from embedded:\n got %q\nwant %q", addr, got, wantScans)
				}
			}
			coRows, err := fleet.co.Query(context.Background(), q)
			if err != nil {
				t.Fatalf("coordinator: %v", err)
			}
			if got := scanMatrix(t, coRows); !reflect.DeepEqual(got, wantScans) {
				t.Fatalf("coordinator Scan differs from embedded:\n got %q\nwant %q", got, wantScans)
			}

			rows, err := fleet.co.Query(context.Background(), q)
			if err != nil {
				t.Fatalf("Query: %v", err)
			}
			defer rows.Close()
			var (
				key   int64
				num   float64
				day   time.Time
				text  string
				null  any
				small bool
				boxed [6]any
			)
			if err := rows.Scan(&key, &num, &day, &text, &null, &small); err == nil ||
				!strings.Contains(err.Error(), "without a successful Next") {
				t.Fatalf("Scan before Next: %v", err)
			}
			if rows.Row() != nil || rows.Values() != nil {
				t.Fatal("a row before Next")
			}
			if !rows.Next() {
				t.Fatalf("Next: no rows (err %v)", rows.Err())
			}
			if err := rows.Scan(&key, &num, &day, &text, &null, &small); err != nil {
				t.Fatalf("Scan: %v", err)
			}
			if got := []any{key, num, day, text, null, small}; !reflect.DeepEqual(got, want[0]) {
				t.Fatalf("typed Scan produced %v, want %v", got, want[0])
			}
			if err := rows.Scan(&boxed[0], &boxed[1], &boxed[2], &boxed[3], &boxed[4], &boxed[5]); err != nil ||
				!reflect.DeepEqual(boxed[:], want[0]) {
				t.Fatalf("Scan into *any produced %v (err %v), want %v", boxed, err, want[0])
			}
			if err := rows.Scan(&key, &num, &day, &text, &text, &small); err == nil || !strings.Contains(err.Error(), "is NULL") {
				t.Fatalf("typed pointer took a NULL: %v", err)
			}
			if err := rows.Scan(&text); err == nil || !strings.Contains(err.Error(), "destinations") {
				t.Fatalf("arity error: %v", err)
			}
			if got := rows.Values(); len(got) != 6 || got[0].I != key || !got[4].IsNull() {
				t.Fatalf("Values() = %v beside Row() = %v", got, rows.Row())
			}

			// Row's slice is reused by Next: a copy keeps the row, the slice
			// itself moves on to the next one.
			first := rows.Row()
			kept := append([]any(nil), first...)
			if !rows.Next() {
				t.Fatalf("second Next: %v", rows.Err())
			}
			second := rows.Row()
			if !reflect.DeepEqual(kept, want[0]) || !reflect.DeepEqual(second, want[1]) {
				t.Fatalf("rows 0 and 1 read %v and %v, want %v and %v", kept, second, want[0], want[1])
			}
			if &first[0] != &second[0] {
				t.Fatal("Row allocated a fresh slice for the second row; its contract says the slice is reused")
			}

			rows.Close()
			if err := rows.Scan(&key, &num, &day, &text, &null, &small); err == nil || !strings.Contains(err.Error(), "closed") {
				t.Fatalf("Scan after Close: %v", err)
			}
			if rows.Row() != nil || rows.Values() != nil || rows.Next() {
				t.Fatal("a row after Close")
			}
		})
	}
}

// scanCursor is the Scan surface the embedded, client and coordinator
// cursors share.
type scanCursor interface {
	Columns() []string
	Next() bool
	Scan(dest ...any) error
	Close() error
}

// scanMatrix scans every column of a cursor's first rows into each
// destination type Scan supports, the other columns into *any, and records
// each outcome: the value with its dynamic type, or the error text after
// the cursor's package prefix. It closes the cursor.
func scanMatrix(t *testing.T, rows scanCursor) []string {
	t.Helper()
	defer rows.Close()
	var out []string
	for n := 0; n < 3 && rows.Next(); n++ {
		cols := len(rows.Columns())
		for c := 0; c < cols; c++ {
			for _, d := range []any{new(int64), new(float64), new(string), new(bool), new(time.Time), new(any)} {
				dest := make([]any, cols)
				for i := range dest {
					dest[i] = new(any)
				}
				dest[c] = d
				if err := rows.Scan(dest...); err != nil {
					_, msg, _ := strings.Cut(err.Error(), "Scan: ")
					out = append(out, msg)
					continue
				}
				v := reflect.ValueOf(d).Elem().Interface()
				out = append(out, fmt.Sprintf("%T %T %v", d, v, v))
			}
		}
	}
	if len(out) == 0 {
		t.Fatal("no rows to scan")
	}
	return out
}

// TestDistLegShape: a replica that answers a leg with another column count
// than the coordinator planned is refused when the leg's stream opens — so
// also when it has no rows to check — as a *ShardError naming slice and
// node. The node answered, so its breaker stays closed.
func TestDistLegShape(t *testing.T) {
	// failingBackend answers every statement with zero rows of one column.
	_, addr := serveBackend(t, server.Config{Backend: failingBackend{}})
	co, err := dist.Open(dist.Config{Shards: []string{addr}})
	if err != nil {
		t.Fatalf("dist.Open: %v", err)
	}
	defer co.Close()

	drain := func(q string) error {
		rows, err := co.Query(context.Background(), q)
		if err != nil {
			return err
		}
		defer rows.Close()
		for rows.Next() {
			t.Fatalf("a row out of an empty shard: %v", rows.Row())
		}
		return rows.Err()
	}
	err = drain(`SELECT l_orderkey, l_quantity FROM lineitem`)
	var se *dist.ShardError
	if !errors.As(err, &se) || se.Shard != 0 || se.Addr != addr ||
		!strings.Contains(err.Error(), "has 1 columns, coordinator expected 2") {
		t.Fatalf("two planned columns, one answered: %v; want a ShardError for slice 0 on %s", err, addr)
	}
	if err := drain(`SELECT l_orderkey FROM lineitem`); err != nil {
		t.Fatalf("one planned column, one answered: %v", err)
	}
	if h := co.Health(); h.Status != "pass" {
		t.Fatalf("a wrong answer opened a breaker: %s (%s)", h.Status, h.Detail)
	}
	if n := co.TrackedBytes(); n != 0 {
		t.Fatalf("tracked bytes = %d, want 0", n)
	}
}

// TestDistSingleShardRouting checks replicated-only queries run as one leg
// on one node, round-robin rather than scattering, so every node serves
// some of them.
func TestDistSingleShardRouting(t *testing.T) {
	fleet := startFleet(t, 2, dist.Config{})
	scans := make([]*obsv.Counter, len(fleet.addrs))
	before := make([]uint64, len(fleet.addrs))
	for i, addr := range fleet.addrs {
		scans[i] = obsv.Default.Counter(fmt.Sprintf("bufferdb_coord_shard_scans_total{shard=%q}", addr))
		before[i] = scans[i].Value()
	}
	for i := 0; i < 4; i++ {
		rows, err := fleet.co.Query(context.Background(), `SELECT COUNT(*) FROM nation`)
		if err != nil {
			t.Fatalf("Query: %v", err)
		}
		got := drainCoord(t, rows)
		if len(got) != 1 || got[0][0].(int64) != 25 {
			t.Fatalf("nation count: %v", got)
		}
	}
	for i, c := range scans {
		if d := c.Value() - before[i]; d < 1 {
			t.Errorf("node %d (%s) served %d of 4 replicated-only queries, want at least 1", i, fleet.addrs[i], d)
		}
	}
}

// TestDistRejections checks the typed plan-time failures.
func TestDistRejections(t *testing.T) {
	fleet := startFleet(t, 2, dist.Config{})

	_, err := fleet.co.Query(context.Background(),
		`SELECT COUNT(*) FROM lineitem JOIN orders ON l_partkey = o_custkey`)
	if !errors.Is(err, dist.ErrNotDistributable) {
		t.Fatalf("non-colocated join: %v, want ErrNotDistributable", err)
	}

	_, err = fleet.co.Query(context.Background(),
		`INSERT INTO region VALUES (99, 'NOWHERE', 'x')`)
	if !errors.Is(err, bufferdb.ErrReadOnly) {
		t.Fatalf("insert: %v, want ErrReadOnly", err)
	}
}

// TestDistPlanErrors checks a query the analyzer refuses is refused by the
// coordinator with the single node's error text, byte for byte: both
// phases are planned by the same analyzer.
func TestDistPlanErrors(t *testing.T) {
	fleet := startFleet(t, 2, dist.Config{})
	ref := singleNode(t)
	for _, q := range []string{
		`SELECT l_quantity, COUNT(*) FROM lineitem GROUP BY l_returnflag`,
		`SELECT l_returnflag, COUNT(*) FROM lineitem GROUP BY l_returnflag ORDER BY l_linestatus`,
	} {
		_, want := ref.Query(context.Background(), q)
		if want == nil {
			t.Fatalf("single node accepted %q", q)
		}
		rows, err := fleet.co.Query(context.Background(), q)
		if err == nil {
			rows.Close()
			t.Fatalf("coordinator accepted %q", q)
		}
		if err.Error() != want.Error() {
			t.Errorf("%q:\n coordinator %q\n single node %q", q, err, want)
		}
	}
}

// TestDistOptionForwarding checks per-query knobs cross the coordinator to
// the shards: a tiny memory budget trips the shard-side governor and the
// sentinel survives the two hops back.
func TestDistOptionForwarding(t *testing.T) {
	fleet := startFleet(t, 2, dist.Config{})

	rows, err := fleet.co.Query(context.Background(),
		`SELECT l_orderkey, COUNT(*) FROM lineitem GROUP BY l_orderkey`,
		client.WithMemoryBudget(512))
	if err == nil {
		for rows.Next() {
		}
		err = rows.Err()
		rows.Close()
	}
	if !errors.Is(err, bufferdb.ErrMemoryBudgetExceeded) {
		t.Fatalf("budget 512: %v, want ErrMemoryBudgetExceeded", err)
	}
	var se *dist.ShardError
	if !errors.As(err, &se) {
		t.Fatalf("budget error not attributed to a shard: %v", err)
	}
	if errors.Is(err, bufferdb.ErrShardUnavailable) {
		t.Fatalf("engine error misclassified as shard loss: %v", err)
	}
	if n := fleet.co.TrackedBytes(); n != 0 {
		t.Fatalf("tracked bytes after failed query = %d, want 0", n)
	}
}

// TestDistChaosShardKill is the chaos gate: SIGKILL-equivalent loss of one
// shard mid-query surfaces a typed ShardError wrapping ErrShardUnavailable,
// sibling streams tear down, no goroutines leak, and the coordinator's
// tracked memory audits to zero.
func TestDistChaosShardKill(t *testing.T) {
	// Victim shard 1 carries an injected per-row scan latency: on loopback a
	// small slice otherwise streams into the kernel socket buffers in full
	// before the kill can land, and a completed stream survives any kill.
	// The latency holds the shard's execution genuinely mid-flight.
	slow := func(sql string) *bufferdb.FaultInjector {
		if !strings.Contains(sql, "lineitem") {
			return nil
		}
		return bufferdb.NewFaultInjector(1, bufferdb.Fault{
			Match: "Scan", Kind: bufferdb.FaultLatency,
			After: 100, Every: 10, Latency: 2 * time.Millisecond,
		})
	}
	f := &shardFleet{}
	for i := 0; i < 3; i++ {
		hook := slow
		if i != 1 {
			hook = nil
		}
		srv, addr := startShard(t, i, 3, testSF, hook)
		f.servers = append(f.servers, srv)
		f.addrs = append(f.addrs, addr)
	}
	co, err := dist.Open(dist.Config{Shards: f.addrs})
	if err != nil {
		t.Fatalf("dist.Open: %v", err)
	}
	t.Cleanup(func() { co.Close() })
	f.co = co
	fleet := f
	baseline := runtime.NumGoroutine()

	rows, err := fleet.co.Query(context.Background(),
		`SELECT l_orderkey, l_quantity, l_extendedprice, l_comment FROM lineitem`)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}

	// Consume a little, then kill shard 1 abruptly: an expired context makes
	// Shutdown force-close every connection instead of draining.
	for i := 0; i < 10 && rows.Next(); i++ {
	}
	killed, cancel := context.WithCancel(context.Background())
	cancel()
	_ = fleet.servers[1].Shutdown(killed)

	for rows.Next() {
	}
	err = rows.Err()
	if err == nil {
		t.Fatalf("stream survived shard kill")
	}
	var se *dist.ShardError
	if !errors.As(err, &se) {
		t.Fatalf("error is %T (%v), want *dist.ShardError", err, err)
	}
	if se.Shard != 1 {
		t.Fatalf("error attributed to shard %d (%s), want 1", se.Shard, se.Addr)
	}
	if !errors.Is(err, bufferdb.ErrShardUnavailable) {
		t.Fatalf("error does not wrap ErrShardUnavailable: %v", err)
	}
	if err := rows.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	if n := fleet.co.TrackedBytes(); n != 0 {
		t.Fatalf("coordinator tracked bytes after chaos = %d, want 0", n)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && runtime.NumGoroutine() > baseline {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Fatalf("goroutine leak after chaos: %d running, baseline %d", n, baseline)
	}
}

// TestDistDeadShardAtOpen checks a shard that is down before the query
// starts fails the scatter with the same typed error.
func TestDistDeadShardAtOpen(t *testing.T) {
	fleet := startFleet(t, 2, dist.Config{})
	killed, cancel := context.WithCancel(context.Background())
	cancel()
	_ = fleet.servers[0].Shutdown(killed)

	rows, err := fleet.co.Query(context.Background(),
		`SELECT COUNT(*) FROM lineitem`)
	if err == nil {
		for rows.Next() {
		}
		err = rows.Err()
		rows.Close()
	}
	if !errors.Is(err, bufferdb.ErrShardUnavailable) {
		t.Fatalf("dead shard at open: %v, want ErrShardUnavailable", err)
	}
	if n := fleet.co.TrackedBytes(); n != 0 {
		t.Fatalf("tracked bytes = %d, want 0", n)
	}
}

// TestDistServe drives the coordinator's own wire front-end with the
// standard client: scatter results match single-node, Tables sums sharded
// row counts, and a mid-stream client cancel unwinds cleanly.
func TestDistServe(t *testing.T) {
	fleet := startFleet(t, 3, dist.Config{})
	ref := singleNode(t)

	// The coordinator is served by the one session loop, so it exports the
	// serving metrics. The in-process shard servers feed the same registry:
	// the connection is the coordinator's alone (the shard pools dialed at
	// Open); the ad hoc count is a lower bound the shards' own traffic (3
	// legs per scatter, 3 scatters) would not meet.
	metric := func(name string) func() uint64 {
		c := obsv.Default.Counter(name)
		before := c.Value()
		return func() uint64 { return c.Value() - before }
	}
	conns := metric("bufferdbd_connections_total")
	adhoc := metric(`bufferdbd_queries_total{source="adhoc"}`)
	bytesSent := metric("bufferdbd_bytes_sent_total")
	inFlight := obsv.Default.Gauge("bufferdbd_queries_in_flight")
	inFlightBefore := inFlight.Value()

	_, addr := serveBackend(t, server.Config{Backend: fleet.co, Info: "test-coordinator"})
	cl, err := client.Dial(addr, client.Config{})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()

	q := `SELECT l_returnflag, COUNT(*), SUM(l_extendedprice) FROM lineitem
		GROUP BY l_returnflag ORDER BY l_returnflag`
	want, err := ref.Query(context.Background(), q)
	if err != nil {
		t.Fatalf("single-node: %v", err)
	}
	res, err := cl.QueryAll(context.Background(), q)
	if err != nil {
		t.Fatalf("QueryAll: %v", err)
	}
	compareRows(t, res.Rows, want.Rows, true)

	// Tables must report deployment-wide counts: the sharded tables sum to
	// the single-node cardinality.
	infos, err := cl.Tables(context.Background())
	if err != nil {
		t.Fatalf("Tables: %v", err)
	}
	wantCount, err := ref.RowCount("lineitem")
	if err != nil {
		t.Fatalf("RowCount: %v", err)
	}
	var got uint64
	for _, ti := range infos {
		if ti.Name == "lineitem" {
			got = ti.Rows
		}
	}
	if got != uint64(wantCount) {
		t.Fatalf("coordinator lineitem rows = %d, want %d", got, wantCount)
	}

	// A prepared statement executes through the coordinator too.
	stmt := cl.Prepare(q)
	res2, err := stmt.QueryAll(context.Background())
	if err != nil {
		t.Fatalf("stmt.QueryAll: %v", err)
	}
	compareRows(t, res2.Rows, want.Rows, true)

	// Client-side cancel mid-stream: the cursor reports cancellation and the
	// coordinator's tracked memory drains.
	ctx, cancel := context.WithCancel(context.Background())
	rows, err := cl.Query(ctx, `SELECT l_orderkey, l_comment FROM lineitem`)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	for i := 0; i < 5 && rows.Next(); i++ {
	}
	cancel()
	for rows.Next() {
	}
	rows.Close()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && fleet.co.TrackedBytes() != 0 {
		time.Sleep(5 * time.Millisecond)
	}
	if n := fleet.co.TrackedBytes(); n != 0 {
		t.Fatalf("tracked bytes after cancel = %d, want 0", n)
	}

	if got := adhoc(); got < 3+9 {
		t.Errorf("adhoc queries delta = %d, want the coordinator's 3 on top of 9 shard legs", got)
	}
	if got := conns(); got < 1 {
		t.Errorf("connections delta = %d, want the client's", got)
	}
	if bytesSent() == 0 {
		t.Error("bytes sent did not move")
	}
	// The canceled legs unwind on the shards in their own time.
	for deadline = time.Now().Add(5 * time.Second); time.Now().Before(deadline) && inFlight.Value() != inFlightBefore; {
		time.Sleep(5 * time.Millisecond)
	}
	if got := inFlight.Value(); got != inFlightBefore {
		t.Errorf("queries in flight = %v after the last stream ended, want %v", got, inFlightBefore)
	}

	// A listener whose Accept fails is closed on the way out of Serve, not
	// left to its caller.
	srv, err := server.New(server.Config{Backend: fleet.co})
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	broken := &brokenListener{}
	if err := srv.Serve(broken); !errors.Is(err, errBrokenAccept) {
		t.Fatalf("Serve over a broken listener returned %v", err)
	}
	if !broken.closed {
		t.Fatal("Serve left the listener open after Accept failed")
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

var errBrokenAccept = errors.New("accept: too many open files")

// brokenListener fails every Accept and records being closed.
type brokenListener struct{ closed bool }

func (l *brokenListener) Accept() (net.Conn, error) { return nil, errBrokenAccept }
func (l *brokenListener) Close() error              { l.closed = true; return nil }
func (l *brokenListener) Addr() net.Addr            { return &net.TCPAddr{} }

// TestDistConfigValidation covers constructor errors.
func TestDistConfigValidation(t *testing.T) {
	if _, err := dist.Open(dist.Config{}); err == nil {
		t.Fatal("Open with no shards succeeded")
	}
	if _, err := server.New(server.Config{}); err == nil {
		t.Fatal("server.New with neither a coordinator nor a database succeeded")
	}
	if _, err := bufferdb.OpenTPCH(testSF, bufferdb.Options{
		ShardCount: 2, DataDir: t.TempDir(),
	}); err == nil {
		t.Fatal("sharded OpenTPCH with DataDir succeeded")
	}
}
