package bufferdb

import (
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	"bufferdb/internal/exec"
	"bufferdb/internal/plan"
	"bufferdb/internal/storage"
)

// The reuse suite pins the semantic reuse cache's contract: bit-identical
// results with the cache on or off across all three engines, cross-query
// (and cross-engine) recycling of hash-join builds and aggregate tables,
// write invalidation, and a zero memory footprint after Close. Vec and push
// run in process without the governor (runOn), the way the benchmarks run
// them; memory charges are checked on Volcano, the served engine.

// reuseQueries mixes the operator shapes the cache handles: plain and
// grouped aggregation, join+aggregate, and predicate spellings that
// normalize to the same fingerprint.
var reuseQueries = []string{
	`SELECT l_returnflag, COUNT(*), SUM(l_quantity) FROM lineitem GROUP BY l_returnflag ORDER BY l_returnflag`,
	`SELECT SUM(l_extendedprice), COUNT(*) FROM lineitem WHERE l_shipdate <= DATE '1995-06-17'`,
	`SELECT SUM(o_totalprice), COUNT(*) FROM lineitem, orders WHERE l_orderkey = o_orderkey AND l_quantity < 30`,
	`SELECT SUM(o_totalprice), COUNT(*) FROM lineitem, orders WHERE l_quantity < 30 AND o_orderkey = l_orderkey`,
	`SELECT l_linestatus, AVG(l_discount) FROM lineitem WHERE l_quantity < 40 AND l_tax < 0.06 GROUP BY l_linestatus ORDER BY l_linestatus`,
	`SELECT l_linestatus, AVG(l_discount) FROM lineitem WHERE l_tax < 0.06 AND l_quantity < 40 GROUP BY l_linestatus ORDER BY l_linestatus`,
}

func newReuseDB(t testing.TB, opts Options) *DB {
	t.Helper()
	if opts.MemoryLimit == 0 {
		opts.MemoryLimit = 256 << 20
	}
	db, err := OpenTPCH(0.002, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// TestReuseEquivalenceAcrossEngines runs the workload twice per engine on a
// cache-enabled database (cold, then warm through the cache) and once on a
// cache-free twin, asserting bit-identical results everywhere.
func TestReuseEquivalenceAcrossEngines(t *testing.T) {
	cached := newReuseDB(t, Options{ReuseCache: true})
	plain := newReuseDB(t, Options{})

	for _, e := range plan.Engines() {
		po := PlanOptions{Engine: e}
		for _, q := range reuseQueries {
			want, err := plain.queryWith(context.Background(), q, po)
			if err != nil {
				t.Fatalf("%s cache-off %q: %v", e, q, err)
			}
			cold, err := cached.queryWith(context.Background(), q, po)
			if err != nil {
				t.Fatalf("%s cold %q: %v", e, q, err)
			}
			warm, err := cached.queryWith(context.Background(), q, po)
			if err != nil {
				t.Fatalf("%s warm %q: %v", e, q, err)
			}
			if resultKey(cold) != resultKey(want) {
				t.Fatalf("%s cold result differs from cache-off for %q:\n got %s\nwant %s",
					e, q, resultKey(cold), resultKey(want))
			}
			if resultKey(warm) != resultKey(want) {
				t.Fatalf("%s warm (cached) result differs for %q:\n got %s\nwant %s",
					e, q, resultKey(warm), resultKey(want))
			}
		}
	}
	st := cached.ReuseStats()
	if st.Hits == 0 {
		t.Fatalf("workload never hit the cache: %+v", st)
	}
	if plainSt := plain.ReuseStats(); plainSt.MaxBytes != 0 {
		t.Fatalf("cache-off database reports a live cache: %+v", plainSt)
	}
}

// TestReuseCrossEngineAdoption: a build published by one engine serves the
// other two — the hash-table and aggregate layouts are engine-independent.
// Push sights the statement first, which the cache defers; Volcano's second
// sighting publishes, and vec and push adopt Volcano's table.
func TestReuseCrossEngineAdoption(t *testing.T) {
	db := newReuseDB(t, Options{ReuseCache: true})
	const q = `SELECT l_returnflag, SUM(l_extendedprice) FROM lineitem GROUP BY l_returnflag ORDER BY l_returnflag`

	var want string
	for i, e := range []Engine{EnginePush, EngineVolcano, EngineVec, EnginePush} {
		res, err := db.queryWith(context.Background(), q, PlanOptions{Engine: e})
		if err != nil {
			t.Fatalf("%s: %v", e, err)
		}
		if i == 0 {
			want = resultKey(res)
		} else if resultKey(res) != want {
			t.Fatalf("%s result differs from the first run:\n got %s\nwant %s", e, resultKey(res), want)
		}
		st := db.ReuseStats()
		switch {
		case i == 0 && (st.Entries != 0 || st.Deferred == 0):
			t.Fatalf("the first sighting (%s) published: %+v", e, st)
		case i == 1 && (st.Entries == 0 || st.Hits != 0):
			t.Fatalf("the second sighting (%s) published nothing: %+v", e, st)
		}
	}
	st := db.ReuseStats()
	if st.Hits < 2 {
		t.Fatalf("cross-engine runs recorded %d hits, want >= 2 (vec and push adopting volcano's table)", st.Hits)
	}
}

// TestReuseAliasRenamedPrepared pins the warm-speedup contract on a
// shared-subplan prepared workload: two alias-renamed spellings of one
// aggregation share a cache entry, and the warm run beats the cold build by
// at least 5x.
func TestReuseAliasRenamedPrepared(t *testing.T) {
	db := newReuseDB(t, Options{ReuseCache: true})

	stA, err := db.Prepare(`SELECT l_returnflag AS flag, SUM(l_extendedprice * (1 - l_discount)) AS revenue, COUNT(*) AS n
	 FROM lineitem WHERE l_shipdate <= DATE '1998-09-02' GROUP BY l_returnflag ORDER BY 1`)
	if err != nil {
		t.Fatal(err)
	}
	stB, err := db.Prepare(`SELECT l_returnflag AS rf, SUM(l_extendedprice * (1 - l_discount)) AS rev, COUNT(*) AS how_many
	 FROM lineitem WHERE l_shipdate <= DATE '1998-09-02' GROUP BY l_returnflag ORDER BY 1`)
	if err != nil {
		t.Fatal(err)
	}

	coldStart := time.Now()
	cold, err := stA.Query(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	coldDur := time.Since(coldStart)

	// Aliases differ; the fingerprint must not care.
	var warmDur time.Duration = time.Hour
	var warm *Result
	for i := 0; i < 5; i++ {
		s := time.Now()
		w, err := stB.Query(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if d := time.Since(s); d < warmDur {
			warmDur = d
		}
		warm = w
	}

	// Compare rows only: the header line legally differs (the two
	// spellings alias their output columns differently).
	ck, wk := resultKey(cold), resultKey(warm)
	if ck[strings.IndexByte(ck, '\n')+1:] != wk[strings.IndexByte(wk, '\n')+1:] {
		t.Fatalf("alias-renamed prepared results differ:\n%s\n-- vs --\n%s", ck, wk)
	}
	st := db.ReuseStats()
	if st.Hits == 0 {
		t.Fatalf("alias-renamed statement never hit the shared entry: %+v", st)
	}
	if warmDur*5 > coldDur {
		t.Errorf("warm run %v not 5x faster than cold build %v", warmDur, coldDur)
	}
}

// TestReuseInsertInvalidation is the stale-read regression test: an INSERT
// into a referenced table forces dependents to rebuild, while entries over
// untouched tables survive.
func TestReuseInsertInvalidation(t *testing.T) {
	db := newReuseDB(t, Options{ReuseCache: true, DataDir: t.TempDir()})
	const regionAgg = `SELECT COUNT(*), MIN(r_regionkey) FROM region`
	const nationAgg = `SELECT COUNT(*) FROM nation`

	count := func(q string) int64 {
		t.Helper()
		res, err := db.Query(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		return res.Rows[0][0].(int64)
	}

	before := count(regionAgg) // first sightings: deferred
	count(nationAgg)
	if st := db.ReuseStats(); st.Entries != 0 || st.Deferred < 2 {
		t.Fatalf("first sightings were published: %+v", st)
	}
	count(regionAgg) // second sightings: published
	count(nationAgg)
	if st := db.ReuseStats(); st.Entries < 2 || st.Hits != 0 {
		t.Fatalf("second sightings were not published: %+v", st)
	}
	count(regionAgg) // third: a hit
	st0 := db.ReuseStats()
	if st0.Hits == 0 {
		t.Fatalf("cache not warmed as expected: %+v", st0)
	}

	if _, err := db.Query(context.Background(),
		`INSERT INTO region VALUES (8, 'PACIFICA', 'speculative')`); err != nil {
		t.Fatal(err)
	}
	st1 := db.ReuseStats()
	if st1.Invalidations == 0 {
		t.Fatalf("INSERT invalidated nothing: %+v", st1)
	}

	// Dependent rebuilt with the new row; a stale cached COUNT would miss it.
	// The key was seen before the write, so the rebuilt table is published
	// at once.
	if after := count(regionAgg); after != before+1 {
		t.Fatalf("region count after INSERT = %d, want %d (served a stale cached aggregate)", after, before+1)
	}
	if st := db.ReuseStats(); st.Entries != st1.Entries+1 || st.Deferred != st1.Deferred {
		t.Fatalf("the rebuilt region aggregate was not republished: %+v, after the write %+v", st, st1)
	}
	// The nation entry survived the region write.
	h := db.ReuseStats().Hits
	count(nationAgg)
	if db.ReuseStats().Hits != h+1 {
		t.Fatal("nation entry did not survive a write to region")
	}
	// The epoch moved, so the old fingerprint can never resurface.
	if got := db.TableEpoch("region"); got != 1 {
		t.Fatalf("region epoch = %d, want 1", got)
	}
	if got := db.TableEpoch("nation"); got != 0 {
		t.Fatalf("nation epoch = %d, want 0", got)
	}
}

// TestReuseCloseReleasesMemory: a first sighting publishes and charges
// nothing, the second publishes and charges TrackedBytes while resident, the
// third hits, and Close releases everything.
func TestReuseCloseReleasesMemory(t *testing.T) {
	db := newReuseDB(t, Options{ReuseCache: true})
	for i := 0; i < 3; i++ {
		if _, err := db.Query(context.Background(), reuseQueries[0]); err != nil {
			t.Fatal(err)
		}
		st := db.ReuseStats()
		switch {
		case i == 0 && (st.Entries != 0 || st.Bytes != 0 || db.TrackedBytes() != 0):
			t.Fatalf("the first sighting published or charged: %+v, tracked %d", st, db.TrackedBytes())
		case i > 0 && (st.Entries == 0 || st.Bytes == 0):
			t.Fatalf("run %d: nothing published: %+v", i+1, st)
		case i > 0 && db.TrackedBytes() != st.Bytes:
			t.Fatalf("run %d: idle tracked bytes %d, want the cache's %d", i+1, db.TrackedBytes(), st.Bytes)
		case i == 2 && st.Hits == 0:
			t.Fatalf("the third run did not hit: %+v", st)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if got := db.TrackedBytes(); got != 0 {
		t.Fatalf("tracked bytes after Close = %d, want 0", got)
	}
	if st := db.ReuseStats(); st.Entries != 0 {
		t.Fatalf("entries survived Close: %+v", st)
	}
}

// breakerRun is one execution of reuseChaosQuery's unrefined plan — a hash
// join under an aggregate, the two breakers whose state lives in
// exec.JoinTable and exec.AggState — with what the breakers handed their
// publish hooks.
type breakerRun struct {
	rows      []storage.Row
	peak      int64
	join      *exec.JoinTable
	joinBytes int64
	agg       []storage.Row
	aggBytes  int64
	published int
}

// runBreakers plans reuseChaosQuery without buffers, wires both breakers to
// capturing hooks — or, with adopt set, the hash build to that published
// table, its build child left in place — and runs it on e. Volcano runs
// through execPlan, the served path, under qo, and reports the query's
// peak tracked bytes; vec and push run ungoverned (runOn), so qo does not
// apply and peak stays 0.
func runBreakers(ctx context.Context, db *DB, e Engine, qo QueryOptions, adopt *exec.JoinTable) (breakerRun, error) {
	var run breakerRun
	_, p, err := db.planPair(reuseChaosQuery, PlanOptions{}, false)
	if err != nil {
		return run, err
	}
	plan.Walk(p, func(n *plan.Node) {
		switch n.Kind {
		case plan.KindHashBuild:
			n.Shared = &exec.SharedBuild{Table: adopt}
			if adopt == nil {
				n.Shared.Publish = func(t *exec.JoinTable, bytes int64) {
					run.join, run.joinBytes = t, bytes
					run.published++
				}
			}
		case plan.KindAggregate:
			n.SharedAgg = &exec.SharedAgg{Publish: func(rows []storage.Row, bytes int64) {
				run.agg, run.aggBytes = rows, bytes
				run.published++
			}}
		}
	})
	if e != EngineVolcano {
		run.rows, err = db.runOn(ctx, p, e)
		return run, err
	}
	rows, err := db.execPlan(ctx, p, qo)
	if err != nil {
		return run, err
	}
	defer rows.Close()
	for rows.Next() {
		run.rows = append(run.rows, rows.row)
	}
	run.peak = rows.mem.Peak()
	return run, rows.Err()
}

// probeAll reads a join table through the keys of the orders table, its
// build side.
func probeAll(t *testing.T, db *DB, jt *exec.JoinTable) map[int64][]storage.Row {
	t.Helper()
	orders, err := db.cat.Table("orders")
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[int64][]storage.Row)
	for _, row := range orders.Rows() {
		out[row[0].I] = jt.Probe(&exec.Context{}, row[0].I)
	}
	return out
}

// TestReuseBreakersIdenticalAcrossEngines: the three engines are drivers
// over one join table and one aggregate state, so the same plan publishes
// the same tables for the same bytes, and answers the same, on each.
func TestReuseBreakersIdenticalAcrossEngines(t *testing.T) {
	db := newReuseDB(t, Options{})
	var first breakerRun
	for i, e := range plan.Engines() {
		run, err := runBreakers(context.Background(), db, e, QueryOptions{}, nil)
		if err != nil {
			t.Fatalf("%s: %v", e, err)
		}
		if run.published != 2 || run.join.Len() == 0 || len(run.agg) == 0 {
			t.Fatalf("%s: published %d tables (join %d rows, aggregate %d)", e, run.published, run.join.Len(), len(run.agg))
		}
		if got := db.TrackedBytes(); got != 0 {
			t.Fatalf("%s: %d bytes tracked after Close", e, got)
		}
		if i == 0 {
			first = run
			continue
		}
		if run.joinBytes != first.joinBytes || run.aggBytes != first.aggBytes {
			t.Errorf("%s published join/aggregate for %d/%d bytes, %s for %d/%d",
				e, run.joinBytes, run.aggBytes, EngineVolcano, first.joinBytes, first.aggBytes)
		}
		if run.join.Len() != first.join.Len() || !reflect.DeepEqual(probeAll(t, db, run.join), probeAll(t, db, first.join)) {
			t.Errorf("%s published a different join table than %s", e, EngineVolcano)
		}
		if !reflect.DeepEqual(run.agg, first.agg) || !reflect.DeepEqual(run.rows, first.rows) {
			t.Errorf("%s: aggregate table %v, result %v; %s: %v, %v", e, run.agg, run.rows, EngineVolcano, first.agg, first.rows)
		}
	}
}

// TestReuseAdoptedBuildIsNeverWritten: an adopted build is read-only on
// every engine even when the build child still yields rows (ApplyReuse
// splices an empty source, a hand-built plan need not) — same answer, the
// cached table untouched, and on Volcano none of its bytes charged to the
// adopting query.
func TestReuseAdoptedBuildIsNeverWritten(t *testing.T) {
	db := newReuseDB(t, Options{})
	cold, err := runBreakers(context.Background(), db, EngineVolcano, QueryOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	before := probeAll(t, db, cold.join)
	for _, e := range plan.Engines() {
		warm, err := runBreakers(context.Background(), db, e, QueryOptions{}, cold.join)
		if err != nil {
			t.Fatalf("%s: %v", e, err)
		}
		if !reflect.DeepEqual(warm.rows, cold.rows) {
			t.Errorf("%s over the adopted build answered %v, want %v", e, warm.rows, cold.rows)
		}
		if want := cold.peak - cold.joinBytes; e == EngineVolcano && warm.peak != want {
			t.Errorf("charged %d bytes over the adopted build, want %d (no build rows)", warm.peak, want)
		}
		if cold.join.Len() != len(before) {
			t.Fatalf("%s grew the adopted table to %d rows, had %d", e, cold.join.Len(), len(before))
		}
		for key, rows := range probeAll(t, db, cold.join) {
			if len(rows) != 1 || &rows[0][0] != &before[key][0][0] {
				t.Fatalf("%s rewrote the adopted table under key %d", e, key)
			}
		}
	}
}
