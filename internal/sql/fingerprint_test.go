package sql

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"bufferdb/internal/exec"
	"bufferdb/internal/plan"
	"bufferdb/internal/reuse"
	"bufferdb/internal/storage"
)

// fpQuery plans a query and fingerprints the root of its physical plan.
func fpQuery(t *testing.T, query string, ep *reuse.Epochs) (string, reuse.ReadSet) {
	t.Helper()
	p, err := PlanQuery(query, testDB, Options{})
	if err != nil {
		t.Fatalf("plan %q: %v", query, err)
	}
	key, reads, ok := plan.Fingerprint(p, ep)
	if !ok {
		t.Fatalf("fingerprint refused %q:\n%s", query, plan.Explain(p))
	}
	return key, reads
}

// canonRows renders an executed result set order-insensitively.
func canonRows(rows []storage.Row) string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.String()
	}
	sort.Strings(out)
	return strings.Join(out, "\n")
}

// TestFingerprintAlphaEquivalence: queries that differ only in whitespace,
// alias names, predicate order, or comparison spelling must produce the
// same fingerprint — and, as ground truth, the same execution results.
func TestFingerprintAlphaEquivalence(t *testing.T) {
	pairs := []struct{ name, a, b string }{
		{"whitespace",
			"SELECT COUNT(*) FROM lineitem WHERE l_shipdate <= DATE '1995-06-17'",
			"select   count(*)\n  from LINEITEM\n where l_shipdate <= DATE '1995-06-17'"},
		{"alias names",
			"SELECT SUM(l_quantity) AS total, COUNT(*) AS n FROM lineitem GROUP BY l_returnflag",
			"SELECT SUM(l_quantity) AS s, COUNT(*) AS cnt FROM lineitem GROUP BY l_returnflag"},
		{"predicate order",
			"SELECT COUNT(*) FROM lineitem WHERE l_quantity < 25 AND l_discount < 0.05",
			"SELECT COUNT(*) FROM lineitem WHERE l_discount < 0.05 AND l_quantity < 25"},
		{"comparison flip",
			"SELECT COUNT(*) FROM lineitem WHERE l_quantity > 25",
			"SELECT COUNT(*) FROM lineitem WHERE 25 < l_quantity"},
		{"equality commutes",
			"SELECT COUNT(*) FROM orders o, lineitem l WHERE o_orderkey = l_orderkey",
			"SELECT COUNT(*) FROM orders o, lineitem l WHERE l_orderkey = o_orderkey"},
		{"table alias rename",
			"SELECT COUNT(*) FROM orders x, lineitem y WHERE x.o_orderkey = y.l_orderkey",
			"SELECT COUNT(*) FROM orders a, lineitem b WHERE a.o_orderkey = b.l_orderkey"},
	}
	for _, p := range pairs {
		t.Run(p.name, func(t *testing.T) {
			ka, _ := fpQuery(t, p.a, nil)
			kb, _ := fpQuery(t, p.b, nil)
			if ka != kb {
				t.Errorf("fingerprints differ:\n  %s\n  %s", ka, kb)
			}
			ra := canonRows(runSQL(t, p.a, Options{}))
			rb := canonRows(runSQL(t, p.b, Options{}))
			if ra != rb {
				t.Errorf("execution results differ:\n%s\n-- vs --\n%s", ra, rb)
			}
		})
	}
}

// TestFingerprintDistinguishes: structurally different queries must not
// collide — a collision here would serve one query's rows for another's.
func TestFingerprintDistinguishes(t *testing.T) {
	queries := []string{
		"SELECT COUNT(*) FROM lineitem",
		"SELECT COUNT(*) FROM orders",
		"SELECT COUNT(*) FROM lineitem WHERE l_quantity < 25",
		"SELECT COUNT(*) FROM lineitem WHERE l_quantity < 26",
		"SELECT COUNT(*) FROM lineitem WHERE l_quantity <= 25",
		"SELECT SUM(l_quantity) FROM lineitem",
		"SELECT SUM(l_quantity) FROM lineitem GROUP BY l_returnflag",
		"SELECT SUM(l_quantity) FROM lineitem GROUP BY l_linestatus",
		"SELECT AVG(l_quantity) FROM lineitem",
		"SELECT COUNT(*) FROM orders o, lineitem l WHERE o_orderkey = l_orderkey",
		"SELECT COUNT(*) FROM lineitem WHERE l_quantity < 25 OR l_discount < 0.05",
		"SELECT COUNT(*) FROM lineitem WHERE l_quantity < 25 AND l_discount < 0.05",
	}
	seen := map[string]string{}
	for _, q := range queries {
		key, _ := fpQuery(t, q, nil)
		if prev, dup := seen[key]; dup {
			t.Errorf("collision between %q and %q: %s", prev, q, key)
		}
		seen[key] = q
	}
}

// TestFingerprintEpochs: keys carry no epoch, so a write leaves every key
// as it was; bumping a table's write epoch makes stale the read sets of
// exactly its dependents.
func TestFingerprintEpochs(t *testing.T) {
	ep := reuse.NewEpochs()
	li := "SELECT COUNT(*) FROM lineitem WHERE l_quantity < 25"
	ord := "SELECT COUNT(*) FROM orders WHERE o_totalprice < 1000"
	join := "SELECT COUNT(*) FROM lineitem, orders WHERE l_orderkey = o_orderkey"

	liBefore, liReads := fpQuery(t, li, ep)
	ordBefore, ordReads := fpQuery(t, ord, ep)
	joinBefore, joinReads := fpQuery(t, join, ep)
	for _, rs := range []reuse.ReadSet{liReads, ordReads, joinReads} {
		if rs.Stale() {
			t.Fatal("fresh read set is stale")
		}
	}

	ep.Bump("lineitem")
	if !liReads.Stale() || !joinReads.Stale() {
		t.Error("lineitem write left a dependent read set current")
	}
	if ordReads.Stale() {
		t.Error("lineitem write made an orders-only read set stale")
	}
	liAfter, liNow := fpQuery(t, li, ep)
	ordAfter, _ := fpQuery(t, ord, ep)
	joinAfter, _ := fpQuery(t, join, ep)
	if liAfter != liBefore || ordAfter != ordBefore || joinAfter != joinBefore {
		t.Error("a write changed a fingerprint key")
	}
	if liNow.Stale() {
		t.Error("read set taken after the write is stale")
	}
	if strings.Contains(liAfter, "@") {
		t.Errorf("key embeds an epoch: %s", liAfter)
	}
}

// TestFingerprintRefinementTransparent: buffer insertion by plan refinement
// must not change fingerprints — the refined and unrefined plan of the same
// query share cache entries.
func TestFingerprintRefinementTransparent(t *testing.T) {
	q := `SELECT l_returnflag, COUNT(*) FROM lineitem
	      WHERE l_shipdate <= DATE '1995-06-17' GROUP BY l_returnflag`
	p, err := PlanQuery(q, testDB, Options{})
	if err != nil {
		t.Fatal(err)
	}
	raw, _, ok := plan.Fingerprint(p, nil)
	if !ok {
		t.Fatal("fingerprint refused raw plan")
	}
	refined, _, err := plan.Refine(plan.Clone(p), newTestCodeModel(),
		plan.RefineOptions{CardinalityThreshold: 100})
	if err != nil {
		t.Fatal(err)
	}
	if plan.CountKind(refined, plan.KindBuffer) == 0 {
		t.Skip("refinement added no buffers at this scale")
	}
	ref, _, ok := plan.Fingerprint(refined, nil)
	if !ok {
		t.Fatal("fingerprint refused refined plan")
	}
	if raw != ref {
		t.Errorf("refinement changed the key:\n  %s\n  %s", raw, ref)
	}
}

// TestFingerprintPropertyShuffledConjuncts: randomized property test — a
// conjunction fingerprints identically under every permutation and
// comparison flip, and the permuted queries execute identically.
func TestFingerprintPropertyShuffledConjuncts(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	type pred struct{ canonical, flipped string }
	pool := []pred{
		{"l_quantity < 30", "30 > l_quantity"},
		{"l_discount <= 0.07", "0.07 >= l_discount"},
		{"l_extendedprice < 50000", "50000 > l_extendedprice"},
		{"l_linenumber <= 4", "4 >= l_linenumber"},
		{"l_tax < 0.05", "0.05 > l_tax"},
	}
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(len(pool)-1)
		idx := rng.Perm(len(pool))[:n]
		base := make([]string, n)
		shuf := make([]string, n)
		for i, j := range idx {
			base[i] = pool[j].canonical
			if rng.Intn(2) == 0 {
				shuf[i] = pool[j].flipped
			} else {
				shuf[i] = pool[j].canonical
			}
		}
		rng.Shuffle(n, func(i, j int) { shuf[i], shuf[j] = shuf[j], shuf[i] })
		qa := "SELECT COUNT(*), SUM(l_quantity) FROM lineitem WHERE " + strings.Join(base, " AND ")
		qb := "SELECT COUNT(*), SUM(l_quantity) FROM lineitem WHERE " + strings.Join(shuf, " AND ")
		ka, _ := fpQuery(t, qa, nil)
		kb, _ := fpQuery(t, qb, nil)
		if ka != kb {
			t.Fatalf("trial %d: permuted conjunction changed the key\n  %q\n  %q\n  %s\n  %s",
				trial, qa, qb, ka, kb)
		}
		if ra, rb := canonRows(runSQL(t, qa, Options{})), canonRows(runSQL(t, qb, Options{})); ra != rb {
			t.Fatalf("trial %d: permuted conjunction changed the result", trial)
		}
	}
}

// FuzzFingerprintNormalization drives the canonicalizer with generated
// predicate sets: any two orderings of the same conjunct set (with random
// comparison flips) must collide, and never collide with a strictly larger
// set.
func FuzzFingerprintNormalization(f *testing.F) {
	f.Add(int64(1), uint8(3))
	f.Add(int64(99), uint8(5))
	f.Fuzz(func(t *testing.T, seed int64, mask uint8) {
		rng := rand.New(rand.NewSource(seed))
		cols := []string{"l_quantity", "l_linenumber", "l_discount", "l_tax", "l_extendedprice"}
		var preds []string
		for i, c := range cols {
			if mask&(1<<uint(i)) != 0 {
				preds = append(preds, fmt.Sprintf("%s < %d", c, 1+rng.Intn(50)))
			}
		}
		if len(preds) == 0 {
			t.Skip()
		}
		mk := func(ps []string) string {
			return "SELECT COUNT(*) FROM lineitem WHERE " + strings.Join(ps, " AND ")
		}
		shuf := append([]string(nil), preds...)
		rng.Shuffle(len(shuf), func(i, j int) { shuf[i], shuf[j] = shuf[j], shuf[i] })
		ka, _ := fpQuery(t, mk(preds), nil)
		kb, _ := fpQuery(t, mk(shuf), nil)
		if ka != kb {
			t.Fatalf("permutation changed key:\n%s\n%s", ka, kb)
		}
		wider := append(append([]string(nil), preds...), "l_shipmode IS NOT NULL")
		kc, _ := fpQuery(t, mk(wider), nil)
		if kc == ka {
			t.Fatalf("adding a conjunct did not change the key: %s", ka)
		}
	})
}

// TestFingerprintEndToEndReuse is the property test's ground truth at the
// engine level: three alias-renamed spellings of the same aggregation, run
// through a live reuse cache, must yield a deferred miss, an admitted miss
// and a hit, with identical rows.
func TestFingerprintEndToEndReuse(t *testing.T) {
	cache := reuse.New(1<<20, reuse.NewEpochs(), nil)
	defer cache.Close()

	run := func(q string) []storage.Row {
		t.Helper()
		p, err := PlanQuery(q, testDB, Options{})
		if err != nil {
			t.Fatal(err)
		}
		p, releases := plan.ApplyReuse(p, cache)
		op, err := plan.Compile(p, nil, plan.EngineVolcano)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := exec.Run(&exec.Context{Catalog: testDB}, op)
		if err != nil {
			t.Fatal(err)
		}
		for _, rel := range releases {
			rel()
		}
		return rows
	}

	// Three alias spellings of one aggregate share its fingerprint: the
	// first sighting is deferred, the second publishes, the third adopts.
	queries := []string{
		"SELECT l_returnflag, SUM(l_quantity) AS q FROM lineitem GROUP BY l_returnflag",
		"SELECT l_returnflag AS flag, SUM(l_quantity) AS total FROM lineitem GROUP BY l_returnflag",
		"SELECT l_returnflag AS f, SUM(l_quantity) AS s FROM lineitem GROUP BY l_returnflag",
	}
	want := []reuse.Stats{
		{Misses: 1, Deferred: 1},
		{Misses: 2, Deferred: 1, Entries: 1},
		{Hits: 1, Misses: 2, Deferred: 1, Entries: 1},
	}
	var first []storage.Row
	for i, q := range queries {
		rows := run(q)
		if i == 0 {
			first = rows
		} else if canonRows(rows) != canonRows(first) {
			t.Fatalf("reused aggregate changed the result:\n%s\n-- vs --\n%s", canonRows(first), canonRows(rows))
		}
		st := cache.Stats()
		got := reuse.Stats{Hits: st.Hits, Misses: st.Misses, Deferred: st.Deferred, Entries: st.Entries}
		if got != want[i] {
			t.Errorf("after sighting %d: %+v, want %+v", i+1, got, want[i])
		}
	}
}

// TestDeferredMissTakesNoReadSet: a subplan whose publish the cache defers
// costs ApplyReuse its fingerprint and nothing more; the read set a publish
// would carry is taken only once Admit lets the key through. A closed
// cache defers every key, so each run below is a deferred miss.
func TestDeferredMissTakesNoReadSet(t *testing.T) {
	p, err := PlanQuery("SELECT n_name, COUNT(*) FROM nation, region WHERE n_regionkey = r_regionkey GROUP BY n_name", testDB, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cache := reuse.New(1<<20, reuse.NewEpochs(), nil)
	cache.Close()
	var subplans []*plan.Node // what ApplyReuse fingerprints
	var walk func(n *plan.Node)
	walk = func(n *plan.Node) {
		if n.Kind == plan.KindAggregate || n.Kind == plan.KindHashBuild {
			subplans = append(subplans, n)
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(p)
	if len(subplans) < 2 {
		t.Fatalf("plan has %d aggregates and hash builds, want 2:\n%s", len(subplans), plan.Explain(p))
	}

	withReads := testing.AllocsPerRun(20, func() {
		for _, n := range subplans {
			plan.Fingerprint(n, cache.Epochs())
		}
	})
	apply := testing.AllocsPerRun(20, func() { plan.ApplyReuse(p, cache) })
	t.Logf("fingerprints with read sets: %.0f allocs; deferred ApplyReuse: %.0f", withReads, apply)
	if apply >= withReads {
		t.Errorf("ApplyReuse of %d deferred subplans made %.0f allocations, as many as fingerprinting them with their read sets (%.0f)", len(subplans), apply, withReads)
	}
}
