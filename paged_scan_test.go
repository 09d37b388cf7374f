package bufferdb

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"bufferdb/internal/bench"
	"bufferdb/internal/plan"
	"bufferdb/internal/sql"
)

// The paged-scan suite pins what column-pruned, borrow-then-keep scans must
// not change: a paged database answers exactly like the memory-resident one
// on every engine, whatever the query reads of each table; rows
// an operator retains own their memory; a build pruned for one parent is
// never served to another; and storage faults still surface typed, leaking
// nothing.

const pagedScanSF = 0.005

// pagedScanDBs opens the same TPC-H data memory-resident and paged. The
// paged pool is a few dozen frames under a lineitem heap of a few hundred
// pages, so every scan washes through it. The threshold is low enough that
// refinement buffers these scans.
func pagedScanDBs(t testing.TB, opts Options) (mem, paged *DB) {
	t.Helper()
	mem, err := OpenTPCH(pagedScanSF, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mem.Close() })
	opts.DataDir, opts.PoolBytes = t.TempDir(), 256<<10
	if paged, err = OpenTPCH(pagedScanSF, opts); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { paged.Close() })
	return mem, paged
}

// pagedScanQueries is the TPC-H workload of the engine-equivalence suites,
// less the index nested-loop plan (paged tables carry no indexes), plus two
// shapes that hand scan rows to a retaining consumer untouched: a bare
// SELECT * and a join whose build side keeps whole rows.
var pagedScanQueries = []struct {
	name, query, join string
}{
	{"Query1", bench.Query1, ""},
	{"Query2", bench.Query2, ""},
	{"Query3-hash", bench.Query3, "hash"},
	{"Query3-merge", bench.Query3, "merge"},
	{"TPCH-Q1", bench.TPCHQ1, ""},
	{"TPCH-Q3", bench.TPCHQ3, ""},
	{"TPCH-Q5", bench.TPCHQ5, ""},
	{"TPCH-Q6", bench.TPCHQ6, ""},
	{"TPCH-Q10", bench.TPCHQ10, ""},
	{"TPCH-Q12", bench.TPCHQ12, ""},
	{"TPCH-Q14", bench.TPCHQ14, ""},
	{"star", `SELECT * FROM orders WHERE o_totalprice > 300000`, ""},
	{"star-join", `SELECT * FROM nation, region WHERE n_regionkey = r_regionkey`, ""},
}

// TestPagedScanColumns: every query × engine on the paged database
// returns the memory-resident database's rows, byte for byte.
func TestPagedScanColumns(t *testing.T) {
	mem, paged := pagedScanDBs(t, Options{})
	for _, q := range pagedScanQueries {
		want, err := mem.queryWith(context.Background(), q.query, PlanOptions{ForceJoin: q.join})
		if err != nil {
			t.Fatalf("%s in memory: %v", q.name, err)
		}
		if len(want.Rows) == 0 {
			t.Fatalf("%s returns no rows at SF %v: the comparison would be vacuous", q.name, pagedScanSF)
		}
		for _, e := range plan.Engines() {
			got, err := paged.queryWith(context.Background(), q.query, PlanOptions{ForceJoin: q.join, Engine: e})
			if err != nil {
				t.Fatalf("%s %s: %v", q.name, e, err)
			}
			if resultKey(got) != resultKey(want) {
				t.Errorf("%s %s: paged rows differ from memory-resident: %s",
					q.name, e, firstDifference(got, want))
			}
		}
	}
}

// firstDifference names the first row two results disagree on.
func firstDifference(got, want *Result) string {
	for i := 0; i < len(got.Rows) && i < len(want.Rows); i++ {
		if fmt.Sprint(got.Rows[i]) != fmt.Sprint(want.Rows[i]) {
			return fmt.Sprintf("row %d: got %v, want %v", i, got.Rows[i], want.Rows[i])
		}
	}
	return fmt.Sprintf("%d rows, want %d", len(got.Rows), len(want.Rows))
}

// TestPagedScanMasksSurvivePlanning: the masks sql.Analyze assigns reach the
// scans of the plan that is executed — through refinement and a prepared
// statement's clone — and a scan that feeds the client whole rows gets
// none.
func TestPagedScanMasksSurvivePlanning(t *testing.T) {
	_, paged := pagedScanDBs(t, Options{})
	masks := func(p *plan.Node) (masked, scans int) {
		plan.Walk(p, func(n *plan.Node) {
			if n.Kind == plan.KindSeqScan {
				scans++
				if n.ScanCols != nil {
					masked++
				}
			}
		})
		return masked, scans
	}

	p, err := paged.planText(bench.TPCHQ6)
	if err != nil {
		t.Fatal(err)
	}
	if masked, scans := masks(p); scans != 1 || masked != 1 {
		t.Fatalf("refined Q6: %d of %d scans carry a mask, want 1 of 1\n%s", masked, scans, plan.Explain(p))
	}
	if n := plan.CountKind(p, plan.KindBuffer); n == 0 {
		t.Fatalf("Q6 was not buffered; the suite's Keep coverage depends on it\n%s", plan.Explain(p))
	}

	// Prepare leaves Q3's template in the plan cache; an execution binds it.
	if _, err := paged.Prepare(bench.TPCHQ3); err != nil {
		t.Fatal(err)
	}
	bound, err := paged.planText(bench.TPCHQ3)
	if err != nil {
		t.Fatal(err)
	}
	if masked, scans := masks(bound); scans != 3 || masked != 3 {
		t.Fatalf("prepared Q3: %d of %d scans carry a mask, want 3 of 3", masked, scans)
	}

	star, err := paged.planText(`SELECT * FROM orders WHERE o_totalprice > 300000`)
	if err != nil {
		t.Fatal(err)
	}
	if masked, _ := masks(star); masked != 0 {
		t.Fatalf("SELECT * scan carries a mask:\n%s", plan.Explain(star))
	}
}

// TestReuseDoesNotServePrunedBuild: two joins share a build subtree — the
// same scan of orders under the same key — but read different columns of
// it. With the reuse cache on, the second must not adopt the first's build,
// whose rows are NULL outside the first's mask.
func TestReuseDoesNotServePrunedBuild(t *testing.T) {
	mem, paged := pagedScanDBs(t, Options{ReuseCache: true})
	const (
		first  = `SELECT SUM(o_totalprice), COUNT(*) FROM lineitem, orders WHERE l_orderkey = o_orderkey AND l_quantity < 30`
		second = `SELECT SUM(o_shippriority + 1), MIN(o_orderdate), COUNT(*) FROM lineitem, orders WHERE l_orderkey = o_orderkey AND l_quantity < 30`
	)
	build := func(db *DB, q string) string {
		t.Helper()
		p, err := sql.PlanQuery(q, db.cat, sql.Options{})
		if err != nil {
			t.Fatal(err)
		}
		var key string
		plan.Walk(p, func(n *plan.Node) {
			if n.Kind == plan.KindHashBuild {
				var ok bool
				if key, _, ok = plan.Fingerprint(n, db.epochs); !ok {
					t.Fatalf("build of %q has no fingerprint", q)
				}
			}
		})
		return key
	}
	if a, b := build(paged, first), build(paged, second); a == b {
		t.Fatalf("paged builds reading different columns share the key %s", a)
	}
	if a, b := build(mem, first), build(mem, second); a != b {
		t.Fatalf("memory-resident builds hold whole rows and must share a key:\n%s\n%s", a, b)
	}

	ref, err := OpenTPCH(pagedScanSF, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ref.Close() })
	for _, e := range plan.Engines() {
		po := PlanOptions{Engine: e}
		for _, q := range []string{first, second, first, second} {
			want, err := ref.queryWith(context.Background(), q, po)
			if err != nil {
				t.Fatal(err)
			}
			got, err := paged.queryWith(context.Background(), q, po)
			if err != nil {
				t.Fatal(err)
			}
			if resultKey(got) != resultKey(want) {
				t.Fatalf("%s %q with the reuse cache on: %s", e, q, firstDifference(got, want))
			}
		}
	}
	if st := paged.ReuseStats(); st.Hits == 0 {
		t.Fatalf("repeated queries never hit the cache: %+v", st)
	}
}

// TestChaosPagedChecksum flips one byte in the middle of lineitem's heap
// file: every engine fails mid-scan with the typed corruption error, the
// next query over intact tables is served, and after Close nothing is
// tracked and no goroutine is left. Volcano runs the served path (queryWith
// sends it through execPlan under the database's MemoryLimit), so the
// tracked-bytes check covers a governed query failing over a corrupt page;
// vec and push run ungoverned.
func TestChaosPagedChecksum(t *testing.T) {
	base := runtime.NumGoroutine()
	dir := t.TempDir()
	db, err := OpenTPCH(pagedScanSF, Options{DataDir: dir, PoolBytes: 256 << 10, MemoryLimit: 256 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	heap := filepath.Join(dir, "lineitem.heap")
	data, err := os.ReadFile(heap)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2/8192*8192+100] ^= 0x40 // a payload byte of the middle page
	if err := os.WriteFile(heap, data, 0o644); err != nil {
		t.Fatal(err)
	}

	db, err = Open(Options{DataDir: dir, PoolBytes: 256 << 10, MemoryLimit: 256 << 20})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range plan.Engines() {
		_, err := db.queryWith(context.Background(), bench.TPCHQ6, PlanOptions{Engine: e})
		if !errors.Is(err, ErrCorruptData) {
			t.Fatalf("%s over a flipped page: err = %v, want ErrCorruptData", e, err)
		}
		res, err := db.queryWith(context.Background(), `SELECT COUNT(*) FROM orders`, PlanOptions{Engine: e})
		if err != nil || len(res.Rows) != 1 {
			t.Fatalf("%s after the failure: %v", e, err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if n := db.TrackedBytes(); n != 0 {
		t.Fatalf("tracked bytes after close: %d", n)
	}
	waitGoroutines(t, base)
}
