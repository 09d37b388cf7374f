package sql

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"bufferdb/internal/plan"
	"bufferdb/internal/storage"
	"bufferdb/internal/tpch"
)

// emptyHeap backs a paged table with no rows: enough for planning, whose
// estimators then sample nothing.
type emptyHeap struct{}

func (emptyHeap) NumRows() int     { return 0 }
func (emptyHeap) AvgRowBytes() int { return 0 }
func (emptyHeap) FetchRow(rid int) (storage.Row, error) {
	return nil, fmt.Errorf("empty heap has no row %d", rid)
}
func (emptyHeap) ReadPage(rid int, _ *storage.PageImage) error {
	return fmt.Errorf("empty heap has no row %d", rid)
}
func (emptyHeap) DecodeSlot(*storage.PageImage, int, []bool, storage.Row) error { return nil }

// pagedSchemaCatalog is the TPC-H schema over paged (empty) tables.
func pagedSchemaCatalog() *storage.Catalog {
	cat := storage.NewCatalog()
	for _, t := range tpch.SchemaCatalog().Tables() {
		cat.MustAdd(storage.NewPagedTable(t.Name(), t.Schema(), emptyHeap{}))
	}
	return cat
}

// scanMasks renders every scan's mask as "table: col col …", or
// "table: *" for a scan of every column, sorted.
func scanMasks(p *plan.Node) []string {
	var out []string
	plan.Walk(p, func(n *plan.Node) {
		if n.Kind != plan.KindSeqScan {
			return
		}
		cols := []string{"*"}
		if n.ScanCols != nil {
			cols = cols[:0]
			for i, need := range n.ScanCols {
				if need {
					cols = append(cols, n.Table.Schema()[i].Name)
				}
			}
		}
		out = append(out, n.Table.Name()+": "+strings.Join(cols, " "))
	})
	sort.Strings(out)
	return out
}

// TestAnalyzeAssignsScanMasks: the last step of Analyze gives each paged
// scan exactly the columns its filter and its ancestors read — through
// projections, aggregates, hash and merge joins, residual filters and sort
// keys — and leaves a scan whose rows reach the client whole, and every
// scan of a memory-resident table, without a mask.
func TestAnalyzeAssignsScanMasks(t *testing.T) {
	paged := pagedSchemaCatalog()
	cases := []struct {
		name, query string
		opt         Options
		want        []string
	}{
		{"filter and aggregate arguments",
			`SELECT SUM(l_extendedprice * l_discount) FROM lineitem
			 WHERE l_shipdate >= DATE '1994-01-01' AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24`, Options{},
			[]string{"lineitem: l_quantity l_extendedprice l_discount l_shipdate"}},
		{"group keys, CASE and LIKE",
			`SELECT l_returnflag, SUM(CASE WHEN l_comment LIKE '%x%' THEN l_tax ELSE 0 END) FROM lineitem
			 GROUP BY l_returnflag ORDER BY l_returnflag`, Options{},
			[]string{"lineitem: l_tax l_returnflag l_comment"}},
		{"projection under a sort on an output column",
			`SELECT o_orderkey, o_totalprice * 2 AS twice FROM orders WHERE o_orderdate < DATE '1995-01-01' ORDER BY twice`, Options{},
			[]string{"orders: o_orderkey o_totalprice o_orderdate"}},
		{"count(*) reads nothing",
			`SELECT COUNT(*) FROM lineitem`, Options{},
			[]string{"lineitem: "}},
		{"hash join: keys on both sides, outputs split by side",
			`SELECT SUM(o_totalprice), COUNT(*), AVG(l_discount) FROM lineitem, orders
			 WHERE l_orderkey = o_orderkey AND l_shipdate <= DATE '1995-06-17'`, Options{},
			[]string{"lineitem: l_orderkey l_discount l_shipdate", "orders: o_orderkey o_totalprice"}},
		{"merge join: sort keys below the join",
			`SELECT SUM(o_totalprice), COUNT(*), AVG(l_discount) FROM lineitem, orders
			 WHERE l_orderkey = o_orderkey AND l_shipdate <= DATE '1995-06-17'`, Options{ForceJoin: JoinMerge},
			[]string{"lineitem: l_orderkey l_discount l_shipdate", "orders: o_orderkey o_totalprice"}},
		{"six-way join with a residual equality",
			q5, Options{},
			[]string{
				"customer: c_custkey c_nationkey",
				"lineitem: l_orderkey l_suppkey l_extendedprice l_discount",
				"nation: n_nationkey n_name n_regionkey",
				"orders: o_orderkey o_custkey o_orderdate",
				"region: r_regionkey r_name",
				"supplier: s_suppkey s_nationkey",
			}},
		{"whole rows to the client",
			`SELECT * FROM nation, region WHERE n_regionkey = r_regionkey AND r_name = 'ASIA'`, Options{},
			[]string{"nation: *", "region: *"}},
		{"every column named",
			`SELECT r_regionkey, r_name, r_comment FROM region`, Options{},
			[]string{"region: *"}},
	}
	for _, c := range cases {
		p, err := PlanQuery(c.query, paged, c.opt)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := scanMasks(p); strings.Join(got, "\n") != strings.Join(c.want, "\n") {
			t.Errorf("%s:\n got %q\nwant %q\n%s", c.name, got, c.want, plan.Explain(p))
		}
		// The same statement over memory-resident tables: no masks at all.
		m, err := PlanQuery(c.query, tpch.SchemaCatalog(), Options{ForceJoin: JoinMerge})
		if err != nil {
			t.Fatalf("%s in memory: %v", c.name, err)
		}
		for _, s := range scanMasks(m) {
			if !strings.HasSuffix(s, ": *") {
				t.Errorf("%s: memory-resident scan got a mask: %s", c.name, s)
			}
		}
	}
}

// TestFingerprintRendersScanMask: on paged tables a subtree's key tells
// apart what two parents read of it; on memory-resident tables, whose rows
// are whole whoever scans them, it does not.
func TestFingerprintRendersScanMask(t *testing.T) {
	const (
		a = `SELECT SUM(o_totalprice) FROM lineitem, orders WHERE l_orderkey = o_orderkey`
		b = `SELECT MIN(o_orderdate) FROM lineitem, orders WHERE l_orderkey = o_orderkey`
	)
	buildKey := func(cat *storage.Catalog, query string) string {
		t.Helper()
		p, err := PlanQuery(query, cat, Options{})
		if err != nil {
			t.Fatal(err)
		}
		var key string
		plan.Walk(p, func(n *plan.Node) {
			if n.Kind == plan.KindHashBuild {
				key, _, _ = plan.Fingerprint(n, nil)
			}
		})
		if key == "" {
			t.Fatalf("no fingerprinted build in %q", query)
		}
		return key
	}
	paged, mem := pagedSchemaCatalog(), tpch.SchemaCatalog()
	if ka, kb := buildKey(paged, a), buildKey(paged, b); ka == kb {
		t.Errorf("paged builds over different columns share the key %s", ka)
	}
	if ka := buildKey(paged, a); ka != buildKey(paged, a) || !strings.Contains(ka, ",c=0.3.)") {
		t.Errorf("paged build key %s: want it stable and naming columns 0 and 3", ka)
	}
	if ka, kb := buildKey(mem, a), buildKey(mem, b); ka != kb || strings.Contains(ka, "c=") {
		t.Errorf("memory-resident build keys %s / %s: want equal and maskless", ka, kb)
	}
}
