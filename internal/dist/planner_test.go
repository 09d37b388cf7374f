package dist

import (
	"testing"

	"bufferdb/internal/client"
	"bufferdb/internal/shard"
	"bufferdb/internal/tpch"
)

// TestDistShardSQL pins the statement every leg ships for each scatter
// shape the equivalence suite and the benchmark's fleet workload run: the
// shards' work, their plan and result caches and the bytes on the wire
// depend on this text, alias numbering included.
func TestDistShardSQL(t *testing.T) {
	c := &Coordinator{cat: tpch.SchemaCatalog(), smap: shard.DefaultTPCH(), shards: make([]*client.Client, 3)}
	for _, tc := range []struct{ name, sql, want string }{
		{"agg_group", `SELECT l_returnflag, COUNT(*), SUM(l_extendedprice), AVG(l_quantity), MIN(l_shipdate), MAX(l_discount)
			FROM lineitem WHERE l_quantity > 10 GROUP BY l_returnflag ORDER BY l_returnflag`,
			"SELECT l_returnflag AS __g0, COUNT(*) AS __a0, SUM(l_extendedprice) AS __a1, SUM(l_quantity) AS __a2_s, COUNT(l_quantity) AS __a2_c, MIN(l_shipdate) AS __a4, MAX(l_discount) AS __a5 FROM lineitem WHERE (l_quantity > 10) GROUP BY l_returnflag"},
		{"agg_global", `SELECT SUM(l_extendedprice * l_discount), COUNT(*) FROM lineitem
			WHERE l_discount > 0.02 AND l_quantity < 24`,
			"SELECT SUM((l_extendedprice * l_discount)) AS __a0, COUNT(*) AS __a1 FROM lineitem WHERE ((l_discount > 0.02) AND (l_quantity < 24))"},
		{"agg_arith", `SELECT l_linestatus, SUM(l_extendedprice * (1 - l_discount)) AS revenue, AVG(l_extendedprice) / 1000
			FROM lineitem GROUP BY l_linestatus ORDER BY l_linestatus`,
			"SELECT l_linestatus AS __g0, SUM((l_extendedprice * (1 - l_discount))) AS __a0, SUM(l_extendedprice) AS __a1_s, COUNT(l_extendedprice) AS __a1_c FROM lineitem GROUP BY l_linestatus"},
		{"join_colocated", `SELECT o_orderpriority, COUNT(*), SUM(l_extendedprice)
			FROM orders JOIN lineitem ON l_orderkey = o_orderkey
			WHERE o_orderdate >= DATE '1995-01-01' GROUP BY o_orderpriority ORDER BY o_orderpriority`,
			"SELECT o_orderpriority AS __g0, COUNT(*) AS __a0, SUM(l_extendedprice) AS __a1 FROM orders JOIN lineitem ON (l_orderkey = o_orderkey) WHERE (o_orderdate >= DATE '1995-01-01') GROUP BY o_orderpriority"},
		{"join_replicated", `SELECT c_mktsegment, COUNT(*), SUM(o_totalprice)
			FROM customer JOIN orders ON o_custkey = c_custkey
			GROUP BY c_mktsegment ORDER BY c_mktsegment`,
			"SELECT c_mktsegment AS __g0, COUNT(*) AS __a0, SUM(o_totalprice) AS __a1 FROM customer JOIN orders ON (o_custkey = c_custkey) GROUP BY c_mktsegment"},
		{"scan_unordered", `SELECT l_orderkey, l_quantity, l_shipdate FROM lineitem WHERE l_quantity >= 49`,
			"SELECT l_orderkey, l_quantity, l_shipdate FROM lineitem WHERE (l_quantity >= 49)"},
		{"scan_topn", `SELECT l_orderkey, l_extendedprice FROM lineitem
			ORDER BY l_extendedprice DESC, l_orderkey LIMIT 5`,
			"SELECT l_orderkey, l_extendedprice FROM lineitem ORDER BY l_extendedprice DESC, l_orderkey LIMIT 5"},
		{"replicated_only", `SELECT r_name, COUNT(*) FROM region GROUP BY r_name ORDER BY r_name`,
			"SELECT r_name, COUNT(*) FROM region GROUP BY r_name ORDER BY r_name"},
		{"agg_post", `SELECT l_returnflag, MAX(l_shipdate) > '1998-01-01' AS late, COUNT(*) + 1 AS n FROM lineitem
			GROUP BY l_returnflag ORDER BY n DESC, l_returnflag`,
			"SELECT l_returnflag AS __g0, MAX(l_shipdate) AS __a0, COUNT(*) AS __a1 FROM lineitem GROUP BY l_returnflag"},
		{"fleet_q1", "SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS sum_qty, SUM(l_extendedprice) AS sum_base_price," +
			" SUM(l_extendedprice * (1 - l_discount)) AS sum_disc_price," +
			" SUM(l_extendedprice * (1 - l_discount) * (1 + l_tax)) AS sum_charge," +
			" AVG(l_quantity) AS avg_qty, AVG(l_extendedprice) AS avg_price, AVG(l_discount) AS avg_disc," +
			" COUNT(*) AS count_order FROM lineitem WHERE l_shipdate <= DATE '1998-09-02' AND l_orderkey <> -1" +
			" GROUP BY l_returnflag, l_linestatus ORDER BY l_returnflag, l_linestatus",
			"SELECT l_returnflag AS __g0, l_linestatus AS __g1, SUM(l_quantity) AS __a0, SUM(l_extendedprice) AS __a1, SUM((l_extendedprice * (1 - l_discount))) AS __a2, SUM(((l_extendedprice * (1 - l_discount)) * (1 + l_tax))) AS __a3, SUM(l_quantity) AS __a4_s, COUNT(l_quantity) AS __a4_c, SUM(l_extendedprice) AS __a6_s, COUNT(l_extendedprice) AS __a6_c, SUM(l_discount) AS __a8_s, COUNT(l_discount) AS __a8_c, COUNT(*) AS __a10 FROM lineitem WHERE ((l_shipdate <= DATE '1998-09-02') AND (l_orderkey <> (-1))) GROUP BY l_returnflag, l_linestatus"},
		{"fleet_q3", "SELECT l_orderkey, SUM(l_extendedprice * (1 - l_discount)) AS revenue, o_orderdate, o_shippriority" +
			" FROM customer, orders, lineitem WHERE c_mktsegment = 'BUILDING' AND c_custkey = o_custkey" +
			" AND l_orderkey = o_orderkey AND o_orderdate < DATE '1995-03-15' AND l_shipdate > DATE '1995-03-15'" +
			" AND c_custkey <> -1 AND o_orderkey <> -1 AND l_orderkey <> -1" +
			" GROUP BY l_orderkey, o_orderdate, o_shippriority ORDER BY revenue DESC, o_orderdate LIMIT 10",
			"SELECT l_orderkey AS __g0, o_orderdate AS __g1, o_shippriority AS __g2, SUM((l_extendedprice * (1 - l_discount))) AS __a0 FROM customer, orders, lineitem WHERE ((((((((c_mktsegment = 'BUILDING') AND (c_custkey = o_custkey)) AND (l_orderkey = o_orderkey)) AND (o_orderdate < DATE '1995-03-15')) AND (l_shipdate > DATE '1995-03-15')) AND (c_custkey <> (-1))) AND (o_orderkey <> (-1))) AND (l_orderkey <> (-1))) GROUP BY l_orderkey, o_orderdate, o_shippriority"},
	} {
		p, err := c.plan(tc.sql)
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if p.shardSQL != tc.want {
			t.Errorf("%s: shard SQL\n got  %s\n want %s", tc.name, p.shardSQL, tc.want)
		}
	}
}
