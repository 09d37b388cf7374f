package main

import (
	"fmt"
	"strings"
)

// blockLen is the schedule's period: every run of blockLen consecutive ops
// holds each class exactly share times, so class shares are exact over any
// whole number of blocks and a percentile's class cannot drift with seed.
const blockLen = 20

// opKind says how an op reaches the daemon.
type opKind uint8

const (
	kindQuery    opKind = iota // ad hoc Query frame
	kindPrepared               // Execute of a statement prepared at set-up
	kindInsert                 // ad hoc INSERT batch
)

// op is one scheduled request.
type op struct {
	class int // index into the workload's classes, set by the schedule
	kind  opKind
	// sql is the statement text; for kindPrepared it names the prepared
	// statement by its text.
	sql string
	// key names the result the op must return: every op with one key returns
	// the same rows, whatever its sentinel, so later occurrences are checked
	// against the first.
	key string
}

// class is one cost class of a workload: share ops in every block, built by
// gen from the class's occurrence number n (which picks the variant) and a
// sentinel unique within the run (which defeats the caches without changing
// the result).
type class struct {
	name  string
	share int
	gen   func(n int, sentinel int64) op
}

// workload is one served traffic mix and the fleet that serves it. Classes
// are listed from cheapest to dearest; interiorClass relies on that order.
type workload struct {
	name string
	why  string
	// fleet describes the daemons; conns is the number of connections the
	// single load-generating process holds (never more than nproc).
	fleet fleetSpec
	conns int
	// warmup is the number of schedule ops run, untimed, at the end of
	// set-up; the timed phase starts at schedule index warmup.
	warmup int
	// nominalQPS is the workload's throughput on the 2-core reference host,
	// rounded down. It only sizes the timed phase (see timedOps): --seconds
	// times this many ops are timed, however long they take.
	nominalQPS float64
	classes    []class
	// traceBlocks is how many schedule blocks the traced replay samples,
	// spread evenly over the timed phase: 5 % of served_short, and two blocks
	// (8–12 %) of the other three, whose ops cost half a second each to
	// replay through every layer. Whole blocks keep the sample's class shares
	// exact.
	traceBlocks int
	// prime lists statements run once at connect time, before the warm-up
	// (the dashboards of served_short: they are prepared and their
	// aggregate tables published here).
	prime []string
}

// fleetSpec says which daemons a workload boots.
type fleetSpec struct {
	gomaxprocs int
	caches     bool // -result-cache 8 MiB -reuse-cache
	paged      bool // -data-dir <tmp> -pool-bytes 2 MiB
	shards     int  // >0: that many shard daemons (rf 2) plus a coordinator
}

const scaleFactor = 0.02

var workloads = []workload{servedAnalytic(), servedShort(), pagedMixed(), fleetScatter()}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// interiorClass returns the class holding percentile rank pct (0–100) when
// ops are sorted by cost, and the distance in percentage points from pct to
// the nearest boundary between two classes. The benchmark's rule is that
// rank 50 and rank 95 both lie at least 10 points inside a class, so neither
// percentile can hop between a fast and a slow class from run to run.
func (w workload) interiorClass(pct float64) (name string, margin float64) {
	lo := 0.0
	for i, c := range w.classes {
		hi := lo + 100*float64(c.share)/blockLen
		if pct < hi || i == len(w.classes)-1 {
			margin = 100
			if i > 0 {
				margin = pct - lo
			}
			if i < len(w.classes)-1 && hi-pct < margin {
				margin = hi - pct
			}
			return c.name, margin
		}
		lo = hi
	}
	return "", 0
}

// --- statement shapes -----------------------------------------------------

// q6 is the TPC-H Q6 shape: one selective filter-aggregate over lineitem.
func q6() func(int, int64) op {
	years := []int{1993, 1994, 1995, 1996, 1997}
	discounts := []string{"0.03", "0.05", "0.06"}
	return func(n int, s int64) op {
		y, d := years[n%len(years)], discounts[(n/len(years))%len(discounts)]
		return op{key: fmt.Sprintf("q6/%d/%s", y, d), sql: fmt.Sprintf(
			"SELECT SUM(l_extendedprice * l_discount) AS revenue, COUNT(*) AS n FROM lineitem"+
				" WHERE l_shipdate >= DATE '%d-01-01' AND l_shipdate < DATE '%d-01-01'"+
				" AND l_discount BETWEEN %s - 0.01 AND %s + 0.01 AND l_quantity < 24 AND l_orderkey <> %d",
			y, y+1, d, d, -s)}
	}
}

// q1 is the TPC-H Q1 shape: eight aggregates grouped over nearly all of
// lineitem.
func q1() func(int, int64) op {
	cutoffs := []string{"1998-09-02", "1998-08-15", "1998-08-01", "1998-07-15"}
	return func(n int, s int64) op {
		c := cutoffs[n%len(cutoffs)]
		return op{key: "q1/" + c, sql: fmt.Sprintf(
			"SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS sum_qty, SUM(l_extendedprice) AS sum_base_price,"+
				" SUM(l_extendedprice * (1 - l_discount)) AS sum_disc_price,"+
				" SUM(l_extendedprice * (1 - l_discount) * (1 + l_tax)) AS sum_charge,"+
				" AVG(l_quantity) AS avg_qty, AVG(l_extendedprice) AS avg_price, AVG(l_discount) AS avg_disc,"+
				" COUNT(*) AS count_order FROM lineitem WHERE l_shipdate <= DATE '%s' AND l_orderkey <> %d"+
				" GROUP BY l_returnflag, l_linestatus ORDER BY l_returnflag, l_linestatus", c, -s)}
	}
}

// q3 is the TPC-H Q3 shape: customer ⋈ orders ⋈ lineitem, grouped, top 10.
// The sentinel sits on all three tables so no join build can be recycled.
func q3() func(int, int64) op {
	segments := []string{"BUILDING", "AUTOMOBILE", "MACHINERY", "HOUSEHOLD", "FURNITURE"}
	days := []string{"1995-03-15", "1995-03-01"}
	return func(n int, s int64) op {
		seg, day := segments[n%len(segments)], days[(n/len(segments))%len(days)]
		return op{key: "q3/" + seg + "/" + day, sql: fmt.Sprintf(
			"SELECT l_orderkey, SUM(l_extendedprice * (1 - l_discount)) AS revenue, o_orderdate, o_shippriority"+
				" FROM customer, orders, lineitem WHERE c_mktsegment = '%s' AND c_custkey = o_custkey"+
				" AND l_orderkey = o_orderkey AND o_orderdate < DATE '%s' AND l_shipdate > DATE '%s'"+
				" AND c_custkey <> %d AND o_orderkey <> %d AND l_orderkey <> %d"+
				" GROUP BY l_orderkey, o_orderdate, o_shippriority ORDER BY revenue DESC, o_orderdate LIMIT 10",
			seg, day, day, -s, -s, -s)}
	}
}

// stream projects six lineitem columns over a window of months ship dates
// (about 1 500 rows a month at SF 0.02): the result stream, not the scan, is
// the cost.
func stream(months int) func(int, int64) op {
	var windows [][2]string
	for _, start := range []int{1993*12 + 3, 1994 * 12, 1995 * 12} {
		end := start + months
		windows = append(windows, [2]string{
			fmt.Sprintf("%d-%02d-01", start/12, start%12+1), fmt.Sprintf("%d-%02d-01", end/12, end%12+1)})
	}
	return func(n int, s int64) op {
		w := windows[n%len(windows)]
		return op{key: "stream/" + w[0], sql: fmt.Sprintf(
			"SELECT l_orderkey, l_partkey, l_quantity, l_extendedprice, l_shipdate, l_shipmode FROM lineitem"+
				" WHERE l_shipdate >= DATE '%s' AND l_shipdate < DATE '%s' AND l_orderkey <> %d", w[0], w[1], -s)}
	}
}

// dashboards are the 16 repeated aggregates of served_short: four group
// columns by four ship-date years. aliased renames every output column, so
// the text (and the result cache key) changes while the plan fingerprint,
// which resolves columns by position, does not.
func dashboard(i int, suffix string) string {
	groups := []string{"l_returnflag", "l_linestatus", "l_shipmode", "l_shipinstruct"}
	g, y := groups[i%4], 1993+i/4
	return fmt.Sprintf(
		"SELECT %s AS grp%s, SUM(l_extendedprice * (1 - l_discount)) AS revenue%s, COUNT(*) AS n%s FROM lineitem"+
			" WHERE l_shipdate >= DATE '%d-01-01' AND l_shipdate < DATE '%d-01-01' GROUP BY %s ORDER BY 1",
		g, suffix, suffix, suffix, y, y+1, g)
}

const dashboards = 16

func dashboardKey(i int) string { return fmt.Sprintf("dash/%d", i) }

// lookup is a nation ⋈ region point lookup with the sentinel on both tables:
// the whole front end runs and the executor touches 30 rows.
func lookup() func(int, int64) op {
	return func(n int, s int64) op {
		k := n % 25
		return op{key: fmt.Sprintf("lookup/%d", k), sql: fmt.Sprintf(
			"SELECT n_name, r_name FROM nation, region WHERE n_regionkey = r_regionkey AND n_nationkey = %d"+
				" AND n_nationkey <> %d AND r_regionkey <> %d", k, -s, -s)}
	}
}

// smallAgg aggregates customer or part: heaps a 2 MiB pool can keep resident
// if eviction protects them from the lineitem scans washing through.
func smallAgg() func(int, int64) op {
	return func(n int, s int64) op {
		if n%2 == 0 {
			return op{key: "small/customer", sql: fmt.Sprintf(
				"SELECT c_mktsegment, COUNT(*) AS n, AVG(c_acctbal) AS bal FROM customer WHERE c_custkey <> %d"+
					" GROUP BY c_mktsegment ORDER BY c_mktsegment", -s)}
		}
		return op{key: "small/part", sql: fmt.Sprintf(
			"SELECT p_brand, COUNT(*) AS n, AVG(p_retailprice) AS price FROM part WHERE p_partkey <> %d"+
				" GROUP BY p_brand ORDER BY p_brand", -s)}
	}
}

// insertRows is the batch size of one INSERT op.
const insertRows = 16

// insertBatch appends 16 lineitem rows shipped in 2001, outside every read
// class's date range, so reads beside the writes keep their answers.
func insertBatch() func(int, int64) op {
	return func(n int, s int64) op {
		var b strings.Builder
		b.WriteString("INSERT INTO lineitem VALUES ")
		for j := 0; j < insertRows; j++ {
			if j > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "(%d, %d, %d, %d, %d.0, %d.5, 0.04, 0.02, 'N', 'O', DATE '2001-02-%02d', DATE '2001-03-01',"+
				" DATE '2001-03-15', 'NONE', 'RAIL', 'bench %d')",
				10_000_000+s, 1+(s+int64(j))%4000, 1+s%200, j+1, 1+(s+int64(j))%50, 1000+s%9000, 1+j, s)
		}
		return op{kind: kindInsert, key: "insert", sql: b.String()}
	}
}

// --- the four workloads ---------------------------------------------------

func servedAnalytic() workload {
	return workload{
		name: "served_analytic",
		why: "one in-memory daemon, every text unique so neither cache answers: exec does the work;" +
			" an executor change must show here and a cache or serving change must not",
		fleet: fleetSpec{gomaxprocs: 2, caches: true}, conns: 2, warmup: 40, nominalQPS: 22, traceBlocks: 2,
		classes: []class{
			{"q6", 6, q6()}, {"stream", 2, stream(12)}, {"q3", 4, q3()}, {"q1", 8, q1()},
		},
	}
}

func servedShort() workload {
	w := workload{
		name: "served_short",
		why: "same daemon, all ops sub-millisecond and mostly cache-served: client, wire, server, sql," +
			" plan and reuse do the work and exec is bypassed; the twin of served_analytic",
		// Two connections to two Ps, like served_analytic: with one connection
		// to one P, client and server take turns sleeping, every op pays two
		// cross-core wake-ups through the hypervisor, and on a busy host that
		// path slowed by up to twice as much as any code did (README,
		// "Workloads").
		fleet: fleetSpec{gomaxprocs: 2, caches: true}, conns: 2, warmup: 4000, nominalQPS: 4400, traceBlocks: 220,
	}
	for i := 0; i < dashboards; i++ {
		w.prime = append(w.prime, dashboard(i, ""))
	}
	w.classes = []class{
		{"result_hit", 2, func(n int, _ int64) op {
			return op{key: dashboardKey(n % dashboards), sql: dashboard(n%dashboards, "")}
		}},
		{"stmt_hit", 2, func(n int, _ int64) op {
			return op{kind: kindPrepared, key: dashboardKey(n % dashboards), sql: dashboard(n%dashboards, "")}
		}},
		{"lookup", 12, lookup()},
		{"alias_reuse", 4, func(n int, s int64) op {
			return op{key: dashboardKey(n % dashboards), sql: dashboard(n%dashboards, fmt.Sprintf("_%d", s))}
		}},
	}
	return w
}

func pagedMixed() workload {
	return workload{
		name: "paged_mixed",
		why: "persistent daemon with a 2 MiB pool under a 14 MB lineitem heap, INSERT batches beside the reads:" +
			" page fetch, row decode and the WAL dominate; the only workload larger than the program's cache",
		fleet: fleetSpec{gomaxprocs: 2, paged: true}, conns: 2, warmup: 40, nominalQPS: 14, traceBlocks: 2,
		classes: []class{
			{"insert", 4, insertBatch()}, {"small_agg", 4, smallAgg()}, {"q6", 8, q6()}, {"q1", 4, q1()},
		},
	}
}

func fleetScatter() workload {
	return workload{
		name: "fleet_scatter",
		why: "three rf-2 shard daemons behind a coordinator, one connection: dist planning, gather/merge" +
			" and the second wire hop dominate; the only workload that judges the coordinator's serving stack",
		fleet: fleetSpec{gomaxprocs: 1, shards: 3}, conns: 1, warmup: 40, nominalQPS: 17, traceBlocks: 2,
		classes: []class{
			{"q6", 8, q6()}, {"q3", 4, q3()}, {"q1", 5, q1()}, {"stream", 3, stream(27)},
		},
	}
}
