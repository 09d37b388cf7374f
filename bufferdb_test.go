package bufferdb

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"bufferdb/internal/codemodel"
	"bufferdb/internal/core"
	"bufferdb/internal/cpusim"
	"bufferdb/internal/plan"
)

var testDB = func() *DB {
	db, err := OpenTPCH(0.002, Options{})
	if err != nil {
		panic(err)
	}
	return db
}()

func TestOpenAndCatalog(t *testing.T) {
	tables := testDB.Tables()
	if len(tables) != 8 {
		t.Errorf("tables = %v", tables)
	}
	n, err := testDB.RowCount("lineitem")
	if err != nil || n == 0 {
		t.Errorf("RowCount(lineitem) = %d, %v", n, err)
	}
	if _, err := testDB.RowCount("ghost"); err == nil {
		t.Error("RowCount of missing table succeeded")
	}
	for _, sf := range []float64{-1, 0, math.NaN(), math.Inf(1)} {
		_, err := OpenTPCH(sf, Options{})
		if err == nil {
			t.Errorf("scale factor %v accepted", sf)
		} else if !errors.Is(err, ErrBadScaleFactor) {
			t.Errorf("scale factor %v: error %v does not wrap ErrBadScaleFactor", sf, err)
		}
	}
}

func TestQuery(t *testing.T) {
	res, err := testDB.Query(context.Background(), `SELECT COUNT(*) AS n FROM lineitem WHERE l_shipdate <= DATE '1995-06-17'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Columns) != 1 || res.Columns[0] != "n" {
		t.Errorf("columns = %v", res.Columns)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	n, ok := res.Rows[0][0].(int64)
	if !ok || n <= 0 {
		t.Errorf("count = %v", res.Rows[0][0])
	}
	if _, err := testDB.Query(context.Background(), "SELEKT"); err == nil {
		t.Error("garbage SQL accepted")
	}
}

// TestWithEngine: WithEngine moves a reproduction entry point to another
// engine, whose answer is the served plan's; a value naming no engine fails.
func TestWithEngine(t *testing.T) {
	ctx := context.Background()
	q := `SELECT l_returnflag, COUNT(*) FROM lineitem
	      WHERE l_shipdate <= DATE '1995-06-17'
	      GROUP BY l_returnflag ORDER BY l_returnflag`
	volcano, err := testDB.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	a, err := testDB.ExplainAnalyze(ctx, q, WithEngine(EngineVec))
	if err != nil {
		t.Fatal(err)
	}
	if a.Engine != EngineVec || a.Root.Rows != uint64(len(volcano.Rows)) {
		t.Errorf("analysis ran on %s and returned %d rows, want vec and %d", a.Engine, a.Root.Rows, len(volcano.Rows))
	}
	vec, err := testDB.queryWith(ctx, q, PlanOptions{Engine: EngineVec})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(vec.Rows) != fmt.Sprint(volcano.Rows) {
		t.Errorf("engines disagree:\n vec:     %v\n volcano: %v", vec.Rows, volcano.Rows)
	}
	if _, err := testDB.ExplainAnalyze(ctx, q, WithEngine(EnginePush+1)); err == nil {
		t.Error("unknown engine accepted")
	}
}

func TestNativeValueTypes(t *testing.T) {
	res, err := testDB.Query(context.Background(), `SELECT l_orderkey, l_quantity, l_returnflag, l_shipdate FROM lineitem LIMIT 1`)
	if err != nil {
		t.Fatal(err)
	}
	row := res.Rows[0]
	if _, ok := row[0].(int64); !ok {
		t.Errorf("int column → %T", row[0])
	}
	if _, ok := row[1].(float64); !ok {
		t.Errorf("float column → %T", row[1])
	}
	if _, ok := row[2].(string); !ok {
		t.Errorf("string column → %T", row[2])
	}
	if _, ok := row[3].(time.Time); !ok {
		t.Errorf("date column → %T", row[3])
	}
}

func TestRefinementTransparency(t *testing.T) {
	const q = `SELECT SUM(l_extendedprice), COUNT(*) FROM lineitem WHERE l_shipdate <= DATE '1998-09-02'`
	auto, err := testDB.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := testDB.queryWith(context.Background(), q, PlanOptions{DisableRefinement: true})
	if err != nil {
		t.Fatal(err)
	}
	if auto.Rows[0][1] != raw.Rows[0][1] || auto.Rows[0][0] != raw.Rows[0][0] {
		t.Errorf("refinement changed result: %v vs %v", auto.Rows[0], raw.Rows[0])
	}
}

func TestExplainShowsBuffer(t *testing.T) {
	orig, refined, err := testDB.Explain(
		`SELECT SUM(l_extendedprice), AVG(l_quantity), COUNT(*) FROM lineitem WHERE l_shipdate <= DATE '1998-09-02'`)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(orig, "Buffer") {
		t.Errorf("original plan contains a buffer:\n%s", orig)
	}
	if !strings.Contains(refined, "Buffer") {
		t.Errorf("refined plan lacks a buffer:\n%s", refined)
	}
}

// TestExplainHonorsBufferSize: Explain refines with the statement's buffer
// size, as Query and Profile do — it used to show the database default.
func TestExplainHonorsBufferSize(t *testing.T) {
	_, refined, err := testDB.Explain(
		`SELECT SUM(l_extendedprice), AVG(l_quantity), COUNT(*) FROM lineitem WHERE l_shipdate <= DATE '1998-09-02'`,
		WithBufferSize(64))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(refined, "Buffer(size=64)") || strings.Contains(refined, "Buffer(size=1024)") {
		t.Errorf("refined plan under WithBufferSize(64):\n%s", refined)
	}
}

// TestThresholdCalibration pins the served refinement threshold to the
// paper's §6 calibration on the default simulated CPU: a 4096-row table,
// the standard cardinality sweep, the default buffer size.
func TestThresholdCalibration(t *testing.T) {
	res, err := core.CalibrateThreshold(codemodel.NewCatalog(), cpusim.DefaultConfig(), 4096,
		[]int{0, 16, 64, 256, 1024, 4096}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Threshold != plan.DefaultCardinalityThreshold {
		t.Fatalf("calibrated threshold = %v, plan.DefaultCardinalityThreshold = %v",
			res.Threshold, plan.DefaultCardinalityThreshold)
	}
}

func TestProfile(t *testing.T) {
	prof, err := testDB.Profile(
		`SELECT SUM(l_extendedprice * (1 - l_discount) * (1 + l_tax)), AVG(l_quantity), COUNT(*)
		 FROM lineitem WHERE l_shipdate <= DATE '1998-09-02'`)
	if err != nil {
		t.Fatal(err)
	}
	if prof.BuffersInserted == 0 {
		t.Error("no buffers inserted for the Query 1 shape")
	}
	if prof.Buffered.L1IMisses >= prof.Original.L1IMisses {
		t.Errorf("L1I misses did not drop: %d vs %d", prof.Buffered.L1IMisses, prof.Original.L1IMisses)
	}
	if prof.ImprovementPct <= 0 {
		t.Errorf("improvement = %v", prof.ImprovementPct)
	}
	if prof.Original.CPI <= 0 || prof.Buffered.Uops == 0 {
		t.Errorf("stats incomplete: %+v", prof)
	}
}

// TestIndependentInstancesInParallel: a DB is single-threaded (like the
// paper's executor) but independent instances must not interfere.
func TestIndependentInstancesInParallel(t *testing.T) {
	const workers = 4
	results := make(chan string, workers)
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func() {
			db, err := OpenTPCH(0.001, Options{})
			if err != nil {
				errs <- err
				return
			}
			res, err := db.Query(context.Background(), `SELECT COUNT(*), SUM(l_quantity) FROM lineitem`)
			if err != nil {
				errs <- err
				return
			}
			results <- fmt.Sprint(res.Rows[0])
		}()
	}
	var first string
	for w := 0; w < workers; w++ {
		select {
		case err := <-errs:
			t.Fatal(err)
		case got := <-results:
			if first == "" {
				first = got
			} else if got != first {
				t.Errorf("instances disagree: %s vs %s", got, first)
			}
		}
	}
}

func TestForcedJoinMethods(t *testing.T) {
	const q = `SELECT COUNT(*) FROM lineitem, orders WHERE l_orderkey = o_orderkey`
	var want any
	for _, m := range []string{"hash", "nestloop", "merge"} {
		res, err := testDB.queryWith(context.Background(), q, PlanOptions{ForceJoin: m})
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if want == nil {
			want = res.Rows[0][0]
		} else if res.Rows[0][0] != want {
			t.Errorf("%s join result %v != %v", m, res.Rows[0][0], want)
		}
	}
	if _, _, err := testDB.Explain(q, WithForceJoin("quantum")); err == nil {
		t.Error("bogus join method accepted")
	}
}

// TestForcedJoinsKeepInnerFilter: a predicate on the joined (inner) table
// holds under every join method — the nest-loop join applies it to the
// joined row, the merge join's index scan filters by it.
func TestForcedJoinsKeepInnerFilter(t *testing.T) {
	for _, q := range []string{
		`SELECT COUNT(*) FROM orders, customer WHERE o_custkey = c_custkey AND c_mktsegment = 'BUILDING'`,
		`SELECT l_orderkey, l_linenumber, o_totalprice FROM lineitem, orders
		 WHERE l_orderkey = o_orderkey AND o_orderdate < DATE '1993-06-01' AND l_quantity > 40
		 ORDER BY l_orderkey, l_linenumber`,
	} {
		hash, err := testDB.queryWith(context.Background(), q, PlanOptions{ForceJoin: "hash"})
		if err != nil {
			t.Fatal(err)
		}
		for _, method := range []string{"nestloop", "merge"} {
			res, err := testDB.queryWith(context.Background(), q, PlanOptions{ForceJoin: method})
			if err != nil {
				t.Fatalf("%s: %v", method, err)
			}
			if fmt.Sprint(res.Rows) != fmt.Sprint(hash.Rows) {
				t.Errorf("%s: %d rows differ from hash's %d rows\n%s", method, len(res.Rows), len(hash.Rows), q)
			}
		}
	}
}
