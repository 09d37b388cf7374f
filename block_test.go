package bufferdb

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"bufferdb/internal/exec"
	"bufferdb/internal/faultinject"
	"bufferdb/internal/plan"
	"bufferdb/internal/storage"
)

// Governance under the block path: the budget, the deadline, the fault
// sites and the reuse cache see the block operator as they see the row
// operators it stands in for.

// blockGroupsQuery makes ~30 k groups out of lineitem at SF 0.02.
const blockGroupsQuery = `SELECT l_orderkey, SUM(l_extendedprice), COUNT(*) FROM lineitem GROUP BY l_orderkey`

// TestBlockAggregateMemoryBudget: the budget runs out at the same group,
// with the same error, whichever path creates the groups, and the operator
// gives back what it charged.
func TestBlockAggregateMemoryBudget(t *testing.T) {
	db := blockBenchDB()
	// Unrefined: a Buffer under the aggregate charges its pointer array on
	// the row path only, and would move the group the budget runs out at.
	block, rows := compileBothWays(t, db, blockGroupsQuery, false)
	var texts [2]string
	for i, op := range []exec.Operator{rows, block} {
		mem := exec.NewMemTracker("query", 64<<10, nil)
		_, err := exec.Run(&exec.Context{Catalog: db.cat, Mem: mem}, op)
		if !errors.Is(err, exec.ErrMemoryBudgetExceeded) {
			t.Fatalf("want ErrMemoryBudgetExceeded, got %v", err)
		}
		if got := mem.Bytes(); got != 0 {
			t.Fatalf("%d bytes still charged after the failed run", got)
		}
		texts[i] = err.Error()
	}
	if texts[0] != texts[1] {
		t.Fatalf("the block path ran out of budget elsewhere than the row path:\n rows: %s\nblock: %s", texts[0], texts[1])
	}

	// And through the facade.
	mdb, err := OpenTPCH(0.002, Options{MemoryLimit: 256 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer mdb.Close()
	base := runtime.NumGoroutine()
	_, err = mdb.Query(context.Background(), blockGroupsQuery, WithMemoryBudget(16<<10))
	if !errors.Is(err, ErrMemoryBudgetExceeded) {
		t.Fatalf("want ErrMemoryBudgetExceeded, got %v", err)
	}
	waitGoroutines(t, base)
	if got := mdb.TrackedBytes(); got != 0 {
		t.Fatalf("%d tracked bytes after the failed query", got)
	}
}

// TestBlockAggregateCancellation: a scan canceled mid-way stops within one
// block.
func TestBlockAggregateCancellation(t *testing.T) {
	db := blockBenchDB()
	block, _ := compileBothWays(t, db, blockGroupsQuery, true)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// The tracker is the test's window on progress: every new group is
	// charged, so bytes charged after the cancel are groups folded after it.
	mem := exec.NewMemTracker("query", 0, nil)
	ectx := &exec.Context{Catalog: db.cat, Ctx: ctx, Mem: mem}
	if err := block.Open(ectx); err != nil {
		t.Fatal(err)
	}
	defer block.Close(ectx)
	done := make(chan error, 1)
	go func() {
		_, err := block.Next(ectx)
		done <- err
	}()
	for mem.Bytes() == 0 { // the first block has been charged: the scan is under way
		runtime.Gosched()
	}
	cancel()
	atCancel := mem.Bytes()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the canceled scan did not return")
	}
	// At most the block in flight and the one whose poll raced the cancel
	// were folded after it: ~250 new groups a block, ~100 bytes a group.
	if grown := mem.Bytes() - atCancel; grown > 2*1024*200 {
		t.Fatalf("%d bytes of groups charged after the cancel: more than two blocks", grown)
	}
}

// TestBlockAggregateFaultSites: with an injector armed the operator's three
// sites fire under the names the row operators give them — the aggregate's
// ":next" and ":publish", the scan's ":next" once per input row.
func TestBlockAggregateFaultSites(t *testing.T) {
	db := newReuseDB(t, Options{ReuseCache: true})
	const q = `SELECT l_returnflag, COUNT(*) FROM lineitem WHERE l_quantity < 24 GROUP BY l_returnflag`
	for _, site := range []string{
		"Aggregate(COUNT(*) GROUP BY lineitem.l_returnflag):next",
		"Aggregate(COUNT(*) GROUP BY lineitem.l_returnflag):publish",
		"SeqScan(lineitem, filter=(lineitem.l_quantity < 24)):next",
	} {
		fi := NewFaultInjector(1, Fault{Match: site, Kind: FaultError, After: 0})
		_, err := db.Query(context.Background(), q, WithFaultInjector(fi))
		if !errors.Is(err, ErrInjected) || !strings.Contains(err.Error(), site) {
			t.Fatalf("site %s did not fire: %v", site, err)
		}
		if st := db.ReuseStats(); st.Entries != 0 {
			t.Fatalf("the faulted query published %d entries", st.Entries)
		}
	}
	if got := db.TrackedBytes(); got != 0 {
		t.Fatalf("faulted queries leaked %d tracked bytes", got)
	}

	// The scan's site fires per input row: a rule past the last row of the
	// first block still lands.
	lineitem, err := db.cat.Table("lineitem")
	if err != nil {
		t.Fatal(err)
	}
	after := uint64(lineitem.NumRows() - 1)
	fi := faultinject.New(1, faultinject.Fault{Match: "SeqScan(lineitem", Kind: faultinject.KindError, After: after})
	_, err = db.Query(context.Background(), q, WithFaultInjector(fi))
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("the scan site did not reach its %d-th invocation: %v", after+1, err)
	}
}

// TestBlockAggregatePublishesRowPathTable: what the block path hands the
// reuse cache is what the row path hands it, and an alias-renamed spelling
// of the statement adopts it.
func TestBlockAggregatePublishesRowPathTable(t *testing.T) {
	db := blockBenchDB()
	const q = `SELECT l_shipmode, SUM(l_extendedprice * (1 - l_discount)), COUNT(*) FROM lineitem
		WHERE l_shipdate >= DATE '1995-01-01' AND l_shipdate < DATE '1996-01-01' GROUP BY l_shipmode`
	var published [2][]storage.Row
	var bytes [2]int64
	for i, cm := range []bool{false, true} {
		p, err := db.planText(q)
		if err != nil {
			t.Fatal(err)
		}
		plan.Walk(p, func(n *plan.Node) {
			if n.Kind == plan.KindAggregate {
				n.SharedAgg = &exec.SharedAgg{Publish: func(rows []storage.Row, b int64) {
					published[i], bytes[i] = rows, b
				}}
			}
		})
		model := db.cm
		if !cm {
			model = nil
		}
		op, err := plan.Compile(p, model, plan.EngineVolcano)
		if err != nil {
			t.Fatal(err)
		}
		if hasBlockAggregate(op) == cm {
			t.Fatalf("code model %v, block operator %v", cm, !cm)
		}
		if _, err := exec.Run(&exec.Context{Catalog: db.cat}, op); err != nil {
			t.Fatal(err)
		}
	}
	if len(published[0]) == 0 || !reflect.DeepEqual(published[0], published[1]) || bytes[0] != bytes[1] {
		t.Fatalf("published tables differ:\nblock (%d bytes): %v\n rows (%d bytes): %v",
			bytes[0], published[0], bytes[1], published[1])
	}

	// The reuse cache admits the aggregate on its second sighting, whatever
	// the output aliases: the first run defers, the second publishes the
	// block path's table and the third adopts it.
	rdb := newReuseDB(t, Options{ReuseCache: true})
	var rows [3][][]any
	for i, suffix := range []string{"", "_b", "_c"} {
		res, err := rdb.Query(context.Background(), fmt.Sprintf(`SELECT l_shipmode AS grp%[1]s, SUM(l_extendedprice * (1 - l_discount)) AS revenue%[1]s, COUNT(*) AS n%[1]s
		FROM lineitem WHERE l_shipdate >= DATE '1995-01-01' AND l_shipdate < DATE '1996-01-01' GROUP BY l_shipmode ORDER BY 1`, suffix))
		if err != nil {
			t.Fatal(err)
		}
		rows[i] = res.Rows
		st := rdb.ReuseStats()
		switch i {
		case 0:
			if st.Entries != 0 || st.Deferred != 1 {
				t.Fatalf("the first sighting was published: %+v", st)
			}
		case 1:
			if st.Entries != 1 || st.Hits != 0 {
				t.Fatalf("the block path published nothing on the second sighting: %+v", st)
			}
		case 2:
			if st.Hits != 1 {
				t.Fatalf("the alias-renamed statement did not adopt the published table: %+v", st)
			}
		}
	}
	if !reflect.DeepEqual(rows[0], rows[1]) || !reflect.DeepEqual(rows[0], rows[2]) {
		t.Fatalf("adopted rows differ:\n%v\n%v\n%v", rows[0], rows[1], rows[2])
	}
}

// TestBlockAggregateCounters: the registry tells folded rows from redone
// ones.
func TestBlockAggregateCounters(t *testing.T) {
	read := func() (folded, redone string) {
		var b strings.Builder
		if err := WriteMetrics(&b); err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(b.String(), "\n") {
			if v, ok := strings.CutPrefix(line, "bufferdb_block_rows_folded_total "); ok {
				folded = v
			}
			if v, ok := strings.CutPrefix(line, "bufferdb_block_rows_redone_total "); ok {
				redone = v
			}
		}
		return folded, redone
	}
	db := blockBenchDB()
	if _, err := db.Query(context.Background(), blockBenchQueries[1].sql); err != nil {
		t.Fatal(err)
	}
	f0, r0 := read()
	if _, err := db.Query(context.Background(), blockBenchQueries[1].sql); err != nil {
		t.Fatal(err)
	}
	f1, r1 := read()
	if f0 == "" || r0 == "" || f1 == f0 || r1 != r0 {
		t.Fatalf("a clean scan moved folded %q -> %q, redone %q -> %q", f0, f1, r0, r1)
	}
	fi := NewFaultInjector(1, Fault{Match: "NoSuchOperator", Kind: FaultError})
	if _, err := db.Query(context.Background(), blockBenchQueries[1].sql, WithFaultInjector(fi)); err != nil {
		t.Fatal(err)
	}
	if f2, r2 := read(); f2 != f1 || r2 == r1 {
		t.Fatalf("a scan under an armed injector moved folded %q -> %q, redone %q -> %q", f1, f2, r1, r2)
	}
}

// TestNegativeZeroIsOneGroup: 0 and -0 are equal to `=` and to the sort, so
// GROUP BY must not tell them apart.
func TestNegativeZeroIsOneGroup(t *testing.T) {
	db, err := OpenTPCH(0.002, Options{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ctx := context.Background()
	if _, err := db.Query(ctx, `INSERT INTO customer VALUES
		(9000001, 'zero', 'a', 1, 'p', 0.0, 'BUILDING', 'c'), (9000002, 'minus zero', 'a', 1, 'p', -0.0, 'BUILDING', 'c'),
		(9000003, 'zero again', 'a', 1, 'p', 0.0, 'BUILDING', 'c')`); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(ctx, `SELECT c_acctbal FROM customer WHERE c_custkey = 9000002`)
	if err != nil {
		t.Fatal(err)
	}
	if f, ok := res.Rows[0][0].(float64); !ok || f != 0 || !math.Signbit(f) {
		t.Fatalf("the INSERT did not store -0.0: %v", res.Rows[0][0])
	}
	res, err = db.Query(ctx, `SELECT c_acctbal, COUNT(*) FROM customer WHERE c_custkey > 9000000 GROUP BY c_acctbal`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][1] != int64(3) {
		t.Fatalf("GROUP BY split 0 and -0: %v", res.Rows)
	}
}
