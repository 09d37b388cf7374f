package bufferdb

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"bufferdb/internal/faultinject"
)

// Chaos coverage for the semantic reuse cache: faults during publish, OOM
// before publish, and eviction/invalidation racing a probe over a pinned
// entry. The containment contract is the usual one — typed errors,
// goroutines and tracked memory at baseline — plus the cache's own: a
// poisoned build or table is never served to a later query.

// reuseChaosQuery builds and probes a hash join and aggregates, reaching
// both publish sites.
const reuseChaosQuery = `SELECT SUM(o_totalprice), COUNT(*) FROM lineitem, orders
 WHERE l_orderkey = o_orderkey AND l_shipdate <= DATE '1995-06-17'`

// TestChaosReusePublishFault injects an error and a panic at the ":publish"
// fault site: the query fails typed, nothing is published (a poisoned entry
// must never be served), and the follow-up query rebuilds, repopulates the
// cache and returns correct rows.
func TestChaosReusePublishFault(t *testing.T) {
	want, err := testDB.Query(context.Background(), reuseChaosQuery)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []faultinject.Kind{FaultError, FaultPanic} {
		t.Run(fmt.Sprintf("volcano/%v", kind), func(t *testing.T) {
			db := newReuseDB(t, Options{ReuseCache: true})
			base := runtime.NumGoroutine()

			fi := NewFaultInjector(1, Fault{Match: ":publish", Kind: kind})
			_, err := db.Query(context.Background(), reuseChaosQuery, WithFaultInjector(fi))
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("want ErrInjected, got %v", err)
			}
			if kind == FaultPanic && !errors.Is(err, ErrQueryPanic) {
				t.Fatalf("publish panic not classified: %v", err)
			}
			if fi.Fired() == 0 {
				t.Fatal("publish fault never fired")
			}
			if st := db.ReuseStats(); st.Entries != 0 {
				t.Fatalf("poisoned publish left %d entries in the cache", st.Entries)
			}

			waitGoroutines(t, base)
			// Tracked memory must hold only cache payload — and the cache
			// is empty.
			if got := db.TrackedBytes(); got != 0 {
				t.Fatalf("tracked memory leak after failed publish: %d bytes", got)
			}
			res, err := db.Query(context.Background(), reuseChaosQuery)
			if err != nil {
				t.Fatalf("follow-up query failed: %v", err)
			}
			if resultKey(res) != resultKey(want) {
				t.Fatalf("follow-up rows wrong after publish fault:\n got %s\nwant %s",
					resultKey(res), resultKey(want))
			}
			if st := db.ReuseStats(); st.Entries == 0 {
				t.Fatal("follow-up query did not repopulate the cache")
			}
		})
	}
}

// TestChaosReuseOOMDuringBuild blows the per-query memory budget while the
// build the cache wants is under construction: the query fails typed, the
// cache stays empty, and tracked memory returns to zero.
func TestChaosReuseOOMDuringBuild(t *testing.T) {
	t.Run("volcano", func(t *testing.T) {
		db := newReuseDB(t, Options{ReuseCache: true})
		base := runtime.NumGoroutine()
		_, err := db.Query(context.Background(), reuseChaosQuery, WithMemoryBudget(4<<10))
		if !errors.Is(err, ErrMemoryBudgetExceeded) {
			t.Fatalf("want ErrMemoryBudgetExceeded, got %v", err)
		}
		if st := db.ReuseStats(); st.Entries != 0 {
			t.Fatalf("OOM-killed build was published: %+v", st)
		}
		waitGoroutines(t, base)
		if got := db.TrackedBytes(); got != 0 {
			t.Fatalf("tracked memory leak after OOM: %d bytes", got)
		}
		if _, err := db.Query(context.Background(), reuseChaosQuery); err != nil {
			t.Fatalf("follow-up query failed: %v", err)
		}
	})
}

// TestChaosReuseOversizePublishRefused: a cache too small for any payload
// refuses every publish without failing the queries that tried.
func TestChaosReuseOversizePublishRefused(t *testing.T) {
	db := newReuseDB(t, Options{ReuseCache: true, ReuseMaxBytes: 1})
	for i := 0; i < 3; i++ {
		if _, err := db.Query(context.Background(), reuseChaosQuery); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
	st := db.ReuseStats()
	if st.Entries != 0 || st.Bytes != 0 || st.Hits != 0 {
		t.Fatalf("1-byte cache retained state: %+v", st)
	}
	if got := db.TrackedBytes(); got != 0 {
		t.Fatalf("refused publishes leaked %d tracked bytes", got)
	}
}

// TestChaosReuseInvalidateDuringProbe invalidates every entry while a
// streaming query is probing an adopted build: the pin defers the memory
// release, the probe finishes over correct data, and closing the cursor
// returns tracked memory to zero.
func TestChaosReuseInvalidateDuringProbe(t *testing.T) {
	db := newReuseDB(t, Options{ReuseCache: true})
	want, err := testDB.Query(context.Background(), reuseChaosQuery)
	if err != nil {
		t.Fatal(err)
	}
	// Publish the join build and aggregate.
	if _, err := db.Query(context.Background(), reuseChaosQuery); err != nil {
		t.Fatal(err)
	}
	if st := db.ReuseStats(); st.Entries == 0 {
		t.Fatal("warm-up published nothing")
	}

	// This run adopts cached state (pinning it) and streams.
	rows, err := db.QueryStream(context.Background(), reuseChaosQuery)
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		rows.Close()
		t.Fatalf("no first row: %v", rows.Err())
	}
	var sum, cnt any
	if err := rows.Scan(&sum, &cnt); err != nil {
		t.Fatal(err)
	}

	// Drop everything mid-probe. Pinned entries are marked dead; their
	// reservations must survive until the cursor lets go.
	db.reuseCache.Invalidate("lineitem")
	db.reuseCache.Invalidate("orders")
	if st := db.ReuseStats(); st.Entries != 0 {
		t.Fatalf("invalidation left %d entries", st.Entries)
	}

	for rows.Next() {
		if err := rows.Scan(&sum, &cnt); err != nil {
			t.Fatal(err)
		}
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	// The deferred releases ran at Close: only live cache payload remains,
	// and the cache is empty.
	if got := db.TrackedBytes(); got != 0 {
		t.Fatalf("pinned releases leaked: %d tracked bytes (cache holds %d)",
			got, db.ReuseStats().Bytes)
	}
	if fmt.Sprint(sum) != fmt.Sprint(want.Rows[0][0]) || fmt.Sprint(cnt) != fmt.Sprint(want.Rows[0][1]) {
		t.Fatalf("probe over dead entry returned [%v %v], want %v", sum, cnt, want.Rows[0])
	}
	// A full re-read rebuilds over the emptied cache.
	res, err := db.Query(context.Background(), reuseChaosQuery)
	if err != nil {
		t.Fatal(err)
	}
	if resultKey(res) != resultKey(want) {
		t.Fatal("data corrupted after invalidate-during-probe")
	}
}

// TestChaosReuseFaultedQueriesPublishOnlyCompleteState: a query that dies
// mid-build publishes nothing; a query that dies downstream of a completed
// build may publish it — completed state is valid whole-relation state —
// and whatever landed in the cache must serve correct rows afterwards.
func TestChaosReuseFaultedQueriesPublishOnlyCompleteState(t *testing.T) {
	db := newReuseDB(t, Options{ReuseCache: true})
	want, err := testDB.Query(context.Background(), reuseChaosQuery)
	if err != nil {
		t.Fatal(err)
	}
	for _, match := range []string{"Scan", ":build"} {
		fi := NewFaultInjector(1, Fault{Match: match, Kind: FaultError})
		_, err := db.Query(context.Background(), reuseChaosQuery, WithFaultInjector(fi))
		if !errors.Is(err, ErrInjected) {
			t.Fatalf("%s: want ErrInjected, got %v", match, err)
		}
		if st := db.ReuseStats(); st.Entries != 0 {
			t.Fatalf("%s: build died mid-flight yet published %d entries", match, st.Entries)
		}
	}
	// A fault in the aggregate fires after the join build drained its
	// input: the completed build may be published. It must be usable.
	fi := NewFaultInjector(1, Fault{Match: "Aggregate", Kind: FaultError})
	if _, err := db.Query(context.Background(), reuseChaosQuery, WithFaultInjector(fi)); !errors.Is(err, ErrInjected) {
		t.Fatalf("want ErrInjected, got %v", err)
	}
	res, err := db.Query(context.Background(), reuseChaosQuery)
	if err != nil {
		t.Fatal(err)
	}
	if resultKey(res) != resultKey(want) {
		t.Fatalf("entry published by a downstream-faulted query served wrong rows:\n got %s\nwant %s",
			resultKey(res), resultKey(want))
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if got := db.TrackedBytes(); got != 0 {
		t.Fatalf("faulted queries leaked %d tracked bytes", got)
	}
}

// cancelWhen is a context that reports cancellation from the moment when
// first holds; nothing waits on it.
type cancelWhen struct {
	context.Context
	when func() bool
}

func (c cancelWhen) Err() error {
	if c.when() {
		return context.Canceled
	}
	return nil
}

// TestChaosBreakerFailuresIdenticalAcrossEngines fails the join build and
// the aggregate at each point the shared breaker state owns — the budget at
// a build row and at a new group, cancellation mid-build, the build fault
// site on its second row and both publish sites — and requires the typed
// error, only the tables that completed published, tracked memory and
// goroutines back at baseline. The state is exec.JoinTable and
// exec.AggState, which every engine drives; its budget and fault sites fire
// only under the governor, so the table runs on the served path (Volcano)
// and compares no engines. The name is historical, kept so the test's id
// stays stable; rename it when the floor allows.
func TestChaosBreakerFailuresIdenticalAcrossEngines(t *testing.T) {
	db := newReuseDB(t, Options{})
	clean, err := runBreakers(context.Background(), db, EngineVolcano, QueryOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	midBuild := func() bool { return db.TrackedBytes() > clean.joinBytes/2 }
	fault := func(match string, after uint64) *FaultInjector {
		return NewFaultInjector(1, Fault{Match: match, Kind: FaultError, After: after})
	}
	for _, tc := range []struct {
		name      string
		ctx       context.Context
		qo        QueryOptions
		want      error
		published int // tables that completed before the failure
	}{
		{name: "budget at a build row", want: ErrMemoryBudgetExceeded,
			qo: QueryOptions{MemoryBudget: clean.joinBytes / 2}},
		{name: "budget at a new group", want: ErrMemoryBudgetExceeded, published: 1,
			qo: QueryOptions{MemoryBudget: clean.joinBytes + 1}},
		{name: "cancel mid-build", want: context.Canceled,
			ctx: cancelWhen{context.Background(), midBuild}},
		{name: "fault at join:build", want: ErrInjected,
			qo: QueryOptions{FaultInjector: fault("o_orderkey):build", 1)}},
		{name: "fault at join:publish", want: ErrInjected,
			qo: QueryOptions{FaultInjector: fault("o_orderkey):publish", 0)}},
		{name: "fault at agg:publish", want: ErrInjected, published: 1,
			qo: QueryOptions{FaultInjector: fault("COUNT(*)):publish", 0)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			ctx := tc.ctx
			if ctx == nil {
				ctx = context.Background()
			}
			run, err := runBreakers(ctx, db, EngineVolcano, tc.qo, nil)
			if !errors.Is(err, tc.want) {
				t.Fatalf("want %v, got %v", tc.want, err)
			}
			if run.published != tc.published {
				t.Errorf("published %d tables, want %d", run.published, tc.published)
			}
			waitGoroutines(t, base)
			if got := db.TrackedBytes(); got != 0 {
				t.Fatalf("leaked %d tracked bytes", got)
			}
		})
	}
}
