package server_test

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"bufferdb"
	"bufferdb/internal/client"
	"bufferdb/internal/server"
	"bufferdb/internal/wire"
)

// The chaos-over-wire suite runs the fault-injection harness through the
// network path: faults fire inside operators on the server, and the tests
// assert the resource governor's typed sentinels survive frame encoding —
// errors.Is works on the client exactly as it does embedded — and that the
// daemon sheds the failed query completely (memory drained, session still
// usable).

const chaosWireQuery = `SELECT SUM(o_totalprice), COUNT(*) FROM lineitem, orders
 WHERE l_orderkey = o_orderkey AND l_quantity > 5`

// faultSwitch is a FaultHook whose rule set tests swap per subtest.
type faultSwitch struct {
	mu    sync.Mutex
	build func() *bufferdb.FaultInjector
}

func (f *faultSwitch) hook(sql string) *bufferdb.FaultInjector {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.build == nil || !strings.Contains(sql, "l_quantity > 5") {
		return nil
	}
	return f.build()
}

func (f *faultSwitch) set(build func() *bufferdb.FaultInjector) {
	f.mu.Lock()
	f.build = build
	f.mu.Unlock()
}

// chaosHarness starts one throttled server + client pair for the suite.
func chaosHarness(t *testing.T) (*bufferdb.DB, *client.Client, *faultSwitch) {
	t.Helper()
	db := newDB(t, bufferdb.Options{})
	fs := &faultSwitch{}
	_, addr := startServer(t, server.Config{DB: db, FaultHook: fs.hook})
	return db, dial(t, addr, client.Config{MaxConns: 2}), fs
}

// assertWireClean asserts the failed statement left nothing behind and the
// same session still answers.
func assertWireClean(t *testing.T, db *bufferdb.DB, c *client.Client) {
	t.Helper()
	waitFor(t, "tracked bytes drain", func() bool { return db.TrackedBytes() == 0 })
	if _, err := c.QueryAll(context.Background(), "SELECT COUNT(*) FROM nation"); err != nil {
		t.Fatalf("session unusable after fault: %v", err)
	}
}

// TestChaosOverWireErrorInjection injects plain operator errors at several
// sites and asserts they cross the wire as CodeQuery with the message
// intact, not misclassified as panics.
func TestChaosOverWireErrorInjection(t *testing.T) {
	db, c, fs := chaosHarness(t)
	for _, match := range []string{"Scan", "Join", "Aggregate"} {
		t.Run(match, func(t *testing.T) {
			m := match
			fs.set(func() *bufferdb.FaultInjector {
				return bufferdb.NewFaultInjector(1, bufferdb.Fault{Match: m, Kind: bufferdb.FaultError})
			})
			_, err := c.QueryAll(context.Background(), chaosWireQuery)
			var serr *client.ServerError
			if !errors.As(err, &serr) {
				t.Fatalf("want ServerError, got %v", err)
			}
			if serr.Code != wire.CodeQuery {
				t.Fatalf("injected error arrived as %s, want query", serr.Code)
			}
			if !strings.Contains(serr.Msg, "injected") {
				t.Fatalf("error message lost the injection marker: %q", serr.Msg)
			}
			if errors.Is(err, bufferdb.ErrQueryPanic) {
				t.Fatalf("plain injected error misclassified as panic: %v", err)
			}
			assertWireClean(t, db, c)
		})
	}
}

// TestChaosOverWirePanicInjection asserts a contained operator panic
// surfaces as CodePanic and errors.Is(err, ErrQueryPanic) still holds on
// the client side of the connection.
func TestChaosOverWirePanicInjection(t *testing.T) {
	db, c, fs := chaosHarness(t)
	fs.set(func() *bufferdb.FaultInjector {
		return bufferdb.NewFaultInjector(7, bufferdb.Fault{Match: "Scan", Kind: bufferdb.FaultPanic, After: 5})
	})
	_, err := c.QueryAll(context.Background(), chaosWireQuery)
	if !errors.Is(err, bufferdb.ErrQueryPanic) {
		t.Fatalf("want ErrQueryPanic across the wire, got %v", err)
	}
	var serr *client.ServerError
	if !errors.As(err, &serr) || serr.Code != wire.CodePanic {
		t.Fatalf("panic error arrived without CodePanic: %v", err)
	}
	assertWireClean(t, db, c)
}

// TestChaosOverWireDeadline pairs latency injection with a client-set
// per-query timeout and asserts the deadline sentinel round-trips: both
// bufferdb.ErrDeadlineExceeded and context.DeadlineExceeded hold.
func TestChaosOverWireDeadline(t *testing.T) {
	db, c, fs := chaosHarness(t)
	fs.set(func() *bufferdb.FaultInjector {
		return bufferdb.NewFaultInjector(3, bufferdb.Fault{
			Match: "Scan", Kind: bufferdb.FaultLatency, Latency: time.Millisecond, Every: 1,
		})
	})
	_, err := c.QueryAll(context.Background(), chaosWireQuery,
		client.WithTimeout(30*time.Millisecond))
	if !errors.Is(err, bufferdb.ErrDeadlineExceeded) {
		t.Fatalf("want ErrDeadlineExceeded, got %v", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline error lost context.DeadlineExceeded: %v", err)
	}
	assertWireClean(t, db, c)
}

// TestChaosOverWireBusyAndOOM asserts the remaining governor sentinels
// keep their identities across frames: admission shedding and memory
// budget overruns.
func TestChaosOverWireBusyAndOOM(t *testing.T) {
	// OOM: a dedicated server whose database can't hold the join build.
	db := newDB(t, bufferdb.Options{MemoryLimit: 32 << 10})
	_, addr := startServer(t, server.Config{DB: db})
	c := dial(t, addr, client.Config{})
	_, err := c.QueryAll(context.Background(), chaosWireQuery)
	if !errors.Is(err, bufferdb.ErrMemoryBudgetExceeded) {
		t.Fatalf("want ErrMemoryBudgetExceeded, got %v", err)
	}
	var serr *client.ServerError
	if !errors.As(err, &serr) || serr.Code != wire.CodeOOM {
		t.Fatalf("OOM error arrived without CodeOOM: %v", err)
	}
	assertWireClean(t, db, c)

	// Busy: a zero-queue single-slot server saturated by a held stream.
	db2 := newDB(t, bufferdb.Options{
		Admission: bufferdb.AdmissionConfig{MaxConcurrent: 1, MaxQueued: 0},
	})
	_, addr2 := startServer(t, server.Config{DB: db2, FaultHook: slowHook, BatchRows: 32})
	c2 := dial(t, addr2, client.Config{MaxConns: 2})
	rows, err := c2.Query(context.Background(), slowQuery)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if !rows.Next() {
		t.Fatalf("holder stream empty: %v", rows.Err())
	}
	_, err = c2.QueryAll(context.Background(), "SELECT COUNT(*) FROM nation")
	if !errors.Is(err, bufferdb.ErrServerBusy) {
		t.Fatalf("want ErrServerBusy, got %v", err)
	}
	if !errors.As(err, &serr) || serr.Code != wire.CodeBusy {
		t.Fatalf("busy error arrived without CodeBusy: %v", err)
	}
	rows.Close()
	assertWireClean(t, db2, c2)
}
