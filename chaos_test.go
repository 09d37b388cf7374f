package bufferdb

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"
)

// The chaos suite (go test -run Chaos) drives TPC-H queries through the
// served path while the fault injector forces errors, panics and latency at
// operator boundaries, and asserts the resource governor's containment
// contract: typed errors surface, goroutines and tracked memory return to
// baseline, the failure-class metrics move, and the very next query is
// correct. Only Volcano serves, so only a Volcano run has its fault sites
// armed and its memory tracked; the subtests name it ("volcano/…").

// chaosDB is a dedicated database with memory tracking live (so
// TrackedBytes observes every query).
var chaosDB = func() *DB {
	db, err := OpenTPCH(0.002, Options{
		MemoryLimit: 256 << 20,
	})
	if err != nil {
		panic(err)
	}
	return db
}()

// chaosQuery joins, filters and aggregates, so its plan crosses every
// operator family the governor instruments: scans, a hash join build and
// probe, and aggregation.
const chaosQuery = `SELECT SUM(o_totalprice), COUNT(*) FROM lineitem, orders
 WHERE l_orderkey = o_orderkey AND l_shipdate <= DATE '1995-06-17'`

// waitGoroutines retries until the goroutine count settles back to (or
// below) the baseline; a torn-down plan's goroutines need a moment to exit.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	var n int
	for i := 0; i < 100; i++ {
		n = runtime.NumGoroutine()
		if n <= base {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutine leak: %d running, baseline %d", n, base)
}

// assertChaosClean asserts the post-failure invariants: no tracked bytes,
// no leaked goroutines, and a correct follow-up query.
func assertChaosClean(t *testing.T, base int, want string) {
	t.Helper()
	waitGoroutines(t, base)
	if got := chaosDB.TrackedBytes(); got != 0 {
		t.Fatalf("tracked memory leak: %d bytes still charged", got)
	}
	res, err := chaosDB.Query(context.Background(), chaosQuery)
	if err != nil {
		t.Fatalf("follow-up query failed: %v", err)
	}
	if got := resultKey(res); got != want {
		t.Fatalf("follow-up query returned wrong rows:\n got %s\nwant %s", got, want)
	}
}

// chaosWant materializes the correct result of chaosQuery.
func chaosWant(t *testing.T) string {
	t.Helper()
	res, err := chaosDB.Query(context.Background(), chaosQuery)
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}
	return resultKey(res)
}

func TestChaosErrorInjection(t *testing.T) {
	want := chaosWant(t)
	for _, match := range []string{"Scan", "Join", ":build", "Aggregate"} {
		t.Run("volcano/"+match, func(t *testing.T) {
			base := runtime.NumGoroutine()
			// After is unset: the rule fires on the site's first
			// invocation, which every matched operator reaches even when
			// it emits a single row (the no-GROUP-BY aggregate).
			fi := NewFaultInjector(1, Fault{Match: match, Kind: FaultError})
			_, err := chaosDB.Query(context.Background(), chaosQuery, WithFaultInjector(fi))
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("want ErrInjected, got %v", err)
			}
			if errors.Is(err, ErrQueryPanic) {
				t.Fatalf("plain injected error misclassified as panic: %v", err)
			}
			if fi.Fired() == 0 {
				t.Fatalf("injector reports no fault fired")
			}
			assertChaosClean(t, base, want)
		})
	}
}

func TestChaosPanicInjection(t *testing.T) {
	want := chaosWant(t)
	t.Run("volcano", func(t *testing.T) {
		base := runtime.NumGoroutine()
		before := metricPanic().Value()
		fi := NewFaultInjector(7, Fault{Match: "Scan", Kind: FaultPanic, After: 5})
		_, err := chaosDB.Query(context.Background(), chaosQuery, WithFaultInjector(fi))
		if !errors.Is(err, ErrQueryPanic) {
			t.Fatalf("want ErrQueryPanic, got %v", err)
		}
		if !errors.Is(err, ErrInjected) {
			t.Fatalf("panic error lost the injected sentinel: %v", err)
		}
		if after := metricPanic().Value(); after != before+1 {
			t.Fatalf("panic counter moved %d -> %d, want +1", before, after)
		}
		assertChaosClean(t, base, want)
	})
}

func TestChaosMemoryBudget(t *testing.T) {
	want := chaosWant(t)
	t.Run("volcano", func(t *testing.T) {
		base := runtime.NumGoroutine()
		before := metricOOM().Value()
		_, err := chaosDB.Query(context.Background(), chaosQuery, WithMemoryBudget(4<<10))
		if !errors.Is(err, ErrMemoryBudgetExceeded) {
			t.Fatalf("want ErrMemoryBudgetExceeded, got %v", err)
		}
		if after := metricOOM().Value(); after != before+1 {
			t.Fatalf("oom counter moved %d -> %d, want +1", before, after)
		}
		assertChaosClean(t, base, want)
	})
}

func TestChaosDeadline(t *testing.T) {
	want := chaosWant(t)
	t.Run("volcano", func(t *testing.T) {
		base := runtime.NumGoroutine()
		before := metricTimeout().Value()
		// Latency injection slows the scan enough that a 30 ms budget
		// expires mid-execution, without burning real CPU.
		fi := NewFaultInjector(3, Fault{Match: "Scan", Kind: FaultLatency,
			Latency: time.Millisecond, Every: 1})
		_, err := chaosDB.Query(context.Background(), chaosQuery,
			WithFaultInjector(fi), WithTimeout(30*time.Millisecond))
		if !errors.Is(err, ErrDeadlineExceeded) {
			t.Fatalf("want ErrDeadlineExceeded, got %v", err)
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("deadline error lost context.DeadlineExceeded: %v", err)
		}
		if after := metricTimeout().Value(); after != before+1 {
			t.Fatalf("timeout counter moved %d -> %d, want +1", before, after)
		}
		assertChaosClean(t, base, want)
	})
}

func TestChaosAdmissionControl(t *testing.T) {
	db, err := OpenTPCH(0.001, Options{
		Admission: AdmissionConfig{MaxConcurrent: 1, MaxQueued: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	q := `SELECT COUNT(*) FROM lineitem`

	// Hold the single slot open with an undrained stream.
	rows, err := db.QueryStream(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	before := metricRejected().Value()
	if _, err := db.Query(ctx, q); !errors.Is(err, ErrServerBusy) {
		t.Fatalf("saturated server: want ErrServerBusy, got %v", err)
	}
	if after := metricRejected().Value(); after != before+1 {
		t.Fatalf("rejected counter moved %d -> %d, want +1", before, after)
	}
	// A bounded wait sheds after its timeout rather than immediately.
	db2, err := OpenTPCH(0.001, Options{
		Admission: AdmissionConfig{MaxConcurrent: 1, MaxQueued: 4, WaitTimeout: 20 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	rows2, err := db2.QueryStream(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := db2.Query(ctx, q); !errors.Is(err, ErrServerBusy) {
		t.Fatalf("queued past WaitTimeout: want ErrServerBusy, got %v", err)
	}
	if waited := time.Since(start); waited < 15*time.Millisecond {
		t.Fatalf("shed after %v; the wait queue never waited", waited)
	}
	if err := rows2.Close(); err != nil {
		t.Fatal(err)
	}
	// Releasing the held slot lets new queries through again.
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query(ctx, q); err != nil {
		t.Fatalf("freed server still rejecting: %v", err)
	}
	if got := metricAdmitted().Value(); got != 0 {
		t.Fatalf("admitted-queries gauge = %g after all queries finished, want 0", got)
	}
}

func TestChaosConcurrentIsolation(t *testing.T) {
	// A query blowing its budget (and another blowing its deadline) must
	// not disturb an unbudgeted query running at the same time.
	want := chaosWant(t)
	done := make(chan error, 1)
	go func() {
		res, err := chaosDB.Query(context.Background(), chaosQuery)
		if err == nil && resultKey(res) != want {
			err = errors.New("unbudgeted query returned wrong rows")
		}
		done <- err
	}()
	if _, err := chaosDB.Query(context.Background(), chaosQuery,
		WithMemoryBudget(4<<10)); !errors.Is(err, ErrMemoryBudgetExceeded) {
		t.Fatalf("budgeted query: want ErrMemoryBudgetExceeded, got %v", err)
	}
	fi := NewFaultInjector(5, Fault{Match: "Scan", Kind: FaultLatency,
		Latency: time.Millisecond, Every: 1})
	if _, err := chaosDB.Query(context.Background(), chaosQuery,
		WithFaultInjector(fi), WithTimeout(30*time.Millisecond)); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("deadlined query: want ErrDeadlineExceeded, got %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("concurrent unbudgeted query was disturbed: %v", err)
	}
}

func TestChaosInjectionDeterminism(t *testing.T) {
	// The same seed and rules must fail at the same invocation: two runs
	// produce identical error strings (modulo nothing — the site and
	// invocation number are embedded in the message).
	run := func() string {
		fi := NewFaultInjector(42, Fault{Match: "Join", Kind: FaultError, After: 17})
		_, err := chaosDB.Query(context.Background(), chaosQuery, WithFaultInjector(fi))
		if err == nil {
			t.Fatal("expected injected failure")
		}
		return err.Error()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("injection not deterministic:\n first %s\nsecond %s", a, b)
	}
}
