package bufferdb

import (
	"context"
	"errors"
	"runtime"
	"testing"

	"bufferdb/internal/cpusim"
	"bufferdb/internal/exec"
	"bufferdb/internal/plan"
	"bufferdb/internal/storage"
)

// streamQuery emits thousands of rows, so a cursor can be abandoned or
// canceled genuinely mid-stream with the scan still producing.
const streamQuery = `SELECT l_orderkey, l_extendedprice FROM lineitem WHERE l_quantity > 10`

// TestGoroutineLeakEarlyClose abandons a cursor after a few rows and
// asserts no goroutine outlives it and every memory charge is returned.
func TestGoroutineLeakEarlyClose(t *testing.T) {
	t.Run("volcano", func(t *testing.T) {
		base := runtime.NumGoroutine()
		rows, err := chaosDB.QueryStream(context.Background(), streamQuery)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if !rows.Next() {
				t.Fatalf("stream ended after %d rows: %v", i, rows.Err())
			}
		}
		if err := rows.Close(); err != nil {
			t.Fatalf("early Close: %v", err)
		}
		waitGoroutines(t, base)
		if got := chaosDB.TrackedBytes(); got != 0 {
			t.Fatalf("early Close leaked %d tracked bytes", got)
		}
	})
}

// TestGoroutineLeakCancellation cancels the caller's context mid-drain and
// asserts the error surfaces through Err, goroutines exit, and memory
// settles. TestExplainAnalyzeCancellation covers cancellation on every
// engine.
func TestGoroutineLeakCancellation(t *testing.T) {
	t.Run("volcano", func(t *testing.T) {
		base := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		rows, err := chaosDB.QueryStream(ctx, streamQuery)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if !rows.Next() {
				t.Fatalf("stream ended after %d rows: %v", i, rows.Err())
			}
		}
		cancel()
		for rows.Next() {
		}
		if err := rows.Err(); !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled after mid-drain cancel, got %v", err)
		}
		if err := rows.Close(); err != nil {
			t.Fatalf("Close after cancellation: %v", err)
		}
		waitGoroutines(t, base)
		if got := chaosDB.TrackedBytes(); got != 0 {
			t.Fatalf("cancellation leaked %d tracked bytes", got)
		}
	})
}

// closeErrOp is a single-row operator whose Close fails, for exercising the
// cursor's deferred-teardown-error contract without a real plan.
type closeErrOp struct {
	emitted  bool
	closeErr error
}

func (o *closeErrOp) Open(*exec.Context) error { o.emitted = false; return nil }
func (o *closeErrOp) Next(*exec.Context) (storage.Row, error) {
	if o.emitted {
		return nil, nil
	}
	o.emitted = true
	return storage.Row{storage.NewInt(1)}, nil
}
func (o *closeErrOp) Close(*exec.Context) error { return o.closeErr }
func (o *closeErrOp) Schema() storage.Schema {
	return storage.Schema{{Name: "v", Type: storage.TypeInt64}}
}
func (o *closeErrOp) Children() []exec.Operator { return nil }
func (o *closeErrOp) Name() string              { return "closeErrOp" }

// TestRowsCloseErrorReporting drains a cursor whose plan fails on teardown:
// the internal end-of-stream close must defer the error to the consumer's
// first explicit Close, and the second Close must return nil.
func TestRowsCloseErrorReporting(t *testing.T) {
	boom := errors.New("close failed")
	newRows := func() *Rows {
		op := &closeErrOp{closeErr: boom}
		ectx := &exec.Context{}
		if err := op.Open(ectx); err != nil {
			t.Fatal(err)
		}
		return &Rows{ectx: ectx, op: op, cols: []string{"v"}, schema: op.Schema()}
	}

	t.Run("drained", func(t *testing.T) {
		rows := newRows()
		for rows.Next() {
		}
		if err := rows.Err(); err != nil {
			t.Fatalf("Err after clean drain: %v", err)
		}
		if err := rows.Close(); !errors.Is(err, boom) {
			t.Fatalf("first Close should surface the deferred teardown error, got %v", err)
		}
		if err := rows.Close(); err != nil {
			t.Fatalf("second Close should be nil, got %v", err)
		}
	})

	t.Run("abandoned", func(t *testing.T) {
		rows := newRows()
		if err := rows.Close(); !errors.Is(err, boom) {
			t.Fatalf("early Close should report the teardown error, got %v", err)
		}
		if err := rows.Close(); err != nil {
			t.Fatalf("second Close should be nil, got %v", err)
		}
	})
}

// simulate compiles a clone of p for e against the code model and runs it
// runs times under one fresh simulated CPU.
func simulate(t *testing.T, db *DB, p *plan.Node, e plan.Engine, runs int, arm func(*exec.Context)) *cpusim.CPU {
	t.Helper()
	cpu, err := cpusim.New(cpusim.DefaultConfig(), db.cm.TextSegmentBytes())
	if err != nil {
		t.Fatal(err)
	}
	op, err := plan.Compile(plan.Clone(p), db.cm, e)
	if err != nil {
		t.Fatal(err)
	}
	ectx := &exec.Context{
		Catalog:    db.cat,
		CPU:        cpu,
		Placements: exec.PlaceCatalog(cpu, db.cat),
	}
	if arm != nil {
		arm(ectx)
	}
	for i := 0; i < runs; i++ {
		if _, err := exec.Run(ectx, op); err != nil {
			t.Fatal(err)
		}
	}
	return cpu
}

// TestGovernorCountersBitIdentical runs the same plan on fresh simulated
// CPUs with the governor disarmed and armed-but-idle (unlimited tracker, an
// injector matching no site) and requires bit-identical hardware counters
// on every engine: the governor must never touch the simulation.
func TestGovernorCountersBitIdentical(t *testing.T) {
	db := testDB
	p, err := db.planText(chaosQuery)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range plan.Engines() {
		plain := simulate(t, db, p, e, 1, nil).Counters()
		armed := simulate(t, db, p, e, 1, func(ectx *exec.Context) {
			ectx.Mem = exec.NewMemTracker("q", 0, nil)
			ectx.Fault = NewFaultInjector(99, Fault{Match: "NoSuchOperator", Kind: FaultError})
		}).Counters()
		if plain != armed {
			t.Fatalf("%s: governor perturbed the simulated counters:\nplain %+v\narmed %+v", e, plain, armed)
		}
	}
}

// TestBreakerRegionsSurviveReopen pins the region rule of exec.JoinTable
// and exec.AggState on every engine: the simulated bucket array and
// accumulator slots are placed on an operator's first Open under a CPU and
// kept, so a second run of the same operators places nothing but fresh
// tuple arenas.
func TestBreakerRegionsSurviveReopen(t *testing.T) {
	db := testDB
	p, err := db.planText(chaosQuery)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range plan.Engines() {
		once, twice := simulate(t, db, p, e, 1, nil), simulate(t, db, p, e, 2, nil)
		mark := twice.AllocData(0)
		exec.NewArena(twice)
		arena := twice.AllocData(0) - mark
		if grew := mark - once.AllocData(0); grew == 0 || grew%arena != 0 {
			t.Errorf("%s: a second run placed %d bytes, not a whole number of %d-byte arenas", e, grew, arena)
		}
	}
}

// BenchmarkGovernorOverhead compares end-to-end query latency with the
// governor dormant (no limits: every hook is a nil check) against armed
// (a per-query budget and a no-match injector). The dormant delta versus
// the pre-governor engine is the headline number; run with -benchtime
// sufficient for <2% resolution.
func BenchmarkGovernorOverhead(b *testing.B) {
	ctx := context.Background()
	const q = `SELECT SUM(o_totalprice), COUNT(*) FROM lineitem, orders
	 WHERE l_orderkey = o_orderkey AND l_shipdate <= DATE '1995-06-17'`
	for _, bc := range []struct {
		name string
		opts []QueryOption
	}{
		{"off", nil},
		{"on", []QueryOption{
			WithMemoryBudget(1 << 40),
			WithFaultInjector(NewFaultInjector(1, Fault{Match: "NoSuchOperator", Kind: FaultError})),
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := testDB.Query(ctx, q, bc.opts...); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// replicaNode opens slices 0 and 2 of a three-slice fleet, as the node
// hosting slice 0 at replication 2 does.
func replicaNode(t *testing.T, opts Options) (a, b *DB) {
	t.Helper()
	dbs, err := OpenTPCHReplicas(0.001, opts, 3, []int{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	return dbs[0], dbs[2]
}

// TestReplicaSlicesShareMemoryLimit: a replicated node's MemoryLimit bounds
// the process, so what one slice holds is unavailable to the other.
func TestReplicaSlicesShareMemoryLimit(t *testing.T) {
	const limit = 1 << 20
	a, b := replicaNode(t, Options{MemoryLimit: limit})
	release, err := a.ReserveMemory("test", limit-1)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	if _, err := b.ReserveMemory("test", 2); !errors.Is(err, ErrMemoryBudgetExceeded) {
		t.Fatalf("second slice reserved past the node's limit: %v", err)
	}
	if got := b.TrackedBytes(); got != limit-1 {
		t.Fatalf("second slice sees %d tracked bytes, want the node's %d", got, limit-1)
	}
}

// TestReplicaSlicesShareAdmission: a replicated node's MaxConcurrent bounds
// the process, so an open stream on one slice sheds a query on the other.
func TestReplicaSlicesShareAdmission(t *testing.T) {
	a, b := replicaNode(t, Options{Admission: AdmissionConfig{MaxConcurrent: 1}})
	rows, err := a.QueryStream(context.Background(), streamQuery)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if _, err := b.Query(context.Background(), `SELECT COUNT(*) FROM nation`); !errors.Is(err, ErrServerBusy) {
		t.Fatalf("second slice ran past the node's admission bound: %v", err)
	}
	rows.Close()
	if _, err := b.Query(context.Background(), `SELECT COUNT(*) FROM nation`); err != nil {
		t.Fatalf("query after the stream closed: %v", err)
	}
}
