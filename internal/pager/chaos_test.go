package pager

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"bufferdb/internal/exec"
	"bufferdb/internal/faultinject"
	"bufferdb/internal/plan"
	"bufferdb/internal/sql"
	"bufferdb/internal/storage"
)

// chaosCheck snapshots goroutine count and returns a verifier the tests
// defer: after every failure class the pager must leak neither goroutines
// nor tracked memory.
func chaosCheck(t *testing.T, mem *exec.MemTracker) func() {
	t.Helper()
	before := runtime.NumGoroutine()
	return func() {
		t.Helper()
		if got := mem.Bytes(); got != 0 {
			t.Errorf("tracked bytes after close: %d", got)
		}
		// The pager spawns no goroutines; allow the runtime a moment to
		// retire unrelated ones before declaring a leak.
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		if after := runtime.NumGoroutine(); after > before {
			t.Errorf("goroutines grew %d -> %d", before, after)
		}
	}
}

// wantInjected asserts err is the typed injected-fault error.
func wantInjected(t *testing.T, err error, site string) {
	t.Helper()
	if err == nil {
		t.Fatalf("%s: fault did not surface", site)
	}
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("%s: error not typed as injected: %v", site, err)
	}
}

// TestChaosPagerRead injects a read fault on a pool miss: the scan fails
// with a typed error, the store keeps serving afterwards, and nothing
// leaks.
func TestChaosPagerRead(t *testing.T) {
	dir := t.TempDir()
	// Seed durable data without faults.
	s, err := Open(dir, smallStoreOpts(nil))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateTable("t", testSchema()); err != nil {
		t.Fatal(err)
	}
	if err := s.BulkLoad("t", testRows(0, 120)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	mem := exec.NewMemTracker("chaos", 0, nil)
	defer chaosCheck(t, mem)()
	opts := smallStoreOpts(mem)
	opts.Fault = faultinject.New(1, faultinject.Fault{Match: SiteRead, Kind: faultinject.KindError})
	s, err = Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := s.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	cur, err := tbl.Scan(nil)
	if err != nil {
		t.Fatal(err)
	}
	_, err = cur.Next()
	wantInjected(t, err, SiteRead)
	// A failed cursor stays failed and ended.
	if row, again := cur.Next(); row != nil || !errors.Is(again, faultinject.ErrInjected) {
		t.Fatalf("Next after a failed Next: row=%v err=%v", row, again)
	}
	// The fault fired exactly once; the store must still serve everything.
	verifyTable(t, s, "t", 120)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestChaosPagerWrite injects a write fault on the first dirty writeback.
// The insert's commit is already durable, so the store wedges — refusing
// further writes — and a reopen replays the log and recovers every row.
func TestChaosPagerWrite(t *testing.T) {
	dir := t.TempDir()
	mem := exec.NewMemTracker("chaos", 0, nil)
	defer chaosCheck(t, mem)()
	opts := smallStoreOpts(mem)
	opts.Fault = faultinject.New(1, faultinject.Fault{Match: SiteWrite, Kind: faultinject.KindError})
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateTable("t", testSchema()); err != nil {
		t.Fatal(err)
	}
	// A 60-row batch spans ~7 pages; applying it through 4 frames forces a
	// dirty eviction writeback mid-apply, where the fault fires.
	err = s.Insert("t", testRows(0, 60))
	wantInjected(t, err, SiteWrite)

	// Wedged: every subsequent write refuses with the same typed error.
	if err := s.Insert("t", testRows(60, 1)); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("wedged store accepted an insert: %v", err)
	}
	if err := s.Checkpoint(); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("wedged store accepted a checkpoint: %v", err)
	}
	// Reads refuse too: the apply stopped partway, so serving pages would
	// expose a torn batch — some rows applied, others missing — despite the
	// documented batch atomicity.
	tbl, err := s.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.FetchRow(0); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("wedged store served FetchRow: %v", err)
	}
	cur, err := tbl.Scan(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cur.Next(); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("wedged store served a scan: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// The commit was durable before the apply failed: recovery must
	// reconstruct the full batch.
	s2, err := Open(dir, smallStoreOpts(nil))
	if err != nil {
		t.Fatal(err)
	}
	verifyTable(t, s2, "t", 60)
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestChaosPagerFsync injects a heap-fsync fault into a checkpoint: the
// checkpoint fails typed but nothing is lost, and the retry succeeds.
func TestChaosPagerFsync(t *testing.T) {
	dir := t.TempDir()
	mem := exec.NewMemTracker("chaos", 0, nil)
	defer chaosCheck(t, mem)()
	opts := smallStoreOpts(mem)
	// After:1 skips the fsync inside Open's recovery checkpoint... which a
	// fresh store does not perform per-table (no tables yet), so the first
	// table fsync is the explicit checkpoint below. Fire immediately.
	opts.Fault = faultinject.New(1, faultinject.Fault{Match: SiteFsync, Kind: faultinject.KindError})
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateTable("t", testSchema()); err != nil {
		t.Fatal(err)
	}
	if err := s.Insert("t", testRows(0, 10)); err != nil {
		t.Fatal(err)
	}
	err = s.Checkpoint()
	wantInjected(t, err, SiteFsync)
	// Not wedged — the checkpoint never reset the log, so retrying is safe.
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("checkpoint retry: %v", err)
	}
	verifyTable(t, s, "t", 10)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, smallStoreOpts(nil))
	if err != nil {
		t.Fatal(err)
	}
	verifyTable(t, s2, "t", 10)
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestChaosPagerWALAppend and TestChaosPagerWALFsync inject faults at the
// commit point. The batch must vanish without a trace — the store is not
// wedged (nothing was durable), the next insert succeeds, and a reopen
// sees only the successful batches.
func TestChaosPagerWALAppend(t *testing.T) { testChaosWALCommit(t, SiteWALAppend) }
func TestChaosPagerWALFsync(t *testing.T)  { testChaosWALCommit(t, SiteWALFsync) }

func testChaosWALCommit(t *testing.T, site string) {
	dir := t.TempDir()
	mem := exec.NewMemTracker("chaos", 0, nil)
	defer chaosCheck(t, mem)()
	opts := smallStoreOpts(mem)
	// Open's recovery checkpoint flushes the log once (the checkpoint
	// record); After:1 lets it pass and fails the first insert's commit.
	opts.Fault = faultinject.New(1, faultinject.Fault{Match: site, Kind: faultinject.KindError, After: 1})
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateTable("t", testSchema()); err != nil {
		t.Fatal(err)
	}
	err = s.Insert("t", testRows(0, 25))
	wantInjected(t, err, site)
	verifyTable(t, s, "t", 0) // the failed batch left nothing behind

	// Not wedged: the commit never became durable, so the store state still
	// matches the (empty) log and the next write goes through.
	if err := s.Insert("t", testRows(0, 25)); err != nil {
		t.Fatalf("insert after failed commit: %v", err)
	}
	verifyTable(t, s, "t", 25)
	if err := s.CloseAbrupt(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, smallStoreOpts(nil))
	if err != nil {
		t.Fatal(err)
	}
	verifyTable(t, s2, "t", 25)
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestChaosPagerBulkLoadWrite injects a write fault mid bulk load: the
// load fails typed and the table stays empty — no orphan pages.
func TestChaosPagerBulkLoadWrite(t *testing.T) {
	dir := t.TempDir()
	mem := exec.NewMemTracker("chaos", 0, nil)
	defer chaosCheck(t, mem)()
	opts := smallStoreOpts(mem)
	opts.Fault = faultinject.New(1, faultinject.Fault{Match: SiteWrite, Kind: faultinject.KindError, After: 2})
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateTable("t", testSchema()); err != nil {
		t.Fatal(err)
	}
	err = s.BulkLoad("t", testRows(0, 120))
	wantInjected(t, err, SiteWrite)
	verifyTable(t, s, "t", 0)
	if err := s.BulkLoad("t", testRows(0, 50)); err != nil {
		t.Fatalf("bulk load retry: %v", err)
	}
	verifyTable(t, s, "t", 50)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, smallStoreOpts(nil))
	if err != nil {
		t.Fatal(err)
	}
	verifyTable(t, s2, "t", 50)
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestChaosPagedScanEngines injects read faults under every engine's scan
// loop: the cursor the three engines share surfaces the typed error from mid-scan, each failed
// query returns all the memory it tracked, and the store closes clean.
func TestChaosPagedScanEngines(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, smallStoreOpts(nil))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateTable("t", testSchema()); err != nil {
		t.Fatal(err)
	}
	if err := s.BulkLoad("t", testRows(0, 400)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	mem := exec.NewMemTracker("chaos", 0, nil)
	defer chaosCheck(t, mem)()
	opts := smallStoreOpts(mem)
	opts.PoolBytes = 8 * MinPageSize
	// Every fifth page read fails: each scan of the 50-page heap through the
	// 8-frame pool meets a fault a few pages in.
	opts.Fault = faultinject.New(1, faultinject.Fault{Match: SiteRead, Kind: faultinject.KindError, After: 3, Every: 5})
	if s, err = Open(dir, opts); err != nil {
		t.Fatal(err)
	}
	cat := storage.NewCatalog()
	for _, tbl := range s.Tables() {
		cat.MustAdd(tbl)
	}
	p, err := sql.PlanQuery(`SELECT COUNT(*), SUM(id) FROM t WHERE id >= 0`, cat, sql.Options{})
	if err != nil {
		t.Fatal(err)
	}
	plan.Walk(p, func(n *plan.Node) {
		if n.Kind == plan.KindSeqScan && n.ScanCols == nil {
			t.Fatalf("the scan under test carries no column mask:\n%s", plan.Explain(p))
		}
	})
	for _, engine := range plan.Engines() {
		op, err := plan.Compile(p, nil, engine)
		if err != nil {
			t.Fatal(err)
		}
		query := exec.NewMemTracker("query", 0, mem)
		_, err = exec.Run(&exec.Context{Catalog: cat, Mem: query}, op)
		wantInjected(t, err, engine.String())
		if got := query.Bytes(); got != 0 {
			t.Errorf("%s: failed query still tracks %d bytes", engine, got)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}
