package pager

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"bufferdb/internal/exec"
	"bufferdb/internal/storage"
)

// testSchema is the two-column relation the pager tests insert into.
func testSchema() storage.Schema {
	return storage.Schema{
		{Table: "t", Name: "id", Type: storage.TypeInt64},
		{Table: "t", Name: "payload", Type: storage.TypeString},
	}
}

// testRow builds the canonical row for rid i: the id column is i, so a
// recovered table can be verified positionally.
func testRow(i int) storage.Row {
	return storage.Row{
		storage.NewInt(int64(i)),
		storage.NewString(fmt.Sprintf("payload-%06d-abcdefghijklmnopqrstuvwxyz", i)),
	}
}

func testRows(start, n int) []storage.Row {
	rows := make([]storage.Row, n)
	for i := range rows {
		rows[i] = testRow(start + i)
	}
	return rows
}

// smallStoreOpts keeps pages and the pool tiny so a few dozen rows span
// many pages and trigger eviction — the interesting regimes at test scale.
func smallStoreOpts(mem *exec.MemTracker) Options {
	return Options{PageSize: MinPageSize, PoolBytes: 4 * MinPageSize, Mem: mem}
}

// verifyTable asserts the table holds exactly rows [0, want) in rid order,
// via both a cursor and point fetches.
func verifyTable(t *testing.T, s *Store, name string, want int) {
	t.Helper()
	tbl, err := s.Table(name)
	if err != nil {
		t.Fatalf("Table(%s): %v", name, err)
	}
	if got := tbl.NumRows(); got != want {
		t.Fatalf("NumRows = %d, want %d", got, want)
	}
	cur, err := tbl.Scan(nil)
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	for i := 0; i < want; i++ {
		row, err := cur.Next()
		if err != nil || row == nil {
			t.Fatalf("Next at %d: row=%v err=%v", i, row, err)
		}
		if rid := cur.Rid(); rid != i {
			t.Fatalf("rid = %d, want %d", rid, i)
		}
		if row[0].I != int64(i) || row[1].S != testRow(i)[1].S {
			t.Fatalf("row %d is %v", i, row)
		}
	}
	if row, err := cur.Next(); row != nil || err != nil {
		t.Fatalf("cursor past end: row=%v err=%v", row, err)
	}
	// Spot-check point fetches, including both ends.
	for _, rid := range []int{0, want / 2, want - 1} {
		if want == 0 {
			break
		}
		row, err := tbl.FetchRow(rid)
		if err != nil {
			t.Fatalf("FetchRow(%d): %v", rid, err)
		}
		if row[0].I != int64(rid) {
			t.Fatalf("FetchRow(%d) has id %d", rid, row[0].I)
		}
	}
}

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	mem := exec.NewMemTracker("test", 0, nil)
	s, err := Open(dir, smallStoreOpts(mem))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateTable("t", testSchema()); err != nil {
		t.Fatal(err)
	}
	if err := s.BulkLoad("t", testRows(0, 100)); err != nil {
		t.Fatal(err)
	}
	if err := s.Insert("t", testRows(100, 40)); err != nil {
		t.Fatal(err)
	}
	verifyTable(t, s, "t", 140)
	st := s.PoolStats()
	if st.Evictions == 0 {
		t.Errorf("expected evictions with a 4-frame pool over %d rows, got stats %+v", 140, st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := mem.Bytes(); got != 0 {
		t.Fatalf("tracked bytes after close: %d", got)
	}

	// Reopen: the clean shutdown checkpointed, so recovery has nothing to
	// replay and everything must still be there.
	s2, err := Open(dir, smallStoreOpts(mem))
	if err != nil {
		t.Fatal(err)
	}
	verifyTable(t, s2, "t", 140)
	if err := s2.Insert("t", testRows(140, 10)); err != nil {
		t.Fatal(err)
	}
	verifyTable(t, s2, "t", 150)
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	if got := mem.Bytes(); got != 0 {
		t.Fatalf("tracked bytes after second close: %d", got)
	}
}

// TestFailedInsertLeavesLogClean rejects batches whose validation fails on
// a row past the first (arity mismatch, oversized row) and asserts the
// failure stages nothing in the WAL: the next successful insert's commit
// must not sweep orphan records from the failed batch into the log, where
// recovery would replay rows the caller was told failed.
func TestFailedInsertLeavesLogClean(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, smallStoreOpts(nil))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateTable("t", testSchema()); err != nil {
		t.Fatal(err)
	}
	if err := s.Insert("t", testRows(0, 3)); err != nil {
		t.Fatal(err)
	}
	// Row 0 is valid, row 1 oversized: the batch must fail atomically.
	big := storage.Row{storage.NewInt(99), storage.NewString(strings.Repeat("x", 2*MinPageSize))}
	if err := s.Insert("t", []storage.Row{testRow(3), big}); err == nil {
		t.Fatal("oversized row accepted")
	}
	// Row 0 is valid, row 1 has the wrong arity: same contract.
	if err := s.Insert("t", []storage.Row{testRow(3), {storage.NewInt(99)}}); err == nil {
		t.Fatal("arity mismatch accepted")
	}
	// Validation failures are clean rejections, not wedges: the next batch
	// must commit, and the table must hold exactly the committed rows.
	if err := s.Insert("t", testRows(3, 2)); err != nil {
		t.Fatalf("insert after failed batches: %v", err)
	}
	verifyTable(t, s, "t", 5)
	// Crash without checkpointing: recovery replays the log. Orphan records
	// from the failed batches would resurrect rejected rows or fail the open
	// with ErrCorrupt when their planned pages collide with the last batch.
	if err := s.CloseAbrupt(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, smallStoreOpts(nil))
	if err != nil {
		t.Fatalf("reopen after failed batches: %v", err)
	}
	verifyTable(t, s2, "t", 5)
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestBulkLoadFailureLeavesTableEmpty(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, smallStoreOpts(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.CreateTable("t", testSchema()); err != nil {
		t.Fatal(err)
	}
	// Row 60 has the wrong arity; the pages written for rows 0..59 must not
	// survive as live data.
	rows := testRows(0, 60)
	rows = append(rows, storage.Row{storage.NewInt(60)})
	if err := s.BulkLoad("t", rows); err == nil {
		t.Fatal("bulk load with bad arity succeeded")
	}
	verifyTable(t, s, "t", 0)
	if err := s.BulkLoad("t", testRows(0, 30)); err != nil {
		t.Fatalf("reload after failed load: %v", err)
	}
	verifyTable(t, s, "t", 30)
}

// TestCrashRecoveryReplaysCommitted kills the store without a checkpoint —
// every committed batch lives only in the WAL plus whatever dirty pages the
// pool happened to evict — and asserts a reopen reconstructs all of it.
// With a 4-frame pool over ~15 pages, evictions flush pages out of order,
// so this also exercises zero-filled hole pages behind the file's high
// -water mark.
func TestCrashRecoveryReplaysCommitted(t *testing.T) {
	dir := t.TempDir()
	mem := exec.NewMemTracker("test", 0, nil)
	s, err := Open(dir, smallStoreOpts(mem))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateTable("t", testSchema()); err != nil {
		t.Fatal(err)
	}
	total := 0
	for batch := 0; batch < 8; batch++ {
		n := 5 + batch*3
		if err := s.Insert("t", testRows(total, n)); err != nil {
			t.Fatal(err)
		}
		total += n
	}
	if err := s.CloseAbrupt(); err != nil {
		t.Fatal(err)
	}
	if got := mem.Bytes(); got != 0 {
		t.Fatalf("tracked bytes after abrupt close: %d", got)
	}

	s2, err := Open(dir, smallStoreOpts(mem))
	if err != nil {
		t.Fatal(err)
	}
	verifyTable(t, s2, "t", total)
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCrashRecoveryTornWAL truncates the log at adversarial offsets —
// mid-frame, mid-batch, at batch boundaries — and asserts recovery keeps
// exactly the batches whose commit record survived, discarding the torn
// tail, never a partial batch.
func TestCrashRecoveryTornWAL(t *testing.T) {
	const batches, batchSize = 6, 7

	// Build the "crashed" image once: insert batches, then die before any
	// checkpoint. The pool is sized to hold everything so no dirty page is
	// ever evicted and the WAL is the ONLY durable copy — which is what
	// makes truncation at an arbitrary offset model a real torn tail (a
	// page can only reach the heap after its commit record was fsynced, so
	// any prefix of the log is a state a crash could actually leave).
	crashed := t.TempDir()
	opts := Options{PageSize: MinPageSize, PoolBytes: 64 * MinPageSize}
	s, err := Open(crashed, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateTable("t", testSchema()); err != nil {
		t.Fatal(err)
	}
	// commitEnd[k] is the WAL size after k committed batches: truncating
	// anywhere in [commitEnd[k], commitEnd[k+1]) must recover exactly k*batchSize rows.
	commitEnd := []int64{walSize(t, crashed)}
	for b := 0; b < batches; b++ {
		if err := s.Insert("t", testRows(b*batchSize, batchSize)); err != nil {
			t.Fatal(err)
		}
		commitEnd = append(commitEnd, walSize(t, crashed))
	}
	if err := s.CloseAbrupt(); err != nil {
		t.Fatal(err)
	}

	expectRows := func(off int64) int {
		k := 0
		for k+1 < len(commitEnd) && commitEnd[k+1] <= off {
			k++
		}
		return k * batchSize
	}

	total := commitEnd[len(commitEnd)-1]
	offsets := []int64{0, 1, commitEnd[0], total - 1, total}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 12; i++ {
		offsets = append(offsets, rng.Int63n(total+1))
	}

	for _, off := range offsets {
		off := off
		t.Run(fmt.Sprintf("truncate@%d", off), func(t *testing.T) {
			dir := t.TempDir()
			copyDir(t, crashed, dir)
			if err := os.Truncate(filepath.Join(dir, walName), off); err != nil {
				t.Fatal(err)
			}
			s, err := Open(dir, smallStoreOpts(nil))
			if err != nil {
				t.Fatalf("open after truncate at %d: %v", off, err)
			}
			verifyTable(t, s, "t", expectRows(off))
			// The reopened store must keep working: append on top of the
			// recovered prefix, crash again, recover again.
			base := expectRows(off)
			if err := s.Insert("t", testRows(base, 3)); err != nil {
				t.Fatal(err)
			}
			if err := s.CloseAbrupt(); err != nil {
				t.Fatal(err)
			}
			s2, err := Open(dir, smallStoreOpts(nil))
			if err != nil {
				t.Fatal(err)
			}
			verifyTable(t, s2, "t", base+3)
			if err := s2.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestLSNMonotonicAcrossCheckpoint guards the restart LSN seed: after a
// checkpoint resets the log, new inserts must stamp LSNs above every page
// LSN, or idempotent replay would skip them.
func TestLSNMonotonicAcrossCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, smallStoreOpts(nil))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateTable("t", testSchema()); err != nil {
		t.Fatal(err)
	}
	if err := s.Insert("t", testRows(0, 20)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil { // checkpoint + reset
		t.Fatal(err)
	}
	for cycle := 0; cycle < 3; cycle++ {
		s, err = Open(dir, smallStoreOpts(nil))
		if err != nil {
			t.Fatal(err)
		}
		base := 20 + cycle*5
		if err := s.Insert("t", testRows(base, 5)); err != nil {
			t.Fatal(err)
		}
		// Die without a checkpoint: replay must apply the new batch even
		// though the pages carry LSNs from before the last reset.
		if err := s.CloseAbrupt(); err != nil {
			t.Fatal(err)
		}
		s, err = Open(dir, smallStoreOpts(nil))
		if err != nil {
			t.Fatal(err)
		}
		verifyTable(t, s, "t", base+5)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestEvictionPolicies drives the pool's one policy, LRU, end to end: a bulk
// load and a full scan of 200 rows through 4 frames must evict and still
// return every row. TestPoolRecency pins the exact victim order.
func TestEvictionPolicies(t *testing.T) {
	t.Run("lru", func(t *testing.T) {
		s, err := Open(t.TempDir(), smallStoreOpts(nil))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.CreateTable("t", testSchema()); err != nil {
			t.Fatal(err)
		}
		if err := s.BulkLoad("t", testRows(0, 200)); err != nil {
			t.Fatal(err)
		}
		verifyTable(t, s, "t", 200)
		if st := s.PoolStats(); st.Evictions == 0 {
			t.Errorf("no evictions scanning 200 rows through 4 frames: %+v", st)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestPoolRecency pins the pool's one policy on a fixed trace through four
// frames: least recently used goes first, a hit refreshes recency, a pinned
// frame is skipped however old, a dirty victim reaches disk before its frame
// is reused, and a pool with every frame pinned refuses with a typed error
// until one pin is released. The golden victim sequence was recorded through
// the LRU plug-in the pool chose victims with before it threaded its own
// list through its frames; it must not move.
func TestPoolRecency(t *testing.T) {
	mem := exec.NewMemTracker("recency", 0, nil)
	s, err := Open(t.TempDir(), smallStoreOpts(mem))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateTable("t", testSchema()); err != nil {
		t.Fatal(err)
	}
	if err := s.BulkLoad("t", testRows(0, 120)); err != nil {
		t.Fatal(err)
	}
	h, p := s.tables["t"].file, s.pool
	if h.numPages < 12 {
		t.Fatalf("table has %d pages, the trace needs 12", h.numPages)
	}

	resident := func() map[uint32]bool {
		p.mu.Lock()
		defer p.mu.Unlock()
		ids := make(map[uint32]bool, len(p.frames))
		for _, fr := range p.frames {
			ids[fr.id] = true
		}
		return ids
	}
	var victims []uint32
	pin := func(id uint32) *frame {
		t.Helper()
		before := resident()
		fr, err := p.fetch(h, id)
		if err != nil {
			t.Fatalf("fetch page %d: %v", id, err)
		}
		after := resident()
		for old := range before {
			if !after[old] {
				victims = append(victims, old)
			}
		}
		return fr
	}
	get := func(ids ...uint32) {
		t.Helper()
		for _, id := range ids {
			p.unpin(pin(id), false)
		}
	}

	get(0, 1, 2, 3) // four misses fill the pool
	get(1)          // a hit: 1 is now more recent than 3 and 2
	get(4)          // evicts 0
	held := pin(3)  // 3 stays pinned while it ages to least recent
	get(5, 6, 7, 8) // evict 2, 1, 4, then skip pinned 3 for 5

	// Dirty 6, then age it out: it must be written back before its frame
	// takes another page.
	fr := pin(6)
	fr.mu.Lock()
	page{fr.data}.setLSN(42)
	fr.mu.Unlock()
	p.unpin(fr, true)
	p.unpin(held, false)
	writebacks := p.Stats().Writebacks
	get(9, 10, 11, 0) // evict 3, 7, 8, then dirty 6
	if got := p.Stats().Writebacks - writebacks; got != 1 {
		t.Fatalf("evicting dirty page 6 wrote back %d pages, want 1", got)
	}
	fr = pin(6) // a miss: the page comes back from disk with its change
	fr.mu.RLock()
	lsn := page{fr.data}.lsn()
	fr.mu.RUnlock()
	p.unpin(fr, false)
	if lsn != 42 {
		t.Fatalf("page 6 reread with LSN %d, want the 42 written before eviction", lsn)
	}

	// Every frame pinned: a miss is refused, typed, until one pin goes.
	var pins []*frame
	for _, id := range []uint32{0, 11, 10, 6} {
		pins = append(pins, pin(id))
	}
	if _, err := p.fetch(h, 1); !errors.Is(err, ErrPoolExhausted) {
		t.Fatalf("fetch with every frame pinned: %v, want ErrPoolExhausted", err)
	}
	p.unpin(pins[1], false) // page 11
	get(1)                  // evicts 11, the only unpinned frame
	for _, fr := range []*frame{pins[0], pins[2], pins[3]} {
		p.unpin(fr, false)
	}

	want := []uint32{0, 2, 1, 4, 5, 3, 7, 8, 6, 9, 11}
	if fmt.Sprint(victims) != fmt.Sprint(want) {
		t.Fatalf("victims %v, want %v", victims, want)
	}
	verifyTable(t, s, "t", 120)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := mem.Bytes(); got != 0 {
		t.Fatalf("tracked bytes after close: %d", got)
	}
}

func walSize(t *testing.T, dir string) int64 {
	t.Helper()
	st, err := os.Stat(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}

func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestConcurrentScansAndInserts hammers an 8-frame pool under a 15-page
// table with parallel scanners while a writer appends batches — the regime
// the pool's I/O latch exists for: misses, evictions and dirty writebacks
// all overlapping. Seven goroutines hold at most one pin each, so eight
// frames always leave a victim: with fewer frames than goroutines the test
// was a coin toss on ErrPoolExhausted whenever it had both CPUs to itself.
// Run under -race this also proves the latch protocol publishes frames
// safely; afterwards the tracker must drain to zero.
func TestConcurrentScansAndInserts(t *testing.T) {
	dir := t.TempDir()
	mem := exec.NewMemTracker("concurrent", 0, nil)
	opts := smallStoreOpts(mem)
	opts.PoolBytes = 8 * MinPageSize
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateTable("t", testSchema()); err != nil {
		t.Fatal(err)
	}
	if err := s.Insert("t", testRows(0, 80)); err != nil {
		t.Fatal(err)
	}
	tbl, err := s.Table("t")
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for iter := 0; iter < 20; iter++ {
				cur, err := tbl.Scan(nil)
				if err != nil {
					errs <- err
					return
				}
				prev := -1
				for {
					row, err := cur.Next()
					if err != nil {
						errs <- err
						return
					}
					if row == nil {
						break
					}
					if rid := cur.Rid(); rid != prev+1 || row[0].I != int64(rid) {
						errs <- fmt.Errorf("scan %d: rid %d after %d, id %d", seed, rid, prev, row[0].I)
						return
					}
					prev++
				}
				if _, err := tbl.FetchRow((seed*7 + iter) % 80); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	// One writer appending concurrently: written rows land past the rows a
	// scanner saw at open, so its scan stays stable while evictions churn.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if err := s.Insert("t", testRows(80+i*4, 4)); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	verifyTable(t, s, "t", 120)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := mem.Bytes(); got != 0 {
		t.Fatalf("tracked bytes after close: %d", got)
	}
}

// TestMaskedScanDecodesOnlyNeededColumns: through real pages, a masked
// cursor yields the needed columns, leaves the others NULL, and its kept
// rows survive the scan moving on to later pages.
func TestMaskedScanDecodesOnlyNeededColumns(t *testing.T) {
	s, err := Open(t.TempDir(), smallStoreOpts(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	tbl, err := s.CreateTable("t", testSchema())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Insert("t", testRows(0, 100)); err != nil {
		t.Fatal(err)
	}
	cur, err := tbl.Scan([]bool{true, false})
	if err != nil {
		t.Fatal(err)
	}
	var kept []storage.Row
	for {
		row, err := cur.Next()
		if err != nil {
			t.Fatal(err)
		}
		if row == nil {
			break
		}
		if row[1].Kind != storage.TypeNull {
			t.Fatalf("rid %d: column outside the mask decoded as %v", cur.Rid(), row[1])
		}
		if cur.Rid()%3 == 0 {
			kept = append(kept, cur.Keep())
		}
	}
	if len(kept) != 34 {
		t.Fatalf("kept %d rows", len(kept))
	}
	for i, row := range kept {
		if want := int64(3 * i); row[0].I != want || row[0].Kind != storage.TypeInt64 {
			t.Fatalf("kept row %d is %v, want id %d", i, row, want)
		}
	}
}

// TestArityMismatchIsCorruption: a slot whose declared column count is not
// the table's is corrupt where it is decoded, and the error says where the
// bytes are — it used to decode "successfully" and fail in an expression as
// a column out of range.
func TestArityMismatchIsCorruption(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, smallStoreOpts(nil))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateTable("t", testSchema()); err != nil {
		t.Fatal(err)
	}
	if err := s.BulkLoad("t", testRows(0, 20)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// The catalog now claims a third column the stored rows do not have.
	path := filepath.Join(dir, catalogName)
	cat, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	widened := strings.Replace(string(cat), `"columns": [`, `"columns": [{"table": "t", "name": "extra", "type": 2},`, 1)
	if widened == string(cat) {
		t.Fatalf("catalog has no column list to widen:\n%s", cat)
	}
	if err := os.WriteFile(path, []byte(widened), 0o644); err != nil {
		t.Fatal(err)
	}
	if s, err = Open(dir, smallStoreOpts(nil)); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	tbl, err := s.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	check := func(what string, err error, where string) {
		t.Helper()
		if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), where) {
			t.Errorf("%s over a 2-column row in a 3-column table: %v, want ErrCorrupt naming %q", what, err, where)
		}
	}
	_, err = tbl.FetchRow(12)
	check("FetchRow", err, "t page 1 slot 3")
	for _, need := range [][]bool{nil, {false, true, false}} {
		cur, err := tbl.Scan(need)
		if err != nil {
			t.Fatal(err)
		}
		_, err = cur.Next()
		check("a scan", err, "t page 0 slot 0")
	}
}
