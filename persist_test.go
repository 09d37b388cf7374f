package bufferdb_test

import (
	"context"
	"errors"
	"testing"

	"bufferdb"
)

// queryCell runs a query expected to return exactly one cell.
func queryCell(t *testing.T, db *bufferdb.DB, q string) any {
	t.Helper()
	res, err := db.Query(context.Background(), q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	if len(res.Rows) != 1 || len(res.Rows[0]) != 1 {
		t.Fatalf("%s: want one cell, got %+v", q, res.Rows)
	}
	return res.Rows[0][0]
}

// TestPersistRoundTrip drives the persistent tier through the public API:
// the first open bulk-loads TPC-H into the data directory, INSERTs commit
// through the WAL, scans far larger than the pool budget stream correctly
// in both engines, tracked memory drains at close, and a second open
// recovers everything from disk alone.
func TestPersistRoundTrip(t *testing.T) {
	dir := t.TempDir()
	const sf = 0.01

	// In-memory reference: the generator is deterministic, so the paged
	// database must agree with it exactly.
	ref, err := bufferdb.OpenTPCH(sf, bufferdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	refCount := queryCell(t, ref, `SELECT COUNT(*) FROM lineitem`).(int64)
	refSum := queryCell(t, ref, `SELECT SUM(l_extendedprice) FROM lineitem WHERE l_quantity > 10`).(float64)
	if err := ref.Close(); err != nil {
		t.Fatal(err)
	}

	// lineitem at this scale is ~850 pages of 8 KiB (~6.6 MiB); a 512 KiB
	// pool holds 64 frames, so a full scan must stream ~13x its budget.
	db, err := bufferdb.OpenTPCH(sf, bufferdb.Options{
		DataDir:     dir,
		PoolBytes:   512 << 10,
		MemoryLimit: 256 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := queryCell(t, db, `SELECT COUNT(*) FROM region`).(int64); got != 5 {
		t.Fatalf("region count = %d, want 5", got)
	}
	if got := queryCell(t, db, `INSERT INTO region VALUES (5, 'ATLANTIS', 'sunken'), (6, 'LEMURIA', 'lost')`).(int64); got != 2 {
		t.Fatalf("inserted = %d, want 2", got)
	}
	if got := queryCell(t, db, `SELECT COUNT(*) FROM region`).(int64); got != 7 {
		t.Fatalf("region count after insert = %d, want 7", got)
	}

	if got := queryCell(t, db, `SELECT COUNT(*) FROM lineitem`).(int64); got != refCount {
		t.Fatalf("lineitem count = %d, want %d", got, refCount)
	}
	if got := queryCell(t, db, `SELECT SUM(l_extendedprice) FROM lineitem WHERE l_quantity > 10`).(float64); got != refSum {
		t.Fatalf("sum = %v, want %v", got, refSum)
	}

	st := db.PagerStats()
	if st.Misses == 0 || st.Evictions == 0 {
		t.Fatalf("scans larger than the pool must miss and evict, got %+v", st)
	}
	if st.ResidentPages <= 0 || st.ResidentPages > (512<<10)/8192 {
		t.Fatalf("resident pages %d outside (0, pool budget]", st.ResidentPages)
	}

	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if n := db.TrackedBytes(); n != 0 {
		t.Fatalf("tracked bytes after close: %d", n)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}

	// Reopen from disk only: no scale factor, just the directory.
	db2, err := bufferdb.Open(bufferdb.Options{DataDir: dir, PoolBytes: 512 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	res, err := db2.Query(context.Background(), `SELECT r_regionkey, r_name FROM region WHERE r_regionkey >= 5 ORDER BY r_regionkey`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0][1].(string) != "ATLANTIS" || res.Rows[1][1].(string) != "LEMURIA" {
		t.Fatalf("inserted rows after reopen: %+v", res.Rows)
	}
	if got := queryCell(t, db2, `SELECT COUNT(*) FROM lineitem`).(int64); got != refCount {
		t.Fatalf("after reopen: lineitem count = %d, want %d", got, refCount)
	}
}

// TestPersistInsertReadOnly pins that INSERT against a memory-resident
// database fails with the typed sentinel instead of silently dropping
// the rows.
func TestPersistInsertReadOnly(t *testing.T) {
	db, err := bufferdb.OpenTPCH(0.002, bufferdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	_, err = db.Query(context.Background(), `INSERT INTO region VALUES (5, 'ATLANTIS', 'sunken')`)
	if !errors.Is(err, bufferdb.ErrReadOnly) {
		t.Fatalf("insert into in-memory table: err = %v, want ErrReadOnly", err)
	}
}

// TestPersistOpenMissingCatalog pins that Open without a populated data
// directory reports the absence as a typed error rather than serving an
// empty database.
func TestPersistOpenMissingCatalog(t *testing.T) {
	if _, err := bufferdb.Open(bufferdb.Options{DataDir: t.TempDir()}); err == nil {
		t.Fatal("open of empty data dir succeeded")
	}
	if _, err := bufferdb.Open(bufferdb.Options{}); err == nil {
		t.Fatal("open without a data dir succeeded")
	}
}
