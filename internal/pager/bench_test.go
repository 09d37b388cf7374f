package pager

import (
	"fmt"
	"math/rand"
	"testing"

	"bufferdb/internal/storage"
	"bufferdb/internal/tpch"
)

// BenchmarkBufferPoolHitRatio measures the pool's LRU on a skewed
// point-lookup workload (80% of fetches hit the hottest 20% of rids) at
// pool sizes of 10%, 50% and 100% of the table, reporting the achieved hit
// ratio as a custom metric: only cold misses once the table fits, ~0.31 at
// 10%, where recency alone lets the cold tail wash hot pages out.
func BenchmarkBufferPoolHitRatio(b *testing.B) {
	const tableRows = 12000

	// Build the on-disk table once; every sub-benchmark reopens it with its
	// own pool configuration.
	dir := b.TempDir()
	s, err := Open(dir, Options{PageSize: MinPageSize, PoolBytes: 1 << 20})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := s.CreateTable("bench", testSchema()); err != nil {
		b.Fatal(err)
	}
	rows := testRows(0, tableRows)
	if err := s.BulkLoad("bench", rows); err != nil {
		b.Fatal(err)
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}

	// Page count drives the pool sizing; recompute it from the store.
	s, err = Open(dir, Options{PageSize: MinPageSize, PoolBytes: 1 << 20})
	if err != nil {
		b.Fatal(err)
	}
	tbl, err := s.Table("bench")
	if err != nil {
		b.Fatal(err)
	}
	pages := (tbl.NumRows() + 8) / 9 // ~9 of these rows per 512-byte page
	s.Close()

	for _, pct := range []int{10, 50, 100} {
		b.Run(fmt.Sprintf("pool=%d%%", pct), func(b *testing.B) {
			poolPages := pages * pct / 100
			if poolPages < 4 {
				poolPages = 4
			}
			s, err := Open(dir, Options{PageSize: MinPageSize, PoolBytes: int64(poolPages) * MinPageSize})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			tbl, err := s.Table("bench")
			if err != nil {
				b.Fatal(err)
			}
			n := tbl.NumRows()
			hot := n / 5
			rng := rand.New(rand.NewSource(42))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var rid int
				if rng.Intn(10) < 8 {
					rid = rng.Intn(hot)
				} else {
					rid = hot + rng.Intn(n-hot)
				}
				if _, err := tbl.FetchRow(rid); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			st := s.PoolStats()
			if total := st.Hits + st.Misses; total > 0 {
				b.ReportMetric(float64(st.Hits)/float64(total), "hit-ratio")
			}
		})
	}
}

// lineitemStore bulk-loads TPC-H lineitem at SF 0.02 into a fresh store and
// reopens it with a 2 MiB pool — the paged_mixed daemon's configuration, a
// pool a seventh of the heap.
func lineitemStore(tb testing.TB) (*Store, *storage.Table) {
	tb.Helper()
	cat, err := tpch.Generate(tpch.Config{ScaleFactor: 0.02})
	if err != nil {
		tb.Fatal(err)
	}
	mem, err := cat.Table("lineitem")
	if err != nil {
		tb.Fatal(err)
	}
	dir := tb.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := s.CreateTable("lineitem", mem.Schema()); err != nil {
		tb.Fatal(err)
	}
	if err := s.BulkLoad("lineitem", mem.Rows()); err != nil {
		tb.Fatal(err)
	}
	if err := s.Close(); err != nil {
		tb.Fatal(err)
	}
	if s, err = Open(dir, Options{PoolBytes: 2 << 20}); err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { s.Close() })
	tbl, err := s.Table("lineitem")
	if err != nil {
		tb.Fatal(err)
	}
	return s, tbl
}

// lineitem column positions the scan shapes below read.
const (
	lQuantity, lExtendedPrice, lDiscount, lTax = 4, 5, 6, 7
	lReturnFlag, lLineStatus, lShipDate        = 8, 9, 10
)

// columnMask builds the mask of the given columns over lineitem's 16.
func columnMask(cols ...int) []bool {
	need := make([]bool, 16)
	for _, c := range cols {
		need[c] = true
	}
	return need
}

// scanShapes are the three scans the benchmark of record's paged workload
// is made of: every column of every row (a scan nobody pruned), TPC-H Q6
// (four numeric columns, 2 % of rows kept) and TPC-H Q1 (seven columns, two
// of them one-byte strings, every row kept: the specification's cut-off
// date passes 98 %, and this generator ships nothing in the last 2 %).
var scanShapes = []struct {
	name string
	need []bool
	keep func(storage.Row) bool
}{
	{"all_columns", nil, func(storage.Row) bool { return true }},
	{"q6_columns", columnMask(lQuantity, lExtendedPrice, lDiscount, lShipDate), func(r storage.Row) bool {
		// 1994, discount 0.05..0.07, quantity < 24.
		return r[lShipDate].I >= 8766 && r[lShipDate].I < 9131 &&
			r[lDiscount].F >= 0.05 && r[lDiscount].F <= 0.07 && r[lQuantity].F < 24
	}},
	{"q1_columns", columnMask(lQuantity, lExtendedPrice, lDiscount, lTax, lReturnFlag, lLineStatus, lShipDate),
		func(r storage.Row) bool { return r[lShipDate].I <= 10471 }}, // 1998-09-02
}

// scanOnce drains one cursor over the whole table, keeping the rows the
// shape's predicate passes, as the engines' scan loops do.
func scanOnce(tb testing.TB, tbl *storage.Table, need []bool, keep func(storage.Row) bool) (kept int) {
	cur, err := tbl.Scan(need)
	if err != nil {
		tb.Fatal(err)
	}
	for {
		row, err := cur.Next()
		if err != nil {
			tb.Fatal(err)
		}
		if row == nil {
			return kept
		}
		if keep(row) {
			keptRow = cur.Keep()
			kept++
		}
	}
}

var keptRow storage.Row

// BenchmarkPagedScan is the instrument for the paged scan path: one full
// pass over SF 0.02 lineitem through a pool a seventh its size, per shape.
func BenchmarkPagedScan(b *testing.B) {
	_, tbl := lineitemStore(b)
	for _, shape := range scanShapes {
		b.Run(shape.name, func(b *testing.B) {
			b.ReportAllocs()
			var kept int
			for i := 0; i < b.N; i++ {
				kept = scanOnce(b, tbl, shape.need, shape.keep)
			}
			b.ReportMetric(float64(kept)/float64(tbl.NumRows()), "kept-ratio")
		})
	}
}

// TestPagedScanAllocs is the allocation ceiling of the paged scan path: a
// scan whose mask holds no string column and whose filter rejects every row
// allocates per page at most, never per row — no row is materialised until
// Keep, a pool miss recycles its victim, and the cursor reuses one page
// image and one scratch row.
func TestPagedScanAllocs(t *testing.T) {
	s, tbl := lineitemStore(t)
	need := columnMask(lQuantity, lExtendedPrice, lDiscount, lShipDate)
	reject := func(storage.Row) bool { return false }
	scanOnce(t, tbl, need, reject) // fill the pool: the first misses allocate their frames
	before := s.PoolStats()
	allocs := testing.AllocsPerRun(3, func() { scanOnce(t, tbl, need, reject) })
	after := s.PoolStats()
	pages := float64(after.Hits+after.Misses-before.Hits-before.Misses) / 4 // AllocsPerRun warms up once
	if rows := float64(tbl.NumRows()); pages < 1000 || rows < 50*pages {
		t.Fatalf("table too small to tell pages from rows: %v pages, %v rows", pages, rows)
	}
	if allocs > pages {
		t.Fatalf("a rejecting scan of %v pages allocated %v times", pages, allocs)
	}
	t.Logf("%v allocations over %v pages", allocs, pages)
}
