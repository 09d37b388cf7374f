package storage

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

// fakeHeap is a Heap over rows in memory: pages of pageRows rows whose
// "image" is the page number, decoded by copying the needed columns. It
// counts what a Cursor and Sample ask of it.
type fakeHeap struct {
	mu       sync.Mutex
	rows     []Row
	pageRows int
	reads    int   // ReadPage calls
	fetches  []int // FetchRow rids, in call order
	failPage int   // ReadPage of this page fails; -1 never
}

var errFakeRead = errors.New("fake read failure")

func (h *fakeHeap) NumRows() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.rows)
}

func (h *fakeHeap) AvgRowBytes() int { return 64 }

func (h *fakeHeap) FetchRow(rid int) (Row, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.fetches = append(h.fetches, rid)
	return h.rows[rid].Clone(), nil
}

func (h *fakeHeap) ReadPage(rid int, p *PageImage) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.reads++
	id := rid / h.pageRows
	if id == h.failPage {
		return errFakeRead
	}
	p.ID, p.First = id, id*h.pageRows
	p.Rows = min(h.pageRows, len(h.rows)-p.First)
	return nil
}

func (h *fakeHeap) DecodeSlot(p *PageImage, slot int, need []bool, dst Row) error {
	for c, v := range h.rows[p.First+slot] {
		if need == nil || need[c] {
			dst[c] = v
		}
	}
	return nil
}

func fakeRows(n int) []Row {
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = Row{NewInt(int64(i)), NewString(fmt.Sprintf("s%d", i)), NewFloat(float64(i) / 2)}
	}
	return rows
}

// TestCursorMemoryResident: both Next and Keep hand out the stored row
// itself, whatever the mask.
func TestCursorMemoryResident(t *testing.T) {
	tbl := NewTable("t", testSchema())
	for _, r := range fakeRows(10) {
		tbl.MustAppend(r)
	}
	cur, err := tbl.Scan([]bool{true, false, false})
	if err != nil {
		t.Fatal(err)
	}
	for rid := 0; rid < 10; rid++ {
		row, err := cur.Next()
		if err != nil || row == nil {
			t.Fatalf("Next at %d: %v, %v", rid, row, err)
		}
		if cur.Rid() != rid || &row[0] != &tbl.Rows()[rid][0] || &cur.Keep()[0] != &row[0] {
			t.Fatalf("rid %d: Next/Keep did not return the stored row", rid)
		}
	}
	if row, err := cur.Next(); row != nil || err != nil {
		t.Fatalf("past the end: %v, %v", row, err)
	}
	if _, err := tbl.Scan([]bool{true}); err == nil {
		t.Error("mask of the wrong arity accepted")
	}
}

// TestCursorPaged: a borrowed row is overwritten by the next Next, a kept
// row is not — across slab and page boundaries — columns outside the mask
// stay NULL, a scan may end mid-page, and a failed cursor stays failed.
func TestCursorPaged(t *testing.T) {
	h := &fakeHeap{rows: fakeRows(500), pageRows: 7, failPage: -1}
	tbl := NewPagedTable("t", testSchema(), h)
	cur, err := tbl.Scan([]bool{true, false, true})
	if err != nil {
		t.Fatal(err)
	}
	var kept []Row
	var borrowed Row
	for rid := 0; rid < 500; rid++ {
		row, err := cur.Next()
		if err != nil || row == nil {
			t.Fatalf("Next at %d: %v, %v", rid, row, err)
		}
		if borrowed != nil && &borrowed[0] != &row[0] {
			t.Fatalf("rid %d: Next allocated a fresh row", rid)
		}
		borrowed = row
		if cur.Rid() != rid || row[0].I != int64(rid) || row[1].Kind != TypeNull || row[2].F != float64(rid)/2 {
			t.Fatalf("rid %d decoded as %v (Rid %d)", rid, row, cur.Rid())
		}
		kept = append(kept, cur.Keep())
	}
	if row, err := cur.Next(); row != nil || err != nil {
		t.Fatalf("past the end: %v, %v", row, err)
	}
	for i, row := range kept {
		if row[0].I != int64(i) || len(row) != 3 || cap(row) != 3 {
			t.Fatalf("kept row %d is %v (cap %d) after the scan moved on", i, row, cap(row))
		}
	}
	if want := 499/7 + 1; h.reads != want {
		t.Errorf("%d page reads for a scan over %d pages", h.reads, want)
	}

	// An empty mask decodes nothing, so one all-NULL row stands for them all.
	cur, _ = tbl.Scan([]bool{false, false, false})
	for i := 0; i < 500; i++ {
		row, err := cur.Next()
		if err != nil || len(row) != 3 || row[0].Kind != TypeNull || &cur.Keep()[0] != &row[0] {
			t.Fatalf("row %d of an empty-mask scan: %v, %v", i, row, err)
		}
	}

	h.failPage = 2
	cur, _ = tbl.Scan(nil)
	n := 0
	for {
		row, err := cur.Next()
		if err != nil {
			if !errors.Is(err, errFakeRead) {
				t.Fatal(err)
			}
			break
		}
		if row == nil {
			t.Fatal("scan ran past a failing page")
		}
		n++
	}
	if n != 14 {
		t.Errorf("%d rows before the failing page, want 14", n)
	}
	if row, err := cur.Next(); row != nil || !errors.Is(err, errFakeRead) {
		t.Errorf("Next after failure: %v, %v", row, err)
	}
}

// TestSampleHoldsColumns: a paged table fetches each sampled rid once per
// column set, only the tail after growth, everything again after a stride
// change or DropSamples; the visited rows are those of a direct fetch.
func TestSampleHoldsColumns(t *testing.T) {
	h := &fakeHeap{rows: fakeRows(100), pageRows: 7, failPage: -1}
	tbl := NewPagedTable("t", testSchema(), h)
	visit := func(stride int, need []bool) (ids []int64) {
		t.Helper()
		err := tbl.Sample(stride, need, func(r Row) bool {
			ids = append(ids, r[0].I)
			if need == nil || need[2] {
				if r[2].F != float64(r[0].I)/2 {
					t.Fatalf("row %d visited with c = %v", r[0].I, r[2])
				}
			}
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		return ids
	}
	fetched := func() int {
		n := len(h.fetches)
		h.fetches = nil
		return n
	}

	if ids := visit(10, []bool{true, false, false}); len(ids) != 10 || ids[9] != 90 || fetched() != 10 {
		t.Fatalf("first sample: rows %v", ids)
	}
	if visit(10, []bool{true, false, false}); fetched() != 0 {
		t.Error("a repeated sample went back to the heap")
	}
	if visit(10, []bool{true, false, true}); fetched() != 10 {
		t.Error("a new column must fetch each sampled rid once")
	}
	if visit(10, nil); fetched() != 10 {
		t.Error("the remaining column must fetch each sampled rid once")
	}
	h.mu.Lock()
	h.rows = append(h.rows, fakeRows(125)[100:]...)
	h.mu.Unlock()
	if ids := visit(10, nil); len(ids) != 13 || ids[12] != 120 || fmt.Sprint(h.fetches) != "[100 110 120]" {
		t.Errorf("after growth: rows %v, fetched rids %v", ids, h.fetches)
	}
	fetched()
	if ids := visit(12, []bool{true, false, false}); len(ids) != 11 || ids[10] != 120 || fetched() != 11 {
		t.Errorf("stride change: rows %v", ids)
	}
	tbl.DropSamples()
	if visit(12, []bool{true, false, false}); fetched() != 11 {
		t.Error("DropSamples kept the sample")
	}

	// Early stop, and the memory-resident path visits the stored rows.
	mem := NewTable("m", testSchema())
	for _, r := range fakeRows(30) {
		mem.MustAppend(r)
	}
	var seen []int64
	if err := mem.Sample(7, nil, func(r Row) bool {
		seen = append(seen, r[0].I)
		return len(seen) < 3
	}); err != nil || fmt.Sprint(seen) != "[0 7 14]" {
		t.Errorf("memory-resident sample: %v, %v", seen, err)
	}
}

// TestSampleConcurrent: planners sampling one table at once all see the
// whole sample (run under -race).
func TestSampleConcurrent(t *testing.T) {
	h := &fakeHeap{rows: fakeRows(1000), pageRows: 7, failPage: -1}
	tbl := NewPagedTable("t", testSchema(), h)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			need := []bool{true, g%2 == 0, g%3 == 0}
			for i := 0; i < 50; i++ {
				n := 0
				if err := tbl.Sample(3, need, func(r Row) bool {
					if r[0].I != int64(3*n) {
						t.Errorf("sample %d is row %d", n, r[0].I)
					}
					n++
					return true
				}); err != nil || n != 334 {
					t.Errorf("sampled %d rows: %v", n, err)
				}
			}
		}(g)
	}
	wg.Wait()
}
