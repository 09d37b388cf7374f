package storage

import "fmt"

// Heap abstracts where a paged table's rows physically live: internal/pager
// implements it with slotted pages behind a buffer pool, which is how a
// table larger than RAM still serves sequential scans and point fetches.
// The interface is deliberately tiny: the executor only ever streams a
// table (through a Cursor, which drives ReadPage and DecodeSlot) or fetches
// one row by identifier.
//
// All methods must be safe for concurrent use; FetchRow and ReadPage may
// perform I/O and therefore can fail, unlike the in-memory accessors.
type Heap interface {
	// NumRows returns the heap cardinality.
	NumRows() int
	// AvgRowBytes returns the mean in-memory row width (for the planner's
	// cost model and simulated placement).
	AvgRowBytes() int
	// FetchRow returns the row with the given identifier. The row owns its
	// memory.
	FetchRow(rid int) (Row, error)
	// ReadPage copies the page holding row rid into p, reusing p.Data when
	// it is large enough. No pin or latch is held once it returns.
	ReadPage(rid int, p *PageImage) error
	// DecodeSlot decodes one row of a page image into dst, which has the
	// table's arity. Only columns with need[i] set are stored (nil means
	// all); the others are validated and skipped, and keep whatever dst
	// held.
	DecodeSlot(p *PageImage, slot int, need []bool, dst Row) error
}

// PageImage is a private copy of one heap page: what a Cursor decodes rows
// from between two page reads, so that a scan holds no buffer-pool pin
// while its operator runs.
type PageImage struct {
	Data  []byte // the page bytes, in the heap's on-disk format
	ID    int    // page number within the heap, for error messages
	First int    // rid of the page's slot 0
	Rows  int    // slots in the page
}

// NewPagedTable creates a table whose rows live in the given heap instead
// of the in-memory slice. Paged tables are read-only through the Table API
// (writes go through the owning pager store, which keeps the write-ahead
// log and the page images consistent); Append and Rows panic or error to
// catch misuse early.
func NewPagedTable(name string, schema Schema, heap Heap) *Table {
	return &Table{
		name:    name,
		schema:  schema,
		heap:    heap,
		indexes: make(map[string]*IndexMeta),
	}
}

// Paged reports whether the table's rows live behind a Heap (disk-backed)
// rather than in the in-memory row slice.
func (t *Table) Paged() bool { return t.heap != nil }

// FetchRow returns the row with the given identifier, surfacing I/O errors
// from disk-backed heaps. It is the error-propagating form of Row and the
// accessor the executor uses wherever a paged table may appear.
func (t *Table) FetchRow(rid int) (Row, error) {
	if t.heap != nil {
		return t.heap.FetchRow(rid)
	}
	if rid < 0 || rid >= len(t.rows) {
		return nil, fmt.Errorf("storage: table %s: row %d out of range [0,%d)", t.name, rid, len(t.rows))
	}
	return t.rows[rid], nil
}

// slabValues is how many values a paged cursor allocates at a time to carve
// kept rows from: 16 lineitem rows, 10 KB. Measured on the paged daemon, a
// 64-row slab — a 40 KB large object, outside the allocator's size classes —
// scanned no faster and raised the resident-set tail by a tenth.
const slabValues = 256

// Cursor streams a table in rid order. It is the one scan loop
// all three engines share, and the only place that knows whether a table is
// paged.
//
// Next returns a borrowed row: valid until the next call to Next, never to
// be retained or handed to another operator. Keep returns the same row as
// one the caller may retain forever. For a memory-resident table both are
// the stored row itself — no copy, one slice index per row. For a paged
// table Next decodes the needed columns of the next slot into a scratch row
// the cursor reuses (columns outside the mask stay NULL and cost no
// allocation), and Keep copies that scratch row into a slab carved a few
// rows at a time — so a scan pays for materialisation only for the rows its
// filter lets through. NextRows, for memory-resident tables only, hands out
// the stored rows a window at a time instead of one by one.
//
// A cursor holds no buffer-pool pin between calls: it decodes from its own
// copy of the current page. It is single-use and not safe for concurrent
// use; each scan operator owns its own.
type Cursor struct {
	rows []Row // memory-resident backing; nil when paged
	heap Heap  // paged backing; nil when memory-resident
	pos  int   // rid of the next row
	end  int   // rid past the last row
	err  error // sticky: a failed cursor stays failed

	// Paged state.
	need    []bool // column mask; nil = every column
	bare    bool   // the mask is empty: every row is the same all-NULL row
	page    PageImage
	scratch Row
	slab    []Value
}

// Scan opens a cursor over the whole table. need is the column mask of a
// paged scan — need[i] reports whether anyone reads column i, nil means
// all — and is ignored for memory-resident tables, whose rows are never
// decoded.
func (t *Table) Scan(need []bool) (Cursor, error) {
	if need != nil && len(need) != len(t.schema) {
		return Cursor{}, fmt.Errorf("storage: table %s: column mask of %d entries for %d columns", t.name, len(need), len(t.schema))
	}
	c := Cursor{rows: t.rows, heap: t.heap, end: t.NumRows()}
	if t.heap != nil {
		c.need, c.bare = need, need != nil
		for _, b := range need {
			c.bare = c.bare && !b
		}
		c.scratch = make(Row, len(t.schema))
	}
	return c, nil
}

// Next returns the next row, borrowed (see Cursor), or nil at
// the end. An I/O or corruption error ends the stream.
func (c *Cursor) Next() (Row, error) {
	if c.pos >= c.end {
		return nil, c.err
	}
	if c.heap != nil {
		return c.nextPaged()
	}
	c.pos++
	return c.rows[c.pos-1], nil
}

// NextRows returns the next rows, at most max of them, as a
// window onto the stored rows of a memory-resident table: no row is copied
// or touched. The window is borrowed like Next's row — valid until the next
// call, read-only — and empty at the end of the table. A paged table has no
// stored rows to window; its cursor always answers nil, so callers select
// this path only for tables that are not Paged.
func (c *Cursor) NextRows(max int) []Row {
	if c.heap != nil || c.pos >= c.end {
		return nil
	}
	start := c.pos
	c.pos = min(start+max, c.end)
	return c.rows[start:c.pos:c.pos]
}

// nextPaged decodes the next slot into the scratch row, reading the next
// page first when the current image is exhausted.
func (c *Cursor) nextPaged() (Row, error) {
	slot := c.pos - c.page.First
	if slot >= c.page.Rows {
		if err := c.heap.ReadPage(c.pos, &c.page); err != nil {
			return c.fail(err)
		}
		slot = c.pos - c.page.First
	}
	if err := c.heap.DecodeSlot(&c.page, slot, c.need, c.scratch); err != nil {
		return c.fail(err)
	}
	c.pos++
	return c.scratch, nil
}

func (c *Cursor) fail(err error) (Row, error) {
	c.err, c.end = err, c.pos
	return nil, err
}

// Rid returns the identifier of the row the last Next returned.
func (c *Cursor) Rid() int { return c.pos - 1 }

// Keep returns the row the last Next returned as a row the caller owns.
func (c *Cursor) Keep() Row {
	if c.heap == nil {
		return c.rows[c.pos-1]
	}
	if c.bare {
		// COUNT(*) and its kind: nothing is ever decoded into the scratch
		// row, so it can stand for every row of the scan.
		return c.scratch
	}
	w := len(c.scratch)
	if len(c.slab) < w {
		c.slab = make([]Value, max(slabValues/w, 1)*w)
	}
	row := Row(c.slab[:w:w])
	c.slab = c.slab[w:]
	copy(row, c.scratch)
	return row
}
