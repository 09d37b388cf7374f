package storage

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// ErrUnknownTable is the sentinel wrapped by catalog lookups of names that
// do not exist; callers test it with errors.Is through any number of
// wrapping layers (SQL analysis, the bufferdb facade).
var ErrUnknownTable = errors.New("unknown table")

// Table is a memory-resident heap relation: a schema plus a slice of rows.
// Row identifiers are positions in the heap; indexes map key values to row
// identifiers.
//
// A table is built once by a loader (Append) and is immutable afterwards;
// all read accessors are safe for concurrent use. Simulated memory
// placement is per-execution state and lives in exec.Context, not here, so
// concurrent instrumented runs cannot interfere with each other.
type Table struct {
	name   string
	schema Schema
	rows   []Row

	// heap, when non-nil, backs the table with an external (disk-resident)
	// heap instead of the rows slice; see NewPagedTable. Row access then
	// goes through FetchRow/Scan, which can surface I/O errors.
	heap Heap

	// rowOnce guards the lazily computed average row width so concurrent
	// readers (planner cost model, placement) agree on one value.
	rowOnce  sync.Once
	rowBytes int

	// samples holds what plan-time estimation reads of a paged table (see
	// Sample): samples[c][k] is column c of row k*sampleStride, for the
	// columns asked for so far.
	sampleMu     sync.Mutex
	sampleStride int
	samples      [][]Value

	indexes map[string]*IndexMeta
}

// IndexMeta records a secondary access path registered on a table. The
// actual search structure lives in the btree package; the catalog only needs
// enough metadata to answer "is there an index on column X" during planning.
type IndexMeta struct {
	Name   string
	Column string // indexed column name
	Col    int    // indexed column position
	Unique bool
	// Search is the opaque handle to the index structure. It is declared as
	// an interface here to keep storage free of a dependency on btree.
	Search any
}

// NewTable creates an empty heap relation with the given schema.
func NewTable(name string, schema Schema) *Table {
	return &Table{
		name:    name,
		schema:  schema,
		indexes: make(map[string]*IndexMeta),
	}
}

// Name returns the relation name.
func (t *Table) Name() string { return t.name }

// Schema returns the relation schema. Callers must not mutate it.
func (t *Table) Schema() Schema { return t.schema }

// NumRows returns the heap cardinality.
func (t *Table) NumRows() int {
	if t.heap != nil {
		return t.heap.NumRows()
	}
	return len(t.rows)
}

// Append adds a row to the heap and returns its row identifier.
// The row must match the schema arity; type agreement is the loader's
// responsibility (the TPC-H generator and the test fixtures are both typed
// at the source).
func (t *Table) Append(r Row) (int, error) {
	if t.heap != nil {
		return 0, fmt.Errorf("storage: table %s is disk-backed; write through the pager store", t.name)
	}
	if len(r) != len(t.schema) {
		return 0, fmt.Errorf("storage: table %s: row arity %d does not match schema arity %d",
			t.name, len(r), len(t.schema))
	}
	t.rows = append(t.rows, r)
	return len(t.rows) - 1, nil
}

// MustAppend is Append for generated data, where arity is correct by
// construction.
func (t *Table) MustAppend(r Row) int {
	id, err := t.Append(r)
	if err != nil {
		panic(err)
	}
	return id
}

// Row returns the row with the given identifier. For disk-backed tables it
// panics on I/O errors — the executor and planner use the error-propagating
// FetchRow instead; Row remains the zero-overhead accessor for the
// memory-resident hot path.
func (t *Table) Row(id int) Row {
	if t.heap != nil {
		r, err := t.heap.FetchRow(id)
		if err != nil {
			panic(fmt.Sprintf("storage: table %s: Row(%d) on disk-backed heap: %v (use FetchRow)", t.name, id, err))
		}
		return r
	}
	return t.rows[id]
}

// Rows returns the backing row slice for sequential scans.
// Callers must treat it as read-only. It panics for disk-backed tables,
// whose rows may not fit in memory — stream them with Scan.
func (t *Table) Rows() []Row {
	if t.heap != nil {
		panic(fmt.Sprintf("storage: table %s is disk-backed; stream rows with Scan", t.name))
	}
	return t.rows
}

// Sample calls visit with rows 0, stride, 2·stride, … of the table, in rid
// order, until visit returns false: the evenly spaced sample the planner's
// estimators evaluate predicates over. need says which columns visit reads
// (nil means all). The rows are borrowed: valid during the call only, and
// for a paged table meaningful in the needed columns only.
//
// A paged table keeps the sampled values, column by column as estimators
// ask for them, so that an ad hoc plan costs the buffer pool nothing once
// the first one has paid: rows are never updated in place, so a held value
// stays the value at its rid, and a later call fetches only the rids an
// INSERT has added since. A different stride drops what is held. Safe for
// concurrent use.
func (t *Table) Sample(stride int, need []bool, visit func(Row) bool) error {
	if stride < 1 {
		stride = 1
	}
	if t.heap == nil {
		for rid := 0; rid < len(t.rows); rid += stride {
			if !visit(t.rows[rid]) {
				break
			}
		}
		return nil
	}
	want := (t.NumRows() + stride - 1) / stride
	cols, err := t.sampledColumns(stride, need, want)
	if err != nil {
		return err
	}
	row := make(Row, len(t.schema))
	for k := 0; k < want; k++ {
		for c, vals := range cols {
			if vals != nil {
				row[c] = vals[k]
			}
		}
		if !visit(row) {
			break
		}
	}
	return nil
}

// sampledColumns returns, for each needed column, its values at the first
// want sampled rids (nil for the others), fetching what is not held yet.
// Held values are never rewritten, so the returned prefixes are safe to read
// while a later call appends.
func (t *Table) sampledColumns(stride int, need []bool, want int) ([][]Value, error) {
	t.sampleMu.Lock()
	defer t.sampleMu.Unlock()
	if t.sampleStride != stride || t.samples == nil {
		t.sampleStride, t.samples = stride, make([][]Value, len(t.schema))
	}
	needed := func(c int) bool { return need == nil || need[c] }
	held := want // the shortest needed column
	for c, vals := range t.samples {
		if needed(c) && len(vals) < held {
			held = len(vals)
		}
	}
	for k := held; k < want; k++ {
		row, err := t.heap.FetchRow(k * stride)
		if err != nil {
			return nil, err
		}
		for c, vals := range t.samples {
			if needed(c) && len(vals) == k {
				t.samples[c] = append(vals, row[c])
			}
		}
	}
	cols := make([][]Value, len(t.samples))
	for c, vals := range t.samples {
		if needed(c) {
			cols[c] = vals[:want:want]
		}
	}
	return cols, nil
}

// DropSamples releases the values Sample holds; the owning store calls it
// at close.
func (t *Table) DropSamples() {
	t.sampleMu.Lock()
	t.sampleStride, t.samples = 0, nil
	t.sampleMu.Unlock()
}

// AvgRowBytes returns the mean in-memory row width, computed once over a
// sample of the heap. It is used both for simulated placement and by the
// planner's cost model, and is safe for concurrent callers.
func (t *Table) AvgRowBytes() int {
	t.rowOnce.Do(func() {
		if t.heap != nil {
			t.rowBytes = t.heap.AvgRowBytes()
			if t.rowBytes <= 0 {
				t.rowBytes = 64
			}
			return
		}
		if len(t.rows) == 0 {
			t.rowBytes = 64
			return
		}
		sample := len(t.rows)
		if sample > 1024 {
			sample = 1024
		}
		total := 0
		for i := 0; i < sample; i++ {
			total += t.rows[i].ByteSize()
		}
		t.rowBytes = total / sample
		if t.rowBytes == 0 {
			t.rowBytes = 16
		}
	})
	return t.rowBytes
}

// AddIndex registers an index access path on the table.
func (t *Table) AddIndex(meta *IndexMeta) error {
	if meta.Name == "" {
		return fmt.Errorf("storage: index on %s needs a name", t.name)
	}
	if _, dup := t.indexes[meta.Name]; dup {
		return fmt.Errorf("storage: duplicate index %s on %s", meta.Name, t.name)
	}
	col, err := t.schema.ColumnIndex("", meta.Column)
	if err != nil {
		return err
	}
	if col < 0 {
		return fmt.Errorf("storage: index %s: no column %s in %s", meta.Name, meta.Column, t.name)
	}
	meta.Col = col
	t.indexes[meta.Name] = meta
	return nil
}

// IndexOn returns index metadata for an index keyed on the named column,
// or nil when no such index exists. Unique indexes are preferred.
func (t *Table) IndexOn(column string) *IndexMeta {
	var best *IndexMeta
	for _, m := range t.indexes {
		if strings.EqualFold(m.Column, column) {
			if m.Unique {
				return m
			}
			if best == nil {
				best = m
			}
		}
	}
	return best
}

// Indexes returns all registered indexes in name order.
func (t *Table) Indexes() []*IndexMeta {
	names := make([]string, 0, len(t.indexes))
	for n := range t.indexes {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]*IndexMeta, len(names))
	for i, n := range names {
		out[i] = t.indexes[n]
	}
	return out
}

// Catalog is a named collection of tables: the database. A catalog is
// populated at load time (Add) and treated as read-only afterwards; the
// lookup methods are then safe for concurrent use from any number of
// queries.
type Catalog struct {
	tables map[string]*Table
}

// NewCatalog creates an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{tables: make(map[string]*Table)}
}

// Add registers a table. Re-registering a name is an error: the benchmark
// harness builds each database exactly once and shares it across runs.
func (c *Catalog) Add(t *Table) error {
	key := strings.ToLower(t.Name())
	if _, dup := c.tables[key]; dup {
		return fmt.Errorf("storage: table %s already exists", t.Name())
	}
	c.tables[key] = t
	return nil
}

// MustAdd is Add that panics on duplicates, for fixtures.
func (c *Catalog) MustAdd(t *Table) {
	if err := c.Add(t); err != nil {
		panic(err)
	}
}

// Table looks up a table by case-insensitive name. The returned error wraps
// ErrUnknownTable when no such table exists.
func (c *Catalog) Table(name string) (*Table, error) {
	t, ok := c.tables[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("storage: no table named %q: %w", name, ErrUnknownTable)
	}
	return t, nil
}

// Tables returns all tables in name order.
func (c *Catalog) Tables() []*Table {
	names := make([]string, 0, len(c.tables))
	for n := range c.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]*Table, len(names))
	for i, n := range names {
		out[i] = c.tables[n]
	}
	return out
}
