package pager

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"bufferdb/internal/exec"
	"bufferdb/internal/faultinject"
	"bufferdb/internal/storage"
)

// Options configures a Store.
type Options struct {
	// PageSize is the page size in bytes for a newly created store; existing
	// stores always open with the size recorded in their catalog. Zero
	// selects DefaultPageSize.
	PageSize int
	// PoolBytes bounds buffer-pool residency. Zero selects 4 MiB; the floor
	// is 4 frames (a pool that cannot hold a handful of pages cannot make
	// progress).
	PoolBytes int64
	// Mem, when non-nil, is charged with every resident frame, putting the
	// page cache under the same budget as query execution.
	Mem *exec.MemTracker
	// Fault, when non-nil, arms the pager's five injection sites (SiteRead,
	// SiteWrite, SiteFsync, SiteWALAppend, SiteWALFsync).
	Fault *faultinject.Injector
}

// catalogFile is the on-disk catalog (catalog.json), rewritten atomically at
// every checkpoint. Row counts are advisory — the page headers are
// authoritative at open — but LastLSN is load-bearing: it keeps LSNs
// monotonic across restarts even when the log was reset.
type catalogFile struct {
	Version  int            `json:"version"`
	PageSize int            `json:"pageSize"`
	LastLSN  uint64         `json:"lastLSN"`
	Tables   []catalogTable `json:"tables"`
}

type catalogTable struct {
	Name     string          `json:"name"`
	Columns  []catalogColumn `json:"columns"`
	Rows     int             `json:"rows"`
	RowBytes int64           `json:"rowBytes"`
}

type catalogColumn struct {
	Table string `json:"table"`
	Name  string `json:"name"`
	Type  int    `json:"type"`
}

const (
	catalogName    = "catalog.json"
	walName        = "wal.log"
	catalogVersion = 1
)

// tableState is a Store's bookkeeping for one table.
type tableState struct {
	name   string
	schema storage.Schema
	file   *heapFile
	tbl    *storage.Table

	// rowBytes is the cumulative in-memory byte size of all rows, feeding
	// AvgRowBytes for the planner's cost model.
	rowBytes int64
	// tailFree caches the free bytes of the last page; -1 means unknown
	// (computed lazily from the tail page on the first insert).
	tailFree int
}

// Store is one persistent database directory: a catalog, per-table heap
// files, a shared buffer pool and a write-ahead log. Reads (FetchRow and
// cursors, through the storage.Heap adapters) are safe for any number of
// concurrent callers; writes are serialized by the store mutex.
type Store struct {
	dir      string
	pageSize int
	pool     *pool
	wal      *wal

	fsyncFault faultPoint

	mu     sync.Mutex
	tables map[string]*tableState
	wedged error
}

// HasCatalog reports whether dir holds an existing store (a catalog file).
func HasCatalog(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, catalogName))
	return err == nil
}

// Open opens (or creates) the store in dir, running crash recovery: intact
// committed WAL batches are replayed into the pages, the torn tail is
// truncated, and the store checkpoints so it starts clean.
func Open(dir string, opts Options) (*Store, error) {
	if opts.PageSize == 0 {
		opts.PageSize = DefaultPageSize
	}
	if opts.PageSize < MinPageSize || opts.PageSize > MaxPageSize {
		return nil, fmt.Errorf("pager: page size %d outside [%d,%d]", opts.PageSize, MinPageSize, MaxPageSize)
	}
	if opts.PoolBytes == 0 {
		opts.PoolBytes = 4 << 20
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("pager: create data dir: %w", err)
	}

	readF, writeF, fsyncF, walAppendF, walFsyncF := resolveFaults(opts.Fault)

	var cat catalogFile
	data, err := os.ReadFile(filepath.Join(dir, catalogName))
	switch {
	case err == nil:
		if err := json.Unmarshal(data, &cat); err != nil {
			return nil, fmt.Errorf("pager: %w: catalog: %v", ErrCorrupt, err)
		}
		if cat.PageSize != 0 {
			opts.PageSize = cat.PageSize
		}
	case os.IsNotExist(err):
		cat = catalogFile{Version: catalogVersion, PageSize: opts.PageSize}
	default:
		return nil, fmt.Errorf("pager: read catalog: %w", err)
	}

	capFrames := int(opts.PoolBytes / int64(opts.PageSize))
	if capFrames < 4 {
		capFrames = 4
	}

	s := &Store{
		dir:        dir,
		pageSize:   opts.PageSize,
		pool:       newPool(opts.PageSize, capFrames, opts.Mem, readF, writeF),
		fsyncFault: fsyncF,
		tables:     make(map[string]*tableState),
	}

	for _, ct := range cat.Tables {
		schema := make(storage.Schema, len(ct.Columns))
		for i, c := range ct.Columns {
			schema[i] = storage.Column{Table: c.Table, Name: c.Name, Type: storage.Type(c.Type)}
		}
		if err := s.attachTable(ct.Name, schema, ct.RowBytes); err != nil {
			s.closeFiles()
			return nil, err
		}
	}

	w, err := openWAL(filepath.Join(dir, walName), opts.PageSize)
	if err != nil {
		s.closeFiles()
		return nil, err
	}
	w.appendFault, w.syncFault = walAppendF, walFsyncF
	s.wal = w

	if err := s.recover(cat.LastLSN); err != nil {
		s.closeFiles()
		return nil, err
	}
	return s, nil
}

// attachTable opens a table's heap file and registers its state. Caller
// holds the store exclusively (open or the mutex).
func (s *Store) attachTable(name string, schema storage.Schema, rowBytes int64) error {
	path := filepath.Join(s.dir, name+".heap")
	h, err := openHeapFile(path, name, s.pageSize, uint32(len(s.tables)))
	if err != nil {
		return err
	}
	if err := h.loadPageStarts(); err != nil {
		h.close()
		return err
	}
	ts := &tableState{name: name, schema: schema, file: h, rowBytes: rowBytes, tailFree: -1}
	ts.tbl = storage.NewPagedTable(name, schema, &tableHeap{s: s, ts: ts})
	s.tables[name] = ts
	return nil
}

// recover replays the WAL, truncates its torn tail, and checkpoints.
func (s *Store) recover(catalogLSN uint64) error {
	recs, tailOff, err := s.wal.scan()
	if err != nil {
		return err
	}
	maxLSN := catalogLSN
	for _, r := range recs {
		if r.lsn > maxLSN {
			maxLSN = r.lsn
		}
	}
	s.wal.nextLSN = maxLSN + 1

	// Commit-then-apply replay: inserts buffer until their commit record
	// proves the batch durable; a commit-less tail is discarded with the
	// torn bytes.
	var pending []walRecord
	for _, r := range recs {
		switch r.kind {
		case walInsert:
			pending = append(pending, r)
		case walCommit:
			for _, ins := range pending {
				if err := s.replayInsert(ins); err != nil {
					return err
				}
			}
			pending = pending[:0]
		case walCheckpoint:
			// No-op: its LSN already seeded nextLSN above.
		default:
			return fmt.Errorf("pager: %w: wal record type %d", ErrCorrupt, r.kind)
		}
	}
	if err := s.wal.truncateTail(tailOff); err != nil {
		return err
	}
	// Recovery ends with a checkpoint so the reopened store starts clean:
	// replayed pages flushed, catalog rewritten, log reset.
	return s.checkpointLocked()
}

// replayInsert applies one committed WAL insert, idempotently: a page whose
// LSN is at or past the record's was flushed with the row already in it.
func (s *Store) replayInsert(r walRecord) error {
	table, pageID, rowBytes, err := decodeInsertPayload(r.payload)
	if err != nil {
		return err
	}
	ts, ok := s.tables[table]
	if !ok {
		return fmt.Errorf("pager: %w: wal insert into unknown table %q", ErrCorrupt, table)
	}
	row := make(storage.Row, len(ts.schema))
	if err := decodeRow(rowBytes, row, nil); err != nil {
		return fmt.Errorf("pager: wal insert into %s: %w", table, err)
	}
	var fr *frame
	switch {
	case pageID < ts.file.numPages:
		fr, err = s.pool.fetch(ts.file, pageID)
	case pageID == ts.file.numPages:
		fr, err = s.pool.newPage(ts.file, pageID)
		if err == nil {
			ts.file.numPages++
			ts.file.pageStarts = append(ts.file.pageStarts, ts.file.pageStarts[len(ts.file.pageStarts)-1])
		}
	default:
		return fmt.Errorf("pager: %w: wal insert skips to page %d of %d in %s", ErrCorrupt, pageID, ts.file.numPages, table)
	}
	if err != nil {
		return err
	}
	fr.mu.Lock()
	p := page{fr.data}
	applied := false
	if p.lsn() < r.lsn {
		if _, ok := p.appendTuple(rowBytes); !ok {
			fr.mu.Unlock()
			s.pool.unpin(fr, false)
			return fmt.Errorf("pager: %w: replayed row does not fit page %d of %s", ErrCorrupt, pageID, table)
		}
		p.setLSN(r.lsn)
		applied = true
	}
	fr.mu.Unlock()
	s.pool.unpin(fr, applied)
	if applied {
		// The page's first-row index stays correct: replay appends in the
		// original order, so only tail entries move.
		for i := int(pageID) + 1; i < len(ts.file.pageStarts); i++ {
			ts.file.pageStarts[i]++
		}
		ts.rowBytes += int64(row.ByteSize())
		ts.tailFree = -1
	}
	return nil
}

// Tables returns the store's tables as catalog-ready storage.Table values,
// in name order. Their rows stream through the buffer pool.
func (s *Store) Tables() []*storage.Table {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.tables))
	for n := range s.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]*storage.Table, len(names))
	for i, n := range names {
		out[i] = s.tables[n].tbl
	}
	return out
}

// Table returns the named table, or an error wrapping
// storage.ErrUnknownTable.
func (s *Store) Table(name string) (*storage.Table, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ts, ok := s.tables[name]
	if !ok {
		return nil, fmt.Errorf("pager: no table named %q: %w", name, storage.ErrUnknownTable)
	}
	return ts.tbl, nil
}

// PoolStats returns the buffer pool's counters.
func (s *Store) PoolStats() PoolStats { return s.pool.Stats() }

// CreateTable registers a new empty table and durably records it in the
// catalog (WAL inserts reference tables by name, so the catalog entry must
// outlive a crash before any insert commits).
func (s *Store) CreateTable(name string, schema storage.Schema) (*storage.Table, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wedged != nil {
		return nil, s.wedged
	}
	if _, dup := s.tables[name]; dup {
		return nil, fmt.Errorf("pager: table %s already exists", name)
	}
	if err := s.attachTable(name, schema, 0); err != nil {
		return nil, err
	}
	if err := s.writeCatalogLocked(); err != nil {
		return nil, err
	}
	return s.tables[name].tbl, nil
}

// BulkLoad appends rows by writing pages directly, bypassing the WAL and
// the pool — the standard bulk path: if the load fails or the process dies
// before the closing checkpoint, the catalog still records the old row
// count and the recovery checkpoint rewrites it from the page headers.
// Call Checkpoint after the last bulk load to make the data durable.
func (s *Store) BulkLoad(table string, rows []storage.Row) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wedged != nil {
		return s.wedged
	}
	ts, ok := s.tables[table]
	if !ok {
		return fmt.Errorf("pager: no table named %q: %w", table, storage.ErrUnknownTable)
	}
	if ts.file.numRows() > 0 || ts.file.numPages > 0 {
		return fmt.Errorf("pager: bulk load into non-empty table %s", table)
	}

	// A failed load truncates the file back to empty: the bookkeeping below
	// only adopts the pages on success, and orphan pages past the recorded
	// count would otherwise be readopted as live rows by the next open.
	fail := func(err error) error {
		_ = ts.file.f.Truncate(0)
		ts.rowBytes = 0
		return err
	}

	buf := make([]byte, s.pageSize)
	p := initPage(buf)
	pageID := uint32(0)
	inPage := 0
	starts := []int{0}
	flush := func() error {
		if err := ts.file.writePage(pageID, buf, s.pool.writeFault); err != nil {
			return fail(err)
		}
		starts = append(starts, starts[len(starts)-1]+inPage)
		pageID++
		inPage = 0
		p = initPage(buf)
		return nil
	}

	var enc []byte
	for i, r := range rows {
		if len(r) != len(ts.schema) {
			return fail(fmt.Errorf("pager: bulk load %s: row %d arity %d != schema arity %d", table, i, len(r), len(ts.schema)))
		}
		enc = appendRow(enc[:0], r)
		if len(enc) > maxTupleBytes(s.pageSize) {
			return fail(fmt.Errorf("pager: bulk load %s: row %d (%d bytes) exceeds page capacity %d", table, i, len(enc), maxTupleBytes(s.pageSize)))
		}
		if _, ok := p.appendTuple(enc); !ok {
			if err := flush(); err != nil {
				return err
			}
			p.appendTuple(enc)
		}
		inPage++
		ts.rowBytes += int64(r.ByteSize())
	}
	if inPage > 0 {
		if err := flush(); err != nil {
			return err
		}
	}
	if err := ts.file.sync(s.fsyncFault); err != nil {
		return fail(err)
	}
	ts.file.numPages = pageID
	ts.file.pageStarts = starts
	ts.tailFree = -1
	return nil
}

// Insert durably appends rows to a table. The batch is atomic: every row's
// WAL record plus one commit record reach disk (one write, one fsync)
// before any page is touched, so a crash either replays the whole batch or
// discards it.
func (s *Store) Insert(table string, rows []storage.Row) error {
	if len(rows) == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wedged != nil {
		return s.wedged
	}
	ts, ok := s.tables[table]
	if !ok {
		return fmt.Errorf("pager: no table named %q: %w", table, storage.ErrUnknownTable)
	}

	// The tail page's free space decides placement; compute it lazily.
	if ts.tailFree < 0 {
		if ts.file.numPages == 0 {
			ts.tailFree = 0
		} else {
			fr, err := s.pool.fetch(ts.file, ts.file.numPages-1)
			if err != nil {
				return err
			}
			fr.mu.RLock()
			ts.tailFree = page{fr.data}.freeSpace()
			fr.mu.RUnlock()
			s.pool.unpin(fr, false)
		}
	}

	// Validate and encode every row BEFORE staging anything in the log: an
	// error below must leave wal.buf empty, or the orphan records of the
	// failed batch would be written ahead of the next successful batch's
	// commit record and replayed as if they had committed.
	encs := make([][]byte, len(rows))
	for i, r := range rows {
		if len(r) != len(ts.schema) {
			return fmt.Errorf("pager: insert %s: row %d arity %d != schema arity %d", table, i, len(r), len(ts.schema))
		}
		enc := appendRow(nil, r)
		if len(enc) > maxTupleBytes(s.pageSize) {
			return fmt.Errorf("pager: insert %s: row %d (%d bytes) exceeds page capacity %d", table, i, len(enc), maxTupleBytes(s.pageSize))
		}
		encs[i] = enc
	}

	// Plan placements and stage WAL records; nothing is applied yet and no
	// fallible step separates the first append from the flush, so a failed
	// commit leaves both the store and the log buffer untouched.
	type placement struct {
		pageID uint32
		enc    []byte
		lsn    uint64
	}
	plans := make([]placement, 0, len(rows))
	numPages := ts.file.numPages
	tailFree := ts.tailFree
	for _, enc := range encs {
		need := len(enc) + slotSize
		var pageID uint32
		if numPages == 0 || tailFree < need {
			pageID = numPages
			numPages++
			tailFree = s.pageSize - pageHeaderSize - slotSize
		} else {
			pageID = numPages - 1
		}
		tailFree -= need
		lsn := s.wal.append(walInsert, insertPayload(table, pageID, enc))
		plans = append(plans, placement{pageID: pageID, enc: enc, lsn: lsn})
	}
	s.wal.append(walCommit, nil)
	if err := s.wal.flush(); err != nil {
		if s.wal.poisoned {
			return s.wedge(fmt.Errorf("pager: insert %s: commit failed and log rollback failed (reopen to recover): %w", table, err))
		}
		return err
	}

	// Commit is durable; apply to the pages. A failure past this point
	// (injected I/O fault on a pool miss or eviction writeback) wedges the
	// store: the data is safe in the log and the next Open replays it, but
	// this process's in-memory state no longer matches the pages.
	for _, pl := range plans {
		var (
			fr  *frame
			err error
		)
		if pl.pageID == ts.file.numPages {
			fr, err = s.pool.newPage(ts.file, pl.pageID)
			if err == nil {
				ts.file.numPages++
				ts.file.pageStarts = append(ts.file.pageStarts, ts.file.pageStarts[len(ts.file.pageStarts)-1])
			}
		} else {
			fr, err = s.pool.fetch(ts.file, pl.pageID)
		}
		if err != nil {
			return s.wedge(fmt.Errorf("pager: insert %s committed but not applied (reopen to recover): %w", table, err))
		}
		fr.mu.Lock()
		p := page{fr.data}
		_, ok := p.appendTuple(pl.enc)
		if ok {
			p.setLSN(pl.lsn)
		}
		fr.mu.Unlock()
		s.pool.unpin(fr, ok)
		if !ok {
			return s.wedge(fmt.Errorf("pager: insert %s: planned row does not fit page %d", table, pl.pageID))
		}
		ts.file.pageStarts[len(ts.file.pageStarts)-1]++
	}
	for _, r := range rows {
		ts.rowBytes += int64(r.ByteSize())
	}
	ts.tailFree = tailFree
	return nil
}

// wedge marks the store failed between a durable commit and its in-memory
// application; every subsequent write refuses until the store is reopened
// (which replays the log and reconverges).
func (s *Store) wedge(err error) error {
	s.wedged = err
	return err
}

// Checkpoint makes everything durable and resets the log: flush dirty
// pages, fsync the heaps, atomically rewrite the catalog (carrying the LSN
// high-water mark), truncate the WAL.
func (s *Store) Checkpoint() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wedged != nil {
		return s.wedged
	}
	return s.checkpointLocked()
}

func (s *Store) checkpointLocked() error {
	for _, ts := range s.tables {
		if err := s.pool.flushFile(ts.file); err != nil {
			return err
		}
		if err := ts.file.sync(s.fsyncFault); err != nil {
			return err
		}
	}
	if err := s.writeCatalogLocked(); err != nil {
		return err
	}
	if err := s.wal.reset(); err != nil {
		return err
	}
	// Re-seed the log with a checkpoint record so even a catalog lost to a
	// later crash cannot roll LSNs back below the pages' stamps.
	s.wal.append(walCheckpoint, nil)
	if err := s.wal.flush(); err != nil {
		if s.wal.poisoned {
			return s.wedge(fmt.Errorf("pager: checkpoint record flush failed and log rollback failed (reopen to recover): %w", err))
		}
		return err
	}
	metricCheckpoints().Inc()
	return nil
}

// writeCatalogLocked rewrites catalog.json atomically (tmp + fsync +
// rename).
func (s *Store) writeCatalogLocked() error {
	cat := catalogFile{Version: catalogVersion, PageSize: s.pageSize, LastLSN: 0, Tables: make([]catalogTable, 0, len(s.tables))}
	if s.wal != nil {
		cat.LastLSN = s.wal.nextLSN - 1
	}
	names := make([]string, 0, len(s.tables))
	for n := range s.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		ts := s.tables[n]
		ct := catalogTable{Name: n, Rows: ts.file.numRows(), RowBytes: ts.rowBytes}
		for _, c := range ts.schema {
			ct.Columns = append(ct.Columns, catalogColumn{Table: c.Table, Name: c.Name, Type: int(c.Type)})
		}
		cat.Tables = append(cat.Tables, ct)
	}
	data, err := json.MarshalIndent(cat, "", "  ")
	if err != nil {
		return fmt.Errorf("pager: encode catalog: %w", err)
	}
	tmp := filepath.Join(s.dir, catalogName+".tmp")
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("pager: write catalog: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("pager: write catalog: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("pager: fsync catalog: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("pager: close catalog: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, catalogName)); err != nil {
		return fmt.Errorf("pager: install catalog: %w", err)
	}
	return nil
}

// Close checkpoints (unless wedged) and releases every resource. The pool's
// memory charge drains to zero even on a failed checkpoint.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var firstErr error
	if s.wedged == nil {
		firstErr = s.checkpointLocked()
	}
	if err := s.closeFiles(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// CloseAbrupt releases resources WITHOUT checkpointing or flushing — pool
// contents (dirty pages included) are dropped on the floor. It simulates a
// crash for the recovery tests: everything not yet on disk is lost,
// everything the WAL committed must survive a subsequent Open.
func (s *Store) CloseAbrupt() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closeFiles()
}

// closeFiles tears down pool, WAL and heap files. Idempotent enough for the
// open-failure paths (nil wal, partially attached tables).
func (s *Store) closeFiles() error {
	var firstErr error
	if s.pool != nil {
		s.pool.close()
	}
	if s.wal != nil {
		if err := s.wal.close(); err != nil && firstErr == nil {
			firstErr = err
		}
		s.wal = nil
	}
	for _, ts := range s.tables {
		if err := ts.file.close(); err != nil && firstErr == nil {
			firstErr = err
		}
		ts.tbl.DropSamples()
	}
	s.tables = make(map[string]*tableState)
	return firstErr
}

// tableHeap adapts one table's pages to storage.Heap, which is how the
// executor's scans and the planner's samplers reach disk-backed rows.
type tableHeap struct {
	s  *Store
	ts *tableState
}

// NumRows implements storage.Heap.
func (h *tableHeap) NumRows() int {
	h.s.mu.Lock()
	defer h.s.mu.Unlock()
	return h.ts.file.numRows()
}

// AvgRowBytes implements storage.Heap.
func (h *tableHeap) AvgRowBytes() int {
	h.s.mu.Lock()
	defer h.s.mu.Unlock()
	n := h.ts.file.numRows()
	if n == 0 {
		return 0
	}
	return int(h.ts.rowBytes / int64(n))
}

// FetchRow implements storage.Heap: one pinned page, one decoded row. The
// returned row owns its memory (decode copies), so it stays valid after the
// page is unpinned or even evicted.
func (h *tableHeap) FetchRow(rid int) (storage.Row, error) {
	pageID, slot, err := h.locate(rid)
	if err != nil {
		return nil, err
	}
	fr, err := h.s.pool.fetch(h.ts.file, pageID)
	if err != nil {
		return nil, err
	}
	row := make(storage.Row, len(h.ts.schema))
	fr.mu.RLock()
	err = h.decodeSlot(page{fr.data}, int(pageID), slot, nil, row)
	fr.mu.RUnlock()
	h.s.pool.unpin(fr, false)
	if err != nil {
		return nil, err
	}
	return row, nil
}

// locate maps a rid to its page and slot, refusing on a wedged store: it
// stopped mid-apply, so some pages of a committed batch carry its rows and
// others don't, and readers would observe the torn batch until the process
// reopens the store.
func (h *tableHeap) locate(rid int) (pageID uint32, slot int, err error) {
	h.s.mu.Lock()
	defer h.s.mu.Unlock()
	if err := h.s.wedged; err != nil {
		return 0, 0, err
	}
	return h.ts.file.pageOf(rid)
}

// decodeSlot decodes one slot of a page of this table; every failure names
// where the bytes are.
func (h *tableHeap) decodeSlot(p page, pageID, slot int, need []bool, dst storage.Row) error {
	tup, err := p.tuple(slot)
	if err == nil {
		err = decodeRow(tup, dst, need)
	}
	if err != nil {
		return fmt.Errorf("pager: %s page %d slot %d: %w", h.ts.name, pageID, slot, err)
	}
	return nil
}

// ReadPage implements storage.Heap: the page is pinned only for the copy,
// so a pool holding a fraction of the table still serves any number of
// cursors — pages wash through the pool as the scans advance, and a cursor
// that is never drained strands nothing.
func (h *tableHeap) ReadPage(rid int, img *storage.PageImage) error {
	pageID, slot, err := h.locate(rid)
	if err != nil {
		return err
	}
	fr, err := h.s.pool.fetch(h.ts.file, pageID)
	if err != nil {
		return err
	}
	fr.mu.RLock()
	img.Data = append(img.Data[:0], fr.data...)
	fr.mu.RUnlock()
	h.s.pool.unpin(fr, false)
	img.ID, img.First, img.Rows = int(pageID), rid-slot, page{img.Data}.slotCount()
	if slot >= img.Rows {
		return fmt.Errorf("pager: %w: %s page %d holds %d rows, index expects row %d at slot %d",
			ErrCorrupt, h.ts.name, pageID, img.Rows, rid, slot)
	}
	return nil
}

// DecodeSlot implements storage.Heap.
func (h *tableHeap) DecodeSlot(img *storage.PageImage, slot int, need []bool, dst storage.Row) error {
	return h.decodeSlot(page{img.Data}, img.ID, slot, need, dst)
}
