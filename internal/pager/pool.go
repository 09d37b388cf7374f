package pager

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"bufferdb/internal/exec"
	"bufferdb/internal/obsv"
)

// ErrPoolExhausted is the sentinel wrapped when a page fetch finds every
// frame pinned — more concurrent scans than frames. Raising PoolBytes (or
// lowering admission concurrency) resolves it; the error is typed so
// callers can tell configuration pressure from corruption.
var ErrPoolExhausted = errors.New("buffer pool exhausted (all frames pinned)")

// Process-wide pager counters, next to the engine's simulated-cache
// metrics — the paper buffers tuples to keep instructions cache-resident,
// this tier buffers pages to keep data resident, and both report through
// the same registry.
func metricHits() *obsv.Counter      { return obsv.Default.Counter("bufferdb_pager_hits_total") }
func metricMisses() *obsv.Counter    { return obsv.Default.Counter("bufferdb_pager_misses_total") }
func metricEvictions() *obsv.Counter { return obsv.Default.Counter("bufferdb_pager_evictions_total") }
func metricWritebacks() *obsv.Counter {
	return obsv.Default.Counter("bufferdb_pager_dirty_writebacks_total")
}
func metricCheckpoints() *obsv.Counter {
	return obsv.Default.Counter("bufferdb_pager_checkpoints_total")
}

// frame is one resident page. The pool mutex guards pins, dirty, residency
// and the recency links; mu guards the page bytes. Lock order is pool.mu →
// frame.mu; readers must release mu before calling Unpin (which takes
// pool.mu).
//
// mu doubles as the I/O latch: a loader publishes the frame with mu held
// exclusively, fills it from disk without the pool mutex, and releases mu
// only when data (or loadErr) is final — so concurrent fetchers of the same
// page block on the frame, not on the pool.
type frame struct {
	file *heapFile
	id   uint32
	key  uint64

	mu      sync.RWMutex
	data    []byte
	loadErr error // set under mu by a failed loader; frame is stillborn

	pins  int
	dirty bool
	// prev and next thread the pool's recency list: prev toward the most
	// recently used frame, next toward the least.
	prev, next *frame
}

// pool is the buffer pool: a bounded set of page frames shared by every
// table of a store. A miss in a full pool evicts the least recently used
// unpinned frame. Resident bytes are charged against the attached
// MemTracker, so when the tracker descends from the database's process
// tracker, page cache and query execution compete under one memory budget.
type pool struct {
	pageSize  int
	capFrames int
	mem       *exec.MemTracker

	readFault  faultPoint
	writeFault faultPoint

	mu     sync.Mutex
	frames map[uint64]*frame
	// head is the most recently used resident frame, tail the least.
	head, tail *frame
	closed     bool

	hits       atomic.Uint64
	misses     atomic.Uint64
	evictions  atomic.Uint64
	writebacks atomic.Uint64
}

// PoolStats is a snapshot of one pool's traffic counters.
type PoolStats struct {
	Hits, Misses, Evictions, Writebacks uint64
	ResidentPages                       int
}

// newPool sizes a pool at capFrames frames of pageSize bytes.
func newPool(pageSize, capFrames int, mem *exec.MemTracker, read, write faultPoint) *pool {
	return &pool{
		pageSize:   pageSize,
		capFrames:  capFrames,
		mem:        mem,
		readFault:  read,
		writeFault: write,
		frames:     make(map[uint64]*frame),
	}
}

// frameKey composes the residency key for a page.
func frameKey(h *heapFile, id uint32) uint64 {
	return uint64(h.ord)<<32 | uint64(id)
}

// Stats returns the pool's counters.
func (p *pool) Stats() PoolStats {
	p.mu.Lock()
	resident := len(p.frames)
	p.mu.Unlock()
	return PoolStats{
		Hits:          p.hits.Load(),
		Misses:        p.misses.Load(),
		Evictions:     p.evictions.Load(),
		Writebacks:    p.writebacks.Load(),
		ResidentPages: resident,
	}
}

// fetch pins the page, reading it from disk on a miss (possibly evicting a
// victim first). The caller must Unpin exactly once. Disk I/O — the miss
// read and any dirty-victim writeback — happens outside the pool mutex, so
// concurrent scans overlap their I/O and hits on resident pages never wait
// behind another scan's miss.
func (p *pool) fetch(h *heapFile, id uint32) (*frame, error) {
	key := frameKey(h, id)
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, fmt.Errorf("pager: pool is closed")
	}
	if fr, ok := p.frames[key]; ok {
		fr.pins++
		p.touchLocked(fr)
		p.mu.Unlock()
		p.hits.Add(1)
		metricHits().Inc()
		return p.settleLoad(fr)
	}
	p.misses.Add(1)
	metricMisses().Inc()
	fr, err := p.allocFrameLocked()
	if err != nil {
		p.mu.Unlock()
		return nil, err
	}
	// allocFrameLocked may have released the mutex for a writeback; the pool
	// may have closed, or a concurrent fetch may have loaded the page.
	if p.closed {
		p.releaseFrameLocked()
		p.mu.Unlock()
		return nil, fmt.Errorf("pager: pool is closed")
	}
	if cur, ok := p.frames[key]; ok {
		cur.pins++
		p.touchLocked(cur)
		p.releaseFrameLocked()
		p.mu.Unlock()
		return p.settleLoad(cur)
	}
	fr.file, fr.id, fr.key, fr.pins = h, id, key, 1
	fr.mu.Lock() // I/O latch: held until the read below settles
	p.frames[key] = fr
	p.touchLocked(fr)
	p.mu.Unlock()

	err = h.readPage(id, fr.data, p.readFault)
	fr.loadErr = err
	fr.mu.Unlock()
	if err != nil {
		// Unpublish the stillborn frame and return its memory charge.
		// Concurrent fetchers that pinned it meanwhile observe loadErr and
		// unpin their orphan (unpin never consults the residency map). The
		// loader's pin kept the frame from being evicted, but close empties
		// the map regardless of pins and returns every charge itself —
		// hence the re-check.
		p.mu.Lock()
		if cur, ok := p.frames[key]; ok && cur == fr {
			p.unlinkLocked(fr)
			delete(p.frames, key)
			p.releaseFrameLocked()
		}
		p.mu.Unlock()
		return nil, err
	}
	return fr, nil
}

// settleLoad waits out any in-flight load of a frame the caller just
// pinned: acquiring the read latch blocks until the loader releases it. On
// a failed load the pin is released and the loader's error returned.
func (p *pool) settleLoad(fr *frame) (*frame, error) {
	fr.mu.RLock()
	err := fr.loadErr
	fr.mu.RUnlock()
	if err != nil {
		p.unpin(fr, false)
		return nil, err
	}
	return fr, nil
}

// newPage pins a freshly formatted page for h at page id, which must be
// h.numPages at the time of the call (the store serializes appenders).
func (p *pool) newPage(h *heapFile, id uint32) (*frame, error) {
	key := frameKey(h, id)
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, fmt.Errorf("pager: pool is closed")
	}
	if _, ok := p.frames[key]; ok {
		return nil, fmt.Errorf("pager: page %s/%d already resident", h.table, id)
	}
	fr, err := p.allocFrameLocked()
	if err != nil {
		return nil, err
	}
	// allocFrameLocked may have released the mutex for a writeback. The
	// store serializes appenders, so no one else can have created this page,
	// but the pool may have closed under us.
	if p.closed {
		p.releaseFrameLocked()
		return nil, fmt.Errorf("pager: pool is closed")
	}
	initPage(fr.data)
	fr.file, fr.id, fr.key, fr.pins, fr.dirty = h, id, key, 1, true
	p.frames[key] = fr
	p.touchLocked(fr)
	return fr, nil
}

// unpin releases one pin; dirty marks the page modified since its last
// write to disk.
func (p *pool) unpin(fr *frame, dirty bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	fr.pins--
	if dirty {
		fr.dirty = true
	}
}

// allocFrameLocked returns an unpublished, unpinned, clean frame for a new
// page: a fresh charged allocation below capacity; at capacity the victim
// itself, buffer and all — nobody holds an unpinned frame, so a miss in a
// full pool allocates nothing. Dirty victims are written back first —
// WITHOUT the pool mutex, which this releases and re-acquires around the
// I/O (the victim stays pinned and resident meanwhile, so no concurrent
// fetch can evict it or miss its dirty bytes). A failed writeback aborts
// the allocation with the victim still resident and intact. Callers must
// re-validate any map state examined before the call.
func (p *pool) allocFrameLocked() (*frame, error) {
	for {
		if p.closed {
			return nil, fmt.Errorf("pager: pool is closed")
		}
		if len(p.frames) < p.capFrames {
			if err := p.mem.Grow(int64(p.pageSize)); err != nil {
				return nil, err
			}
			return &frame{data: make([]byte, p.pageSize)}, nil
		}
		victim := p.tail
		for victim != nil && victim.pins > 0 {
			victim = victim.prev
		}
		if victim == nil {
			return nil, fmt.Errorf("pager: %w: %d frames", ErrPoolExhausted, p.capFrames)
		}
		if victim.dirty {
			victim.pins++
			victim.dirty = false // a write during our writeback re-marks it
			p.mu.Unlock()
			err := p.writeback(victim)
			p.mu.Lock()
			victim.pins--
			if err != nil {
				victim.dirty = true
				return nil, err
			}
			if p.closed || victim.pins > 0 || victim.dirty {
				// Closed (which returned the victim's charge), re-pinned or
				// re-dirtied while we wrote: start over.
				continue
			}
		}
		p.unlinkLocked(victim)
		delete(p.frames, victim.key)
		p.evictions.Add(1)
		metricEvictions().Inc()
		// The victim's buffer carries its memory charge to the new page.
		victim.loadErr = nil
		return victim, nil
	}
}

// touchLocked makes fr the most recently used frame, linking it into the
// recency list if it is being published.
func (p *pool) touchLocked(fr *frame) {
	if p.head == fr {
		return
	}
	if fr.prev != nil {
		p.unlinkLocked(fr)
	}
	fr.next = p.head
	if p.head != nil {
		p.head.prev = fr
	}
	p.head = fr
	if p.tail == nil {
		p.tail = fr
	}
}

// unlinkLocked takes a published frame off the recency list.
func (p *pool) unlinkLocked(fr *frame) {
	if fr.prev != nil {
		fr.prev.next = fr.next
	} else {
		p.head = fr.next
	}
	if fr.next != nil {
		fr.next.prev = fr.prev
	} else {
		p.tail = fr.prev
	}
	fr.prev, fr.next = nil, nil
}

// releaseFrameLocked returns the memory charge of a frame that never
// materialized (lost race, failed read); the frame itself is dropped.
func (p *pool) releaseFrameLocked() {
	p.mem.Shrink(int64(p.pageSize))
}

// writeback writes one frame to its file. The frame lock is taken
// exclusively because sealing stamps the checksum into the header. It does
// NOT clear the dirty flag — that belongs to the pool mutex, which callers
// manage (eviction clears it optimistically before the write; flushFile
// clears it after).
func (p *pool) writeback(fr *frame) error {
	fr.mu.Lock()
	err := fr.file.writePage(fr.id, fr.data, p.writeFault)
	fr.mu.Unlock()
	if err != nil {
		return err
	}
	p.writebacks.Add(1)
	metricWritebacks().Inc()
	return nil
}

// flushFile writes back every dirty resident page of h, in page order for
// deterministic I/O patterns.
func (p *pool) flushFile(h *heapFile) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	var dirty []*frame
	for _, fr := range p.frames {
		if fr.file == h && fr.dirty {
			dirty = append(dirty, fr)
		}
	}
	sort.Slice(dirty, func(i, j int) bool { return dirty[i].id < dirty[j].id })
	for _, fr := range dirty {
		if err := p.writeback(fr); err != nil {
			return err
		}
		fr.dirty = false
	}
	return nil
}

// close releases every frame and its memory charge. Dirty pages are NOT
// written — Close-with-durability is the store's checkpoint; close alone
// models a crash (which is exactly what the recovery tests exploit).
func (p *pool) close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	p.closed = true
	n := len(p.frames)
	for key, fr := range p.frames {
		p.unlinkLocked(fr)
		delete(p.frames, key)
	}
	p.mem.Shrink(int64(n) * int64(p.pageSize))
}
