package cpusim

// TLB is a fully-associative translation lookaside buffer with LRU
// replacement, used for the instruction TLB. A page→entry index makes a
// lookup O(1), and an intrusive recency list over the entries makes the
// victim O(1): the list starts in index order, so empty entries fill from
// index 0 up and, once all are full, the victim is the least recently used
// — the lowest index with the least last use, as a scan would pick.
// Callers additionally short-circuit repeated accesses to the same page.
type TLB struct {
	pageBits uint
	pages    []uint64         // +1 offset, 0 = empty
	slot     map[uint64]int32 // installed page (+1) → its entry
	// prev and next link the entries from the most recently used (head)
	// to the least (tail); -1 ends the list.
	prev, next []int32
	head, tail int32

	hits   uint64
	misses uint64
}

// NewTLB builds a TLB with the given entry count and page size.
func NewTLB(entries, pageBytes int) *TLB {
	bits := uint(0)
	for 1<<bits < pageBytes {
		bits++
	}
	t := &TLB{
		pageBits: bits,
		pages:    make([]uint64, entries),
		slot:     make(map[uint64]int32, entries),
		prev:     make([]int32, entries),
		next:     make([]int32, entries),
	}
	t.Reset()
	return t
}

// Access translates addr, returning true on a TLB hit. Misses install the
// page, evicting the LRU entry.
func (t *TLB) Access(addr uint64) bool {
	page := (addr >> t.pageBits) + 1
	if i, ok := t.slot[page]; ok {
		t.touch(i)
		t.hits++
		return true
	}
	victim := t.tail
	if old := t.pages[victim]; old != 0 {
		delete(t.slot, old)
	}
	t.pages[victim] = page
	t.slot[page] = victim
	t.touch(victim)
	t.misses++
	return false
}

// touch moves entry i to the head of the recency list.
func (t *TLB) touch(i int32) {
	if i == t.head {
		return
	}
	p, n := t.prev[i], t.next[i]
	t.next[p] = n // i is not the head, so it has a predecessor
	if n >= 0 {
		t.prev[n] = p
	} else {
		t.tail = p
	}
	t.prev[i], t.next[i] = -1, t.head
	t.prev[t.head] = i
	t.head = i
}

// PageOf returns the page number containing addr.
func (t *TLB) PageOf(addr uint64) uint64 { return addr >> t.pageBits }

// Hits returns the hit count.
func (t *TLB) Hits() uint64 { return t.hits }

// Misses returns the miss count.
func (t *TLB) Misses() uint64 { return t.misses }

// Reset clears contents and counters and lays the recency list out in
// index order: entry 0 least recently used, the last entry most.
func (t *TLB) Reset() {
	clear(t.slot)
	t.hits, t.misses = 0, 0
	n := int32(len(t.pages))
	if n == 0 {
		return
	}
	for i := int32(0); i < n; i++ {
		t.pages[i] = 0
		t.prev[i], t.next[i] = i+1, i-1
	}
	t.prev[n-1] = -1
	t.head, t.tail = n-1, 0
}
