package cpusim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func mustCache(t *testing.T, size, line, ways int) *Cache {
	t.Helper()
	c, err := NewCache(CacheConfig{Name: "t", SizeBytes: size, LineBytes: line, Ways: ways})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCacheConfigValidate(t *testing.T) {
	bad := []CacheConfig{
		{Name: "zero", SizeBytes: 0, LineBytes: 64, Ways: 4},
		{Name: "negways", SizeBytes: 1024, LineBytes: 64, Ways: -1},
		{Name: "indivisible", SizeBytes: 1000, LineBytes: 64, Ways: 4},
		{Name: "npot-line", SizeBytes: 4096, LineBytes: 48, Ways: 4},
		{Name: "npot-sets", SizeBytes: 64 * 3 * 64, LineBytes: 64, Ways: 64},
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %s accepted", cfg.Name)
		}
	}
	good := CacheConfig{Name: "ok", SizeBytes: 16 << 10, LineBytes: 64, Ways: 4}
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestCacheHitAfterMiss(t *testing.T) {
	c := mustCache(t, 1024, 64, 2)
	if c.Access(0x1000) {
		t.Error("cold access hit")
	}
	if !c.Access(0x1000) {
		t.Error("second access missed")
	}
	// Same line, different offset.
	if !c.Access(0x103f) {
		t.Error("same-line access missed")
	}
	// Next line misses.
	if c.Access(0x1040) {
		t.Error("different line hit")
	}
	if c.Hits() != 2 || c.Misses() != 2 {
		t.Errorf("hits=%d misses=%d", c.Hits(), c.Misses())
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// 2-way cache, 8 sets of 64-byte lines: addresses that differ by
	// 8*64=512 map to the same set.
	c := mustCache(t, 1024, 64, 2)
	const stride = 512
	a, b, d := uint64(0), uint64(stride), uint64(2*stride)
	c.Access(a)
	c.Access(b)
	if !c.Contains(a) || !c.Contains(b) {
		t.Fatal("fill failed")
	}
	c.Access(a) // make b the LRU
	c.Access(d) // evicts b
	if !c.Contains(a) {
		t.Error("LRU evicted the MRU line")
	}
	if c.Contains(b) {
		t.Error("LRU line not evicted")
	}
	if !c.Contains(d) {
		t.Error("newly inserted line missing")
	}
}

func TestCacheCapacityThrash(t *testing.T) {
	// Cyclic access over a working set larger than the cache misses every
	// time under LRU — the instruction-thrashing mechanism in miniature.
	c := mustCache(t, 1024, 64, 4)
	lines := 1024/64 + 4 // 20 lines over a 16-line cache
	for round := 0; round < 10; round++ {
		for i := 0; i < lines; i++ {
			c.Access(uint64(i * 64))
		}
	}
	if c.Hits() != 0 {
		t.Errorf("cyclic overflow working set got %d hits, want 0", c.Hits())
	}
	// The same set shrunk to fit the cache hits after the first round.
	c.Reset()
	lines = 8
	for round := 0; round < 10; round++ {
		for i := 0; i < lines; i++ {
			c.Access(uint64(i * 64))
		}
	}
	if got := c.Misses(); got != 8 {
		t.Errorf("resident working set missed %d times, want 8 cold misses", got)
	}
}

func TestCacheReset(t *testing.T) {
	c := mustCache(t, 1024, 64, 2)
	c.Access(0x40)
	c.Reset()
	if c.Hits() != 0 || c.Misses() != 0 {
		t.Error("counters survive Reset")
	}
	if c.Contains(0x40) {
		t.Error("contents survive Reset")
	}
}

// Property: a working set of distinct lines no larger than one way per set
// never misses after the first pass, for any alignment.
func TestCacheResidencyProperty(t *testing.T) {
	f := func(base uint32, n uint8) bool {
		c, err := NewCache(CacheConfig{Name: "p", SizeBytes: 8192, LineBytes: 64, Ways: 4})
		if err != nil {
			return false
		}
		lines := int(n%32) + 1 // ≤ 32 lines in a 128-line cache
		for pass := 0; pass < 3; pass++ {
			for i := 0; i < lines; i++ {
				c.Access(uint64(base) + uint64(i*64))
			}
		}
		return c.Misses() == uint64(lines)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestTLB(t *testing.T) {
	tlb := NewTLB(2, 4096)
	if tlb.Access(0x1000) {
		t.Error("cold TLB hit")
	}
	if !tlb.Access(0x1fff) {
		t.Error("same-page access missed")
	}
	tlb.Access(0x2000)
	tlb.Access(0x1000) // page 1 MRU again
	tlb.Access(0x5000) // evicts page 2
	if !tlb.Access(0x1000) {
		t.Error("MRU page evicted")
	}
	if tlb.Access(0x2000) {
		t.Error("LRU page not evicted")
	}
	if tlb.PageOf(0x2fff) != 2 {
		t.Errorf("PageOf = %d", tlb.PageOf(0x2fff))
	}
	tlb.Reset()
	if tlb.Hits() != 0 || tlb.Misses() != 0 {
		t.Error("TLB counters survive Reset")
	}
}

func TestBranchPredictorLearnsBias(t *testing.T) {
	p := NewBranchPredictor(10, 0)
	const pc = 0x4400
	for i := 0; i < 100; i++ {
		p.Branch(pc, true)
	}
	if p.Branches() != 100 {
		t.Fatalf("branches = %d", p.Branches())
	}
	// A always-taken branch mispredicts at most twice while warming up.
	if p.Mispredicts() > 2 {
		t.Errorf("biased branch mispredicted %d times", p.Mispredicts())
	}
}

func TestBranchPredictorAlternationHurts(t *testing.T) {
	// The caller-mixing effect: one site, outcomes alternating per call
	// (as when two operators interleave through a shared function) versus
	// the same outcomes delivered in long runs (as under buffering).
	run := func(outcomes []bool) uint64 {
		p := NewBranchPredictor(12, 0)
		for _, o := range outcomes {
			p.Branch(0x4400, o)
		}
		return p.Mispredicts()
	}
	n := 2048
	alternating := make([]bool, n)
	batched := make([]bool, n)
	for i := range alternating {
		alternating[i] = i%2 == 0
		batched[i] = i < n/2
	}
	a, b := run(alternating), run(batched)
	if a <= 4*b {
		t.Errorf("alternating mispredicts (%d) not ≫ batched (%d)", a, b)
	}
}

func TestStreamPrefetcher(t *testing.T) {
	p := NewStreamPrefetcher(4)
	if p.Covered(100) {
		t.Error("first access covered")
	}
	for l := uint64(101); l < 120; l++ {
		if !p.Covered(l) {
			t.Errorf("sequential line %d not covered", l)
		}
	}
	// A random access is not covered…
	if p.Covered(9000) {
		t.Error("random access covered")
	}
	// …and neither is a descending stream.
	if p.Covered(8999) {
		t.Error("descending access covered")
	}
	if p.Hits() != 19 {
		t.Errorf("stream hits = %d", p.Hits())
	}
	// Multiple interleaved streams are tracked.
	p.Reset()
	p.Covered(1000)
	p.Covered(2000)
	p.Covered(3000)
	if !p.Covered(1001) || !p.Covered(2001) || !p.Covered(3001) {
		t.Error("interleaved streams lost")
	}
}

// scanTLB is the TLB as a linear scan: the reference the indexed TLB must
// match access for access. Its victim is the lowest index with the least
// last use.
type scanTLB struct {
	pages, lastUse []uint64
	clock          uint64
}

func (t *scanTLB) access(page uint64) bool {
	page++
	t.clock++
	lru, lruUse := 0, t.lastUse[0]
	for i, p := range t.pages {
		if p == page {
			t.lastUse[i] = t.clock
			return true
		}
		if t.lastUse[i] < lruUse {
			lru, lruUse = i, t.lastUse[i]
		}
	}
	t.pages[lru], t.lastUse[lru] = page, t.clock
	return false
}

// TestTLBMatchesScan drives the indexed TLB and the scan with one random
// page stream, through a Reset, and requires the same hit or miss, and the
// same page in every entry, after each access.
func TestTLBMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, entries := range []int{1, 2, 7, 58} {
		tlb := NewTLB(entries, 4096)
		ref := &scanTLB{pages: make([]uint64, entries), lastUse: make([]uint64, entries)}
		for step := 0; step < 20000; step++ {
			if step == 10000 {
				tlb.Reset()
				ref = &scanTLB{pages: make([]uint64, entries), lastUse: make([]uint64, entries)}
			}
			// A working set a little larger than the TLB, so it both hits
			// and evicts.
			page := uint64(rng.Intn(entries + entries/4 + 2))
			if got, want := tlb.Access(page<<12|uint64(rng.Intn(4096))), ref.access(page); got != want {
				t.Fatalf("%d entries, step %d: page %d hit %v, scan says %v", entries, step, page, got, want)
			}
			for i := range ref.pages {
				if tlb.pages[i] != ref.pages[i] {
					t.Fatalf("%d entries, step %d: entry %d holds page %d, scan has %d", entries, step, i, tlb.pages[i], ref.pages[i])
				}
			}
		}
	}
}
