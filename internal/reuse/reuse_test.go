package reuse

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"bufferdb/internal/obsv"
)

// trackingReserve returns a reserve hook that records outstanding bytes.
func trackingReserve(outstanding *int64) func(string, int64) (func(), error) {
	return func(_ string, n int64) (func(), error) {
		*outstanding += n
		done := false
		return func() {
			if !done {
				done = true
				*outstanding -= n
			}
		}, nil
	}
}

// charge is what an entry of bytes under key is charged.
func charge(key string, bytes int64) int64 { return bytes + int64(len(key)) + EntryOverhead }

// keys returns n keys of one length, so their entries' charges are equal.
func keys(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("k%03d", i)
	}
	return out
}

func TestPublishLookupHit(t *testing.T) {
	ep := NewEpochs()
	c := New(1<<20, ep, nil)
	defer c.Close()
	if !c.Publish("k1", ep.ReadSet([]string{"nation"}), &AggTable{}, 100) {
		t.Fatal("publish refused")
	}
	p, release, ok := c.Lookup("k1")
	if !ok {
		t.Fatal("lookup missed")
	}
	if _, isAgg := p.(*AggTable); !isAgg {
		t.Fatalf("payload type %T", p)
	}
	release()
	release() // idempotent
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 0 || s.Entries != 1 || s.Bytes != charge("k1", 100) {
		t.Fatalf("stats %+v", s)
	}
	if _, _, ok := c.Lookup("absent"); ok {
		t.Fatal("phantom hit")
	}
	if c.Stats().Misses != 1 {
		t.Fatalf("miss not counted: %+v", c.Stats())
	}
}

func TestPublishRefusals(t *testing.T) {
	ep := NewEpochs()
	c := New(8*charge("k", 100), ep, nil)
	defer c.Close()
	reads := ep.ReadSet([]string{"t"})
	if c.Publish("big", reads, &AggTable{}, 101) {
		t.Fatal("entry over an eighth of the cache accepted")
	}
	if c.Publish("k", ReadSet{}, &AggTable{}, 10) {
		t.Fatal("entry without a read set accepted")
	}
	if !c.Publish("k", reads, &AggTable{}, 100) {
		t.Fatal("publish of an eighth of the cache refused")
	}
	if c.Publish("k", reads, &AggTable{}, 10) {
		t.Fatal("duplicate key accepted")
	}
	// A read set predating a write must be refused: the payload may be stale.
	ep.Bump("t")
	if c.Publish("k2", reads, &AggTable{}, 10) {
		t.Fatal("stale read set accepted")
	}
	// A current result replaces the stale entry under its key.
	if !c.Publish("k", ep.ReadSet([]string{"t"}), &AggTable{}, 10) {
		t.Fatal("current result did not replace the stale entry")
	}
	if s := c.Stats(); s.Entries != 1 || s.Invalidations != 1 || s.Bytes != charge("k", 10) {
		t.Fatalf("stats after the replacement %+v", s)
	}
	refuse := func(string, int64) (func(), error) { return nil, fmt.Errorf("limit") }
	c2 := New(1<<20, ep, refuse)
	defer c2.Close()
	if c2.Publish("k", ep.ReadSet([]string{"t"}), &AggTable{}, 10) {
		t.Fatal("publish accepted despite refused reservation")
	}
}

func TestLRUEviction(t *testing.T) {
	var outstanding int64
	ep := NewEpochs()
	ks := keys(9)
	per := charge(ks[0], 100)
	c := New(8*per, ep, trackingReserve(&outstanding))
	defer c.Close()
	reads := ep.ReadSet([]string{"t"})
	for _, k := range ks[:8] {
		if !c.Publish(k, reads, &AggTable{}, 100) {
			t.Fatalf("publish %s refused", k)
		}
	}
	// A hit makes k000 the most recently used: k001 is the victim.
	if _, rel, ok := c.Lookup(ks[0]); !ok {
		t.Fatal("lookup missed")
	} else {
		rel()
	}
	if !c.Publish(ks[8], reads, &AggTable{}, 100) {
		t.Fatal("publish refused")
	}
	if _, _, ok := c.Lookup(ks[1]); ok {
		t.Fatal("least recently used entry survived eviction")
	}
	for _, k := range append([]string{ks[0]}, ks[2:]...) {
		if _, rel, ok := c.Lookup(k); !ok {
			t.Fatalf("%s evicted unexpectedly", k)
		} else {
			rel()
		}
	}
	s := c.Stats()
	if s.Evictions != 1 || s.Entries != 8 || s.Bytes != 8*per {
		t.Fatalf("stats %+v", s)
	}
	if outstanding != 8*per {
		t.Fatalf("outstanding reservation %d, want %d", outstanding, 8*per)
	}
}

func TestPinnedEvictionDefersRelease(t *testing.T) {
	var outstanding int64
	ep := NewEpochs()
	ks := keys(9)
	per := charge(ks[0], 100)
	c := New(8*per, ep, trackingReserve(&outstanding))
	defer c.Close()
	reads := ep.ReadSet([]string{"t"})
	c.Publish(ks[0], reads, &AggTable{}, 100)
	_, release, ok := c.Lookup(ks[0])
	if !ok {
		t.Fatal("lookup missed")
	}
	// Displace the pinned entry; its reservation must survive the eviction.
	for _, k := range ks[1:] {
		if !c.Publish(k, reads, &AggTable{}, 100) {
			t.Fatalf("publish %s refused", k)
		}
	}
	if outstanding != 9*per {
		t.Fatalf("outstanding %d while pinned, want %d", outstanding, 9*per)
	}
	if _, _, ok := c.Lookup(ks[0]); ok {
		t.Fatal("evicted entry still served")
	}
	release()
	if outstanding != 8*per {
		t.Fatalf("outstanding %d after unpin, want %d", outstanding, 8*per)
	}
}

// TestSweepPerTable: a write makes stale exactly the entries whose read
// sets hold the table. Lookup drops a stale entry it meets, and Sweep drops
// the rest; entries over untouched tables survive both.
func TestSweepPerTable(t *testing.T) {
	var outstanding int64
	ep := NewEpochs()
	c := New(1<<20, ep, trackingReserve(&outstanding))
	defer c.Close()
	c.Publish("li", ep.ReadSet([]string{"lineitem"}), &AggTable{}, 10)
	c.Publish("ord", ep.ReadSet([]string{"orders"}), &AggTable{}, 10)
	c.Publish("join", ep.ReadSet([]string{"lineitem", "orders"}), &AggTable{}, 10)
	ep.Bump("lineitem")
	if _, _, ok := c.Lookup("li"); ok {
		t.Fatal("stale entry served")
	}
	if s := c.Stats(); s.Invalidations != 1 || s.Entries != 2 {
		t.Fatalf("stats after the stale lookup %+v", s)
	}
	c.Sweep()
	if _, _, ok := c.Lookup("join"); ok {
		t.Fatal("dependent join entry survived the sweep")
	}
	if _, rel, ok := c.Lookup("ord"); !ok {
		t.Fatal("entry over untouched table dropped")
	} else {
		rel()
	}
	s := c.Stats()
	if s.Invalidations != 2 || s.Entries != 1 || s.Bytes != charge("ord", 10) {
		t.Fatalf("stats %+v", s)
	}
	if outstanding != charge("ord", 10) {
		t.Fatalf("outstanding %d, want %d", outstanding, charge("ord", 10))
	}
}

func TestCloseReleasesEverything(t *testing.T) {
	var outstanding int64
	ep := NewEpochs()
	c := New(1<<20, ep, trackingReserve(&outstanding))
	defer c.Close()
	reads := ep.ReadSet([]string{"t"})
	c.Publish("a", reads, &AggTable{}, 10)
	c.Publish("b", reads, &AggTable{}, 20)
	_, release, _ := c.Lookup("a")
	c.Close()
	if outstanding != charge("a", 10) {
		t.Fatalf("outstanding %d after close with one pin, want %d", outstanding, charge("a", 10))
	}
	release()
	if outstanding != 0 {
		t.Fatalf("outstanding %d after final unpin, want 0", outstanding)
	}
	if c.Publish("c", reads, &AggTable{}, 1) {
		t.Fatal("publish accepted after Close")
	}
	if _, _, ok := c.Lookup("b"); ok {
		t.Fatal("lookup hit after Close")
	}
}

func TestNilCacheIsInert(t *testing.T) {
	var c *Cache
	if _, _, ok := c.Lookup("k"); ok {
		t.Fatal("nil cache hit")
	}
	if c.Publish("k", NewEpochs().ReadSet([]string{"t"}), nil, 1) {
		t.Fatal("nil cache accepted publish")
	}
	if c.Fits(0) {
		t.Fatal("nil cache fits an entry")
	}
	c.Sweep()
	c.Close()
	if s := c.Stats(); s != (Stats{}) {
		t.Fatalf("nil cache stats %+v", s)
	}
}

// TestEntryChargeIncludesOverhead fills a cache with entries whose payloads
// are tiny next to their Go overhead: the cache's byte count must equal the
// reservations it holds, both must be Σ(payload + key + EntryOverhead) over
// the resident entries, and the entry count must stay within the budget
// divided by that charge.
func TestEntryChargeIncludesOverhead(t *testing.T) {
	var outstanding int64
	ep := NewEpochs()
	const budget, payload = 64 << 10, 8
	c := New(budget, ep, trackingReserve(&outstanding))
	defer c.Close()
	reads := ep.ReadSet([]string{"t"})
	ks := keys(1000)
	per := charge(ks[0], payload)
	for i, k := range ks {
		if !c.Publish(k, reads, &AggTable{}, payload) {
			t.Fatalf("publish %s refused", k)
		}
		s := c.Stats()
		if s.Bytes != outstanding || s.Bytes != int64(s.Entries)*per {
			t.Fatalf("after %d publishes: %d bytes, %d reserved, %d entries of %d", i+1, s.Bytes, outstanding, s.Entries, per)
		}
		if int64(s.Entries) > budget/per {
			t.Fatalf("after %d publishes: %d entries, budget holds %d", i+1, s.Entries, budget/per)
		}
	}
	if s := c.Stats(); s.Evictions == 0 {
		t.Fatal("the cache never filled; the charge bounded nothing")
	}
	c.Close()
	if outstanding != 0 {
		t.Fatalf("outstanding %d after Close", outstanding)
	}
}

// TestEvictionVictimsAreLeastRecentlyUsed drives random publishes, lookups,
// writes and sweeps through a small cache and checks, after every step,
// the cache's recency order and counters against a reference recency list.
func TestEvictionVictimsAreLeastRecentlyUsed(t *testing.T) {
	type ref struct {
		key    string
		table  string
		epoch  uint64
		charge int64
	}
	rng := rand.New(rand.NewSource(7))
	ep := NewEpochs()
	const budget = 32 << 10
	c := New(budget, ep, nil)
	defer c.Close()
	tables := []string{"a", "b", "c"}
	var (
		model       []ref // most recently used first
		total       int64
		known       []string
		evictions   uint64
		invalidated uint64
	)
	remove := func(i int) {
		total -= model[i].charge
		model = append(model[:i], model[i+1:]...)
	}
	find := func(key string) int {
		for i, r := range model {
			if r.key == key {
				return i
			}
		}
		return -1
	}
	for step := 0; step < 4000; step++ {
		switch r := rng.Intn(10); {
		case r < 6 || len(known) == 0:
			key := fmt.Sprintf("k%d", step)
			table := tables[rng.Intn(len(tables))]
			size := int64(1 + rng.Intn(2048))
			if !c.Publish(key, ep.ReadSet([]string{table}), &AggTable{}, size) {
				t.Fatalf("step %d: publish refused", step)
			}
			ch := charge(key, size)
			for total+ch > budget {
				remove(len(model) - 1)
				evictions++
			}
			model = append([]ref{{key, table, ep.Of(table), ch}}, model...)
			total += ch
			known = append(known, key)
		case r < 9:
			key := known[rng.Intn(len(known))]
			_, release, hit := c.Lookup(key)
			want := false
			if i := find(key); i >= 0 {
				if e := model[i]; ep.Of(e.table) != e.epoch {
					remove(i)
					invalidated++
				} else {
					model = append([]ref{e}, append(model[:i:i], model[i+1:]...)...)
					want = true
				}
			}
			if hit != want {
				t.Fatalf("step %d: lookup of %s hit=%v, want %v", step, key, hit, want)
			}
			if hit {
				release()
			}
		default:
			// A write, swept at once half the time; otherwise its stale
			// dependents stay until a lookup meets them, a later sweep
			// drops them or they age out.
			ep.Bump(tables[rng.Intn(len(tables))])
			if rng.Intn(2) == 0 {
				break
			}
			c.Sweep()
			for i := 0; i < len(model); {
				if ep.Of(model[i].table) != model[i].epoch {
					remove(i)
					invalidated++
				} else {
					i++
				}
			}
		}

		c.mu.Lock()
		i := 0
		for el := c.lru.Front(); el != nil; el = el.Next() {
			if i >= len(model) || el.Value.(*entry).key != model[i].key {
				c.mu.Unlock()
				t.Fatalf("step %d: recency slot %d holds %s, reference disagrees", step, i, el.Value.(*entry).key)
			}
			i++
		}
		c.mu.Unlock()
		s := c.Stats()
		if i != len(model) || s.Entries != len(model) || s.Bytes != total {
			t.Fatalf("step %d: cache holds %d entries of %d bytes, reference %d of %d", step, s.Entries, s.Bytes, len(model), total)
		}
		if s.Evictions != evictions || s.Invalidations != invalidated {
			t.Fatalf("step %d: %d evictions and %d invalidations, reference %d and %d", step, s.Evictions, s.Invalidations, evictions, invalidated)
		}
	}
	if evictions == 0 || invalidated == 0 {
		t.Fatal("the drive never evicted or invalidated; the test checked nothing")
	}
}

// BenchmarkReusePublishFull publishes into a cache already full of 100 000
// small entries, so every publish evicts one: the time per publish must not
// grow with the entry count.
func BenchmarkReusePublishFull(b *testing.B) {
	const entries, size = 100_000, 64
	ep := NewEpochs()
	reads := ep.ReadSet([]string{"t"})
	c := New(entries*charge("fill/00000", size), ep, nil)
	defer c.Close()
	for i := 0; i < entries; i++ {
		c.Publish(fmt.Sprintf("fill/%05d", i), reads, &AggTable{}, size)
	}
	keys := make([]string, b.N)
	for i := range keys {
		keys[i] = fmt.Sprintf("new/%07d", i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Publish(keys[i], reads, &AggTable{}, size)
	}
}

// TestAdmitSecondMiss: a key's first miss is deferred, its second admitted,
// and a key that was admitted stays admitted while it holds its slot.
func TestAdmitSecondMiss(t *testing.T) {
	c := New(1<<20, NewEpochs(), nil)
	defer c.Close()
	for i, want := range []bool{false, true, true} {
		if got := c.Admit("k"); got != want {
			t.Fatalf("miss %d admitted %v, want %v", i+1, got, want)
		}
	}
	if got := c.Admit("other"); got {
		t.Fatal("another key's first miss was admitted")
	}
	if s := c.Stats(); s.Deferred != 2 || s.Entries != 0 {
		t.Fatalf("stats %+v, want 2 deferred and no entries", s)
	}
}

// TestAdmitCollision: a key hashing to an occupied slot takes it, so the
// older key must be seen twice again to be admitted.
func TestAdmitCollision(t *testing.T) {
	const a = "a"
	b := ""
	for i := 0; b == ""; i++ {
		if k := fmt.Sprintf("b%d", i); fnv1a(k)%doorSlots == fnv1a(a)%doorSlots && fnv1a(k) != fnv1a(a) {
			b = k
		}
	}
	c := New(1<<20, NewEpochs(), nil)
	defer c.Close()
	for i, step := range []struct {
		key  string
		want bool
	}{
		{a, false}, // a takes the slot
		{b, false}, // b evicts a
		{a, false}, // a is a first sighting again, and evicts b
		{a, true},
		{b, false},
		{b, true},
	} {
		if got := c.Admit(step.key); got != step.want {
			t.Fatalf("step %d: Admit(%s) = %v, want %v", i, step.key, got, step.want)
		}
	}
}

// TestAdmitNilOrClosed: a nil or closed cache admits nothing, so no caller
// does publish work for a cache that would refuse it.
func TestAdmitNilOrClosed(t *testing.T) {
	var nilCache *Cache
	if nilCache.Admit("k") || nilCache.Admit("k") {
		t.Fatal("a nil cache admitted a key")
	}
	c := New(1<<20, NewEpochs(), nil)
	defer c.Close()
	c.Admit("k")
	c.Close()
	if c.Admit("k") || c.Admit("k") {
		t.Fatal("a closed cache admitted a key")
	}
}

// TestAdmitConcurrent: concurrent misses on one key defer exactly one of
// them, while other keys, none in its slot, miss beside it. Run under -race.
func TestAdmitConcurrent(t *testing.T) {
	const workers, each = 8, 200
	hotSlot := fnv1a("hot") % doorSlots
	c := New(1<<20, NewEpochs(), nil)
	defer c.Close()
	var admitted atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if c.Admit("hot") {
					admitted.Add(1)
				}
				if k := fmt.Sprintf("cold/%d/%d", w, i); fnv1a(k)%doorSlots != hotSlot {
					c.Admit(k)
				}
			}
		}()
	}
	wg.Wait()
	if got := admitted.Load(); got != workers*each-1 {
		t.Fatalf("%d of %d misses on one key admitted, want all but the first", got, workers*each)
	}
}

// TestBytesGaugeSumsCaches: caches sharing a metrics prefix, as a shard
// node's per-slice reuse caches do, each move the one bytes gauge by their
// own charges, so it reads their sum, and 0 once every one is closed.
func TestBytesGaugeSumsCaches(t *testing.T) {
	const prefix = "reuse_test_gauge_"
	gauge := obsv.Default.Gauge(prefix + "bytes")
	ep := NewEpochs()
	a := NewNamed(prefix, 1<<20, ep, nil)
	defer a.Close()
	b := NewNamed(prefix, 1<<20, ep, nil)
	defer b.Close()
	if !a.Publish("k", ep.ReadSet([]string{"t"}), &AggTable{}, 100) ||
		!b.Publish("k", ep.ReadSet([]string{"u"}), &AggTable{}, 200) ||
		!b.Publish("k2", ep.ReadSet([]string{"t"}), &AggTable{}, 300) {
		t.Fatal("publish refused")
	}
	check := func(when string, want int64) {
		t.Helper()
		if got := gauge.Value(); got != float64(want) {
			t.Fatalf("%s: gauge %v, want %d", when, got, want)
		}
	}
	check("after publishing", charge("k", 100)+charge("k", 200)+charge("k2", 300))
	ep.Bump("t")
	a.Sweep()
	check("after one cache's sweep", charge("k", 200)+charge("k2", 300))
	if _, _, ok := b.Lookup("k2"); ok {
		t.Fatal("stale entry answered")
	}
	check("after a stale lookup", charge("k", 200))
	a.Close()
	check("after one close", charge("k", 200))
	b.Close()
	check("after both closed", 0)
}
