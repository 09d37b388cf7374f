package reuse

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"
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

func TestPublishLookupHit(t *testing.T) {
	ep := NewEpochs()
	c := New(1<<20, ep, nil)
	snap := ep.Snapshot([]string{"nation"})
	if !c.Publish("k1", []string{"nation"}, snap, &AggTable{}, 100, time.Millisecond) {
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
	if s.Hits != 1 || s.Misses != 0 || s.Entries != 1 || s.Bytes != 100 {
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
	c := New(1000, ep, nil)
	snap := ep.Snapshot([]string{"t"})
	if c.Publish("big", []string{"t"}, snap, &AggTable{}, 2000, time.Second) {
		t.Fatal("oversize entry accepted")
	}
	if !c.Publish("k", []string{"t"}, snap, &AggTable{}, 10, time.Second) {
		t.Fatal("publish refused")
	}
	if c.Publish("k", []string{"t"}, snap, &AggTable{}, 10, time.Second) {
		t.Fatal("duplicate key accepted")
	}
	// A snapshot predating a write must be refused: the payload may be stale.
	ep.Bump("t")
	if c.Publish("k2", []string{"t"}, snap, &AggTable{}, 10, time.Second) {
		t.Fatal("stale-snapshot publish accepted")
	}
	refuse := func(string, int64) (func(), error) { return nil, fmt.Errorf("limit") }
	c2 := New(1000, ep, refuse)
	if c2.Publish("k", nil, nil, &AggTable{}, 10, time.Second) {
		t.Fatal("publish accepted despite refused reservation")
	}
}

func TestGDSFEviction(t *testing.T) {
	var outstanding int64
	ep := NewEpochs()
	c := New(300, ep, trackingReserve(&outstanding))
	// Three 100-byte entries; "cheap" has the lowest cost×(hits+1)/bytes
	// score and must be the first victim.
	c.Publish("cheap", nil, nil, &AggTable{}, 100, 1*time.Microsecond)
	c.Publish("mid", nil, nil, &AggTable{}, 100, 1*time.Millisecond)
	c.Publish("dear", nil, nil, &AggTable{}, 100, 1*time.Second)
	if !c.Publish("new", nil, nil, &AggTable{}, 100, 10*time.Millisecond) {
		t.Fatal("publish refused")
	}
	if _, _, ok := c.Lookup("cheap"); ok {
		t.Fatal("lowest-scored entry survived eviction")
	}
	for _, k := range []string{"mid", "dear", "new"} {
		if _, rel, ok := c.Lookup(k); !ok {
			t.Fatalf("%s evicted unexpectedly", k)
		} else {
			rel()
		}
	}
	s := c.Stats()
	if s.Evictions != 1 || s.Bytes != 300 {
		t.Fatalf("stats %+v", s)
	}
	if outstanding != 300 {
		t.Fatalf("outstanding reservation %d, want 300", outstanding)
	}
}

func TestPinnedEvictionDefersRelease(t *testing.T) {
	var outstanding int64
	ep := NewEpochs()
	c := New(100, ep, trackingReserve(&outstanding))
	c.Publish("pinned", nil, nil, &AggTable{}, 100, time.Millisecond)
	_, release, ok := c.Lookup("pinned")
	if !ok {
		t.Fatal("lookup missed")
	}
	// Displace the pinned entry; its reservation must survive the eviction.
	if !c.Publish("next", nil, nil, &AggTable{}, 100, time.Hour) {
		t.Fatal("publish refused")
	}
	if outstanding != 200 {
		t.Fatalf("outstanding %d while pinned, want 200", outstanding)
	}
	if _, _, ok := c.Lookup("pinned"); ok {
		t.Fatal("evicted entry still served")
	}
	release()
	if outstanding != 100 {
		t.Fatalf("outstanding %d after unpin, want 100", outstanding)
	}
}

func TestInvalidatePerTable(t *testing.T) {
	var outstanding int64
	ep := NewEpochs()
	c := New(1<<20, ep, trackingReserve(&outstanding))
	c.Publish("li", []string{"lineitem"}, ep.Snapshot([]string{"lineitem"}), &AggTable{}, 10, time.Second)
	c.Publish("ord", []string{"orders"}, ep.Snapshot([]string{"orders"}), &AggTable{}, 10, time.Second)
	c.Publish("join", []string{"lineitem", "orders"}, ep.Snapshot([]string{"lineitem", "orders"}), &AggTable{}, 10, time.Second)
	ep.Bump("lineitem")
	c.Invalidate("lineitem")
	if _, _, ok := c.Lookup("li"); ok {
		t.Fatal("entry over written table survived")
	}
	if _, _, ok := c.Lookup("join"); ok {
		t.Fatal("dependent join entry survived")
	}
	if _, rel, ok := c.Lookup("ord"); !ok {
		t.Fatal("entry over untouched table dropped")
	} else {
		rel()
	}
	s := c.Stats()
	if s.Invalidations != 2 || s.Entries != 1 {
		t.Fatalf("stats %+v", s)
	}
	if outstanding != 10 {
		t.Fatalf("outstanding %d, want 10", outstanding)
	}
}

func TestCloseReleasesEverything(t *testing.T) {
	var outstanding int64
	ep := NewEpochs()
	c := New(1<<20, ep, trackingReserve(&outstanding))
	c.Publish("a", nil, nil, &AggTable{}, 10, time.Second)
	c.Publish("b", nil, nil, &AggTable{}, 20, time.Second)
	_, release, _ := c.Lookup("a")
	c.Close()
	if outstanding != 10 {
		t.Fatalf("outstanding %d after close with one pin, want 10", outstanding)
	}
	release()
	if outstanding != 0 {
		t.Fatalf("outstanding %d after final unpin, want 0", outstanding)
	}
	if c.Publish("c", nil, nil, &AggTable{}, 1, time.Second) {
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
	if c.Publish("k", nil, nil, nil, 1, 0) {
		t.Fatal("nil cache accepted publish")
	}
	c.Invalidate("t")
	c.Close()
	if s := c.Stats(); s != (Stats{}) {
		t.Fatalf("nil cache stats %+v", s)
	}
}

// TestEvictionVictimsHaveMinimumScore drives random publishes, lookups and
// invalidations through a small cache and checks, at every publish, that no
// evicted entry outscored a survivor (ties are free) and that the score
// heap indexes exactly the live entries.
func TestEvictionVictimsHaveMinimumScore(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c := New(32<<10, NewEpochs(), nil)
	tables := []string{"a", "b", "c"}
	var keys []string
	evicted := 0
	for step := 0; step < 4000; step++ {
		switch r := rng.Intn(10); {
		case r < 6 || len(keys) == 0:
			key := fmt.Sprintf("k%d", step)
			before := map[string]float64{}
			c.mu.Lock()
			for k, e := range c.entries {
				before[k] = e.score
			}
			c.mu.Unlock()
			c.Publish(key, []string{tables[rng.Intn(len(tables))]}, nil, &AggTable{},
				int64(1+rng.Intn(4096)), time.Duration(1+rng.Intn(1000))*time.Microsecond)
			keys = append(keys, key)

			c.mu.Lock()
			maxVictim, minSurvivor := math.Inf(-1), math.Inf(1)
			for k, s := range before {
				if _, ok := c.entries[k]; ok {
					minSurvivor = math.Min(minSurvivor, s)
				} else {
					maxVictim = math.Max(maxVictim, s)
					evicted++
				}
			}
			if len(c.byScore) != len(c.entries) {
				t.Fatalf("step %d: heap holds %d entries, map %d", step, len(c.byScore), len(c.entries))
			}
			for i, e := range c.byScore {
				if e.index != i || c.entries[e.key] != e {
					t.Fatalf("step %d: heap slot %d holds %q at index %d", step, i, e.key, e.index)
				}
			}
			c.mu.Unlock()
			if maxVictim > minSurvivor {
				t.Fatalf("step %d: evicted an entry scored %g while one scored %g survived", step, maxVictim, minSurvivor)
			}
		case r < 9:
			if _, release, ok := c.Lookup(keys[rng.Intn(len(keys))]); ok {
				release()
			}
		default:
			c.Invalidate(tables[rng.Intn(len(tables))])
		}
	}
	if evicted == 0 {
		t.Fatal("the cache never filled; the test checked no eviction")
	}
}

// BenchmarkReusePublishFull publishes into a cache already full of 100 000
// small entries, so every publish evicts one: the time per publish must not
// grow with the entry count.
func BenchmarkReusePublishFull(b *testing.B) {
	const entries, size = 100_000, 64
	c := New(entries*size, NewEpochs(), nil)
	for i := 0; i < entries; i++ {
		c.Publish(fmt.Sprintf("fill/%d", i), []string{"t"}, nil, &AggTable{}, size, time.Duration(1+i%97)*time.Microsecond)
	}
	keys := make([]string, b.N)
	for i := range keys {
		keys[i] = fmt.Sprintf("new/%d", i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Publish(keys[i], []string{"t"}, nil, &AggTable{}, size, time.Duration(1+i%97)*time.Microsecond)
	}
}
