package reuse

import (
	"fmt"
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
