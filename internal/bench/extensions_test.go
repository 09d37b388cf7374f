package bench

import "testing"

func TestExtPrefetchShape(t *testing.T) {
	lines := report(t, "ext1").Lines
	// Prefetching cuts misses meaningfully but buffering still beats it
	// (the driver itself checks the three variants agree on the result).
	pf := values(t, lines, "prefetch cut L1I misses by") // reduction %, base, prefetch, lines prefetched
	if pf[3] == 0 {
		t.Fatal("prefetcher never fired")
	}
	if pf[0] < 10 || pf[0] > 80 {
		t.Errorf("prefetch miss reduction = %.1f%%, want partial (10–80%%)", pf[0])
	}
	if faster := values(t, lines, "…but buffering cut them by")[1]; faster <= 0 {
		t.Errorf("buffering not faster than prefetching (%.1f%%)", faster)
	}
}

func TestExtLayoutShape(t *testing.T) {
	lines := report(t, "ext2").Lines
	// Packing must (nearly) eliminate ITLB misses…
	if red := values(t, lines, "packing cut ITLB misses by")[0]; red < 95 {
		t.Errorf("packed layout ITLB reduction = %.1f%%, want ≥ 95%%", red)
	}
	// …while leaving the L1I thrashing substantially intact.
	if left := values(t, lines, "…but left")[0]; left < 70 {
		t.Errorf("packed layout left %.1f%% of L1I misses; footprint should persist", left)
	}
}
