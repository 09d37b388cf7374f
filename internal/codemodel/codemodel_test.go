package codemodel

import (
	"math/rand"
	"sort"
	"testing"
)

// kb asserts a footprint is within tol bytes of want.
func near(got, want, tol int) bool {
	d := got - want
	if d < 0 {
		d = -d
	}
	return d <= tol
}

func TestTable2Footprints(t *testing.T) {
	c := NewCatalog()
	cases := []struct {
		module string
		wantKB float64
	}{
		{"SeqScan", 9},
		{"SeqScanPred", 13},
		{"IndexScan", 14},
		{"Sort", 14},
		{"NestLoop", 11},
		{"MergeJoin", 12},
		{"HashBuild", 12},
		{"HashProbe", 12},
	}
	for _, tc := range cases {
		m := c.MustModule(tc.module)
		want := int(tc.wantKB * 1024)
		if !near(m.FootprintBytes(), want, 256) {
			t.Errorf("%s footprint = %d B, want ≈ %d B", tc.module, m.FootprintBytes(), want)
		}
	}
	// Buffer operator is tiny (< 1 KB), per the paper.
	buf := c.MustModule("Buffer")
	if buf.FootprintBytes() >= 1024 {
		t.Errorf("Buffer footprint = %d B, want < 1 KB", buf.FootprintBytes())
	}
}

func TestAggregationFootprints(t *testing.T) {
	c := NewCatalog()
	base, err := c.AggModule(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !near(base.FootprintBytes(), 12*1024, 256) {
		t.Errorf("Agg base = %d B, want ≈ 12 KB", base.FootprintBytes())
	}
	count, _ := c.AggModule([]string{"count"})
	if inc := count.FootprintBytes() - base.FootprintBytes(); inc >= 1024 || inc <= 0 {
		t.Errorf("COUNT increment = %d B, want (0, 1 KB)", inc)
	}
	sum, _ := c.AggModule([]string{"sum"})
	if inc := sum.FootprintBytes() - base.FootprintBytes(); !near(inc, 2700, 300) {
		t.Errorf("SUM increment = %d B, want ≈ 2.7 KB", inc)
	}
	minm, _ := c.AggModule([]string{"min"})
	if inc := minm.FootprintBytes() - base.FootprintBytes(); !near(inc, 1600, 200) {
		t.Errorf("MIN increment = %d B, want ≈ 1.6 KB", inc)
	}
	avg, _ := c.AggModule([]string{"avg"})
	if inc := avg.FootprintBytes() - base.FootprintBytes(); !near(inc, 6300, 400) {
		t.Errorf("AVG increment = %d B, want ≈ 6.3 KB", inc)
	}
	// Sub-additivity: SUM+AVG+COUNT together cost less than the sum of the
	// individual increments because AVG shares SUM's and COUNT's helpers.
	q1, _ := c.AggModule([]string{"sum", "avg", "count"})
	sep := (sum.FootprintBytes() - base.FootprintBytes()) +
		(avg.FootprintBytes() - base.FootprintBytes()) +
		(count.FootprintBytes() - base.FootprintBytes())
	if got := q1.FootprintBytes() - base.FootprintBytes(); got >= sep {
		t.Errorf("combined agg increment %d B not subadditive vs %d B", got, sep)
	}
	if _, err := c.AggModule([]string{"median"}); err == nil {
		t.Error("unknown aggregate accepted")
	}
	// Same agg set in different order returns the identical module.
	a, _ := c.AggModule([]string{"avg", "count", "sum"})
	if a != q1 {
		t.Error("agg module not canonicalized by function set")
	}
}

func TestCombinedFootprintDedup(t *testing.T) {
	c := NewCatalog()
	scan := c.MustModule("SeqScanPred")
	agg, _ := c.AggModule([]string{"sum", "avg", "count"})

	combined := CombinedFootprint(scan, agg)
	naive := NaiveCombinedFootprint(scan, agg)
	if combined >= naive {
		t.Errorf("dedup combined %d >= naive %d", combined, naive)
	}
	// The shared runtime+expr overlap is about 10 KB.
	overlap := naive - combined
	if !near(overlap, 10*1024, 512) {
		t.Errorf("scan/agg shared code = %d B, want ≈ 10 KB", overlap)
	}
	// Paper's Query 1: combined ≈ 21–23 KB, exceeding a 16 KB L1I.
	if combined <= 16*1024 || combined > 24*1024 {
		t.Errorf("Query 1 combined footprint = %d B, want in (16 KB, 24 KB]", combined)
	}
	// Paper's Query 2: scan + COUNT-only aggregation ≈ 15 KB, fitting.
	countAgg, _ := c.AggModule([]string{"count"})
	q2 := CombinedFootprint(scan, countAgg)
	if q2 > 16*1024 {
		t.Errorf("Query 2 combined footprint = %d B, want <= 16 KB", q2)
	}
	// Idempotence: combining a module with itself adds nothing.
	if CombinedFootprint(scan, scan) != scan.FootprintBytes() {
		t.Error("CombinedFootprint(x, x) != footprint(x)")
	}
}

func TestHotVsStaticFootprint(t *testing.T) {
	c := NewCatalog()
	for _, name := range []string{"SeqScan", "SeqScanPred", "IndexScan", "Sort"} {
		m := c.MustModule(name)
		if m.HotBytes() >= m.FootprintBytes() {
			t.Errorf("%s: hot bytes %d >= reported footprint %d", name, m.HotBytes(), m.FootprintBytes())
		}
		frac := float64(m.HotBytes()) / float64(m.FootprintBytes())
		if frac < HotFraction-0.05 || frac > HotFraction+0.05 {
			t.Errorf("%s: hot fraction = %.3f, want ≈ %.2f", name, frac, HotFraction)
		}
		if m.StaticFootprintBytes() <= m.FootprintBytes() {
			t.Errorf("%s: static estimate %d not above dynamic %d (cold code missing)",
				name, m.StaticFootprintBytes(), m.FootprintBytes())
		}
	}
	// Key property for the thrashing experiments: each Query 1 operator's
	// hot set fits a 16 KB L1I, but the combination does not.
	scan := c.MustModule("SeqScanPred")
	agg, _ := c.AggModule([]string{"sum", "avg", "count"})
	const l1i = 16 * 1024
	scanHot := CombinedHotLines(scan) * CacheLineBytes
	aggHot := CombinedHotLines(agg) * CacheLineBytes
	bothHot := CombinedHotLines(scan, agg) * CacheLineBytes
	if scanHot >= l1i {
		t.Errorf("scan hot set %d B does not fit L1I", scanHot)
	}
	if aggHot >= l1i {
		t.Errorf("agg hot set %d B does not fit L1I", aggHot)
	}
	if bothHot <= l1i {
		t.Errorf("combined hot set %d B fits L1I; thrashing experiment needs it to exceed", bothHot)
	}
}

func TestModuleLines(t *testing.T) {
	c := NewCatalog()
	m := c.MustModule("SeqScan")
	lines := m.Lines()
	if len(lines) == 0 {
		t.Fatal("no fetch trace")
	}
	seen := map[uint64]bool{}
	for _, l := range lines {
		if l%CacheLineBytes != 0 {
			t.Fatalf("unaligned line address %#x", l)
		}
		seen[l] = true
	}
	// Functions are scattered: consecutive functions must not share lines.
	if len(seen) != len(lines) {
		t.Errorf("fetch trace revisits lines within one invocation: %d distinct of %d", len(seen), len(lines))
	}
	// Line count must cover the hot bytes.
	if got, minWant := len(lines)*CacheLineBytes, m.HotBytes(); got < minWant {
		t.Errorf("trace covers %d B < hot %d B", got, minWant)
	}
}

func TestBranchSites(t *testing.T) {
	c := NewCatalog()
	scan := c.MustModule("SeqScanPred")
	var biased, callerDep, data int
	for _, s := range scan.Sites() {
		switch s.Kind {
		case SiteBiased:
			biased++
		case SiteCallerDep:
			callerDep++
		case SiteData:
			data++
		}
	}
	if data != 3 {
		t.Errorf("SeqScanPred data sites = %d, want 3", data)
	}
	if callerDep == 0 {
		t.Error("no caller-dependent sites in shared libraries")
	}
	if biased == 0 {
		t.Error("no biased sites")
	}
	if scan.DataSiteCount() != data {
		t.Errorf("DataSiteCount = %d, counted %d", scan.DataSiteCount(), data)
	}
	// Shared sites appear in both modules that use the library, at the
	// same PC, but module-local kinds don't leak across modules.
	agg, _ := c.AggModule([]string{"count"})
	sharedPCs := map[uint64]SiteKind{}
	for _, s := range scan.Sites() {
		sharedPCs[s.PC] = s.Kind
	}
	overlap := 0
	for _, s := range agg.Sites() {
		if _, ok := sharedPCs[s.PC]; ok {
			overlap++
		}
	}
	if overlap == 0 {
		t.Error("no branch sites shared between scan and aggregation")
	}
}

func TestCatalogBasics(t *testing.T) {
	c := NewCatalog()
	if _, err := c.Module("NoSuchThing"); err == nil {
		t.Error("unknown module accepted")
	}
	m1 := c.MustModule("Sort")
	m2 := c.MustModule("Sort")
	if m1 != m2 {
		t.Error("Module not cached")
	}
	c.MustModule("Buffer")
	if c.LibBytes(LibRuntime) != libRuntimeBytes {
		t.Errorf("runtime lib = %d B, want %d", c.LibBytes(LibRuntime), libRuntimeBytes)
	}
	if len(c.Lib(LibExpr)) == 0 {
		t.Error("expr lib empty")
	}
	if c.TextSegmentBytes() == 0 {
		t.Error("no text segment extent")
	}
	mods := c.Modules()
	if len(mods) < 2 {
		t.Errorf("Modules() = %d entries", len(mods))
	}
	// Distinct module IDs.
	ids := map[uint32]bool{}
	for _, m := range mods {
		if ids[m.ID] {
			t.Errorf("duplicate module ID %d", m.ID)
		}
		ids[m.ID] = true
	}
}

func TestDeterministicLayout(t *testing.T) {
	a, b := NewCatalog(), NewCatalog()
	ma, mb := a.MustModule("SeqScanPred"), b.MustModule("SeqScanPred")
	la, lb := ma.Lines(), mb.Lines()
	if len(la) != len(lb) {
		t.Fatalf("layout not deterministic: %d vs %d lines", len(la), len(lb))
	}
	for i := range la {
		if la[i] != lb[i] {
			t.Fatalf("layout diverges at line %d: %#x vs %#x", i, la[i], lb[i])
		}
	}
}

func TestITLBPageSpread(t *testing.T) {
	// The working set of the Query 1 pipeline must span more pages than a
	// single module's, so that interleaving pressures the ITLB.
	c := NewCatalog()
	scan := c.MustModule("SeqScanPred")
	agg, _ := c.AggModule([]string{"sum", "avg", "count"})
	pages := func(mods ...*Module) int {
		seen := map[uint64]bool{}
		for _, m := range mods {
			for _, l := range m.Lines() {
				seen[l>>12] = true
			}
		}
		return len(seen)
	}
	p1, p2, both := pages(scan), pages(agg), pages(scan, agg)
	if both <= p1 || both <= p2 {
		t.Errorf("page working sets: scan %d, agg %d, combined %d", p1, p2, both)
	}
	// Scattered layout: the pipeline spans at least ~50 pages.
	if both < 50 {
		t.Errorf("combined page working set %d too small for ITLB pressure", both)
	}
}

// mapCombinedFootprint is the §6.1 union written the direct way — a set of
// function pointers — kept as the reference the bitset CombinedFootprint
// must reproduce exactly.
func mapCombinedFootprint(mods ...*Module) int {
	seen := make(map[*Function]struct{})
	n := 0
	for _, m := range mods {
		for _, f := range m.Funcs {
			if _, dup := seen[f]; dup {
				continue
			}
			seen[f] = struct{}{}
			n += f.Size
		}
	}
	return n
}

// allModules instantiates every spec module and every aggregate set.
func allModules(c *Catalog) []*Module {
	names := make([]string, 0, len(specs))
	for name := range specs {
		names = append(names, name)
	}
	sort.Strings(names)
	var mods []*Module
	for _, name := range names {
		mods = append(mods, c.MustModule(name))
	}
	aggs := []string{"count", "min", "max", "sum", "avg"}
	for mask := 0; mask < 1<<len(aggs); mask++ {
		var set []string
		for i, a := range aggs {
			if mask&(1<<i) != 0 {
				set = append(set, a)
			}
		}
		m, err := c.AggModule(set)
		if err != nil {
			panic(err)
		}
		mods = append(mods, m)
	}
	return mods
}

// TestCombinedFootprintMatchesMapUnion holds the bitset union to the map
// reference over every module, random multisets of modules (repeats
// included), and aggregate modules assembled after others were combined.
func TestCombinedFootprintMatchesMapUnion(t *testing.T) {
	for _, layout := range []Layout{LayoutScattered, LayoutPacked} {
		c := NewCatalogWithLayout(layout)
		// Combine a few modules first, so the aggregate modules below are
		// assembled after the catalog has already been used.
		early := []*Module{c.MustModule("SeqScanPred"), c.MustModule("HashProbe")}
		if got, want := CombinedFootprint(early...), mapCombinedFootprint(early...); got != want {
			t.Fatalf("layout %d: early union = %d, reference %d", layout, got, want)
		}
		mods := allModules(c)
		if got := CombinedFootprint(); got != 0 {
			t.Errorf("empty union = %d", got)
		}
		for _, m := range mods {
			if got, want := CombinedFootprint(m), mapCombinedFootprint(m); got != want || got != m.FootprintBytes() {
				t.Errorf("layout %d: %s alone = %d, reference %d, footprint %d", layout, m.Name, got, want, m.FootprintBytes())
			}
		}
		rng := rand.New(rand.NewSource(int64(layout) + 1))
		for trial := 0; trial < 2000; trial++ {
			pick := make([]*Module, 1+rng.Intn(8))
			for i := range pick {
				pick[i] = mods[rng.Intn(len(mods))]
			}
			if got, want := CombinedFootprint(pick...), mapCombinedFootprint(pick...); got != want {
				names := make([]string, len(pick))
				for i, m := range pick {
					names[i] = m.Name
				}
				t.Fatalf("layout %d: union of %v = %d, reference %d", layout, names, got, want)
			}
		}
		// The union lives in a stack scratch: a merge check allocates nothing.
		if a := testing.AllocsPerRun(20, func() { CombinedFootprint(mods...) }); a != 0 {
			t.Errorf("layout %d: CombinedFootprint allocated %.0f times per call", layout, a)
		}
	}
}
