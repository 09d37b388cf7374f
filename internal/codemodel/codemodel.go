// Package codemodel defines the synthetic code layout that stands in for the
// PostgreSQL binary in the paper's instruction-footprint study.
//
// The paper (Table 2) measures per-operator ("module") instruction
// footprints by running calibration queries, recording the dynamic call
// graph with VTune, and summing the binary sizes of the functions each
// module actually invokes — counting functions shared between modules only
// once when combining them. This package reproduces that structure:
//
//   - a catalog of synthetic functions with addresses and sizes, grouped
//     into libraries (a shared runtime, a shared expression evaluator, a
//     numeric library, a hash library, and per-operator private code);
//   - modules (operators) defined as the set of functions their dynamic
//     call graph reaches, sized to match the paper's Table 2;
//   - per-module "cold" functions that appear in the static call graph but
//     are never executed (error paths), so that the naive static estimate
//     overestimates, as the paper observes;
//   - a hot fraction per function: even called functions execute only part
//     of their code, so the *touched* footprint is smaller than the
//     reported one — this is the paper's remark that its footprint analysis
//     is conservative;
//   - branch sites attached to functions, including caller-dependent sites
//     in shared libraries whose outcome depends on the invoking module
//     (the paper: "different database operators often share common
//     functions [which] may have different branching patterns when called
//     by different operators").
//
// Functions are laid out scattered across a multi-megabyte simulated text
// segment, the way a large binary lays out a working set amid unused code,
// which is what gives the instruction TLB something to do.
package codemodel

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"sync"
)

// HotFraction is the fraction of a called function's bytes actually executed
// per invocation. The remaining bytes are in the function body (so the
// reported footprint includes them) but are never fetched.
const HotFraction = 0.7

// CacheLineBytes is the instruction-fetch granularity used to precompute
// line traces. It matches the simulated L1I line size.
const CacheLineBytes = 64

// branchSiteEvery controls branch-site density: one conditional branch site
// per this many bytes of hot code.
const branchSiteEvery = 256

// SiteKind classifies a branch site by what drives its outcome.
type SiteKind uint8

const (
	// SiteBiased branches are strongly biased (always taken here): loop
	// back-edges, never-failing error checks. Predictors learn them fast;
	// they matter only through table capacity and aliasing.
	SiteBiased SiteKind = iota
	// SiteCallerDep branches live in shared library functions and resolve
	// differently depending on the module executing them (e.g. a datum
	// comparator called with different types by different operators).
	SiteCallerDep
	// SiteData branches depend on the data a tuple carries (predicate
	// results, join-match tests). The executor supplies their outcomes.
	SiteData
)

// BranchSite is one static conditional branch.
type BranchSite struct {
	PC   uint64
	Kind SiteKind
}

// Function is one synthetic function in the simulated binary.
type Function struct {
	Name string
	Lib  string
	Addr uint64
	// Size is the binary size in bytes — what footprint analysis reports.
	Size int
	// HotBytes is the number of bytes actually fetched per call.
	HotBytes int
	// Sites are the function's branch sites, inside the hot region.
	Sites []BranchSite

	// idx is the function's position in its catalog's layout order — its
	// bit in every module's function set.
	idx int
}

// Module is one executable unit of the engine — an operator implementation
// (or one phase of one, like a hash join's build and probe phases, which
// the paper treats as separate modules).
type Module struct {
	// Name identifies the module, e.g. "SeqScanPred" or "Agg[sum avg count]".
	Name string
	// ID feeds caller-dependent branch outcomes; distinct per module.
	ID uint32
	// Funcs is the dynamic call set: functions executed per invocation.
	Funcs []*Function
	// Cold is statically reachable code that never runs (error paths).
	Cold []*Function

	lines    []uint64
	sites    []BranchSite
	hotBytes int
	dataIdx  []int // positions of SiteData entries within sites

	// set is Funcs as a bitset over the catalog's function numbering, and
	// cat the catalog that numbering belongs to: CombinedFootprint unions
	// modules by OR-ing their sets.
	set []uint64
	cat *Catalog
}

// finalize precomputes the per-invocation fetch trace and branch-site list.
func (m *Module) finalize() {
	m.lines = m.lines[:0]
	m.sites = m.sites[:0]
	m.hotBytes = 0
	for _, f := range m.Funcs {
		first := f.Addr / CacheLineBytes
		last := (f.Addr + uint64(f.HotBytes) - 1) / CacheLineBytes
		for l := first; l <= last; l++ {
			m.lines = append(m.lines, l*CacheLineBytes)
		}
		m.hotBytes += f.HotBytes
		m.sites = append(m.sites, f.Sites...)
	}
	m.dataIdx = m.dataIdx[:0]
	for i, s := range m.sites {
		if s.Kind == SiteData {
			m.dataIdx = append(m.dataIdx, i)
		}
	}
}

// Lines returns the cache-line addresses fetched by one invocation, in
// execution order. Callers must not mutate the slice.
func (m *Module) Lines() []uint64 { return m.lines }

// Sites returns the branch sites executed by one invocation.
func (m *Module) Sites() []BranchSite { return m.sites }

// DataSiteCount returns how many of the module's sites are data-dependent.
func (m *Module) DataSiteCount() int { return len(m.dataIdx) }

// HotBytes returns the instruction bytes fetched per invocation.
func (m *Module) HotBytes() int { return m.hotBytes }

// FootprintBytes is the dynamic-call-graph footprint the paper's analysis
// reports: the summed binary sizes of the functions the module executes.
func (m *Module) FootprintBytes() int {
	n := 0
	for _, f := range m.Funcs {
		n += f.Size
	}
	return n
}

// StaticFootprintBytes is the naive static-call-graph estimate, which also
// counts reachable-but-never-executed functions. The paper rejects this
// estimator as an overestimate; the refinement ablation tests quantify it.
func (m *Module) StaticFootprintBytes() int {
	n := m.FootprintBytes()
	for _, f := range m.Cold {
		n += f.Size
	}
	return n
}

// CombinedFootprint returns the dynamic footprint of a set of modules with
// functions shared between modules counted once — the paper's §6.1 rule for
// estimating an execution group's footprint. The union is an OR of the
// modules' function bitsets, precomputed when each module was assembled, so
// refinement's group-merge checks pay no per-function bookkeeping. All
// modules must come from one catalog.
func CombinedFootprint(mods ...*Module) int {
	if len(mods) == 0 {
		return 0
	}
	c := mods[0].cat
	var scratch [4]uint64
	union := scratch[:0]
	if words := len(mods[0].set); words > len(scratch) {
		union = make([]uint64, 0, words)
	}
	union = append(union, mods[0].set...)
	for _, m := range mods[1:] {
		if m.cat != c {
			panic("codemodel: CombinedFootprint over modules of different catalogs")
		}
		for i, w := range m.set {
			union[i] |= w
		}
	}
	n := 0
	for i, w := range union {
		for w != 0 {
			n += c.funcs[i*64+bits.TrailingZeros64(w)].Size
			w &= w - 1
		}
	}
	return n
}

// NaiveCombinedFootprint sums per-module footprints without deduplicating
// shared functions — the estimator the paper warns against.
func NaiveCombinedFootprint(mods ...*Module) int {
	n := 0
	for _, m := range mods {
		n += m.FootprintBytes()
	}
	return n
}

// CombinedHotLines returns the number of distinct cache lines a set of
// modules touches per round of invocations — the quantity that actually
// determines whether interleaved execution thrashes the L1I.
func CombinedHotLines(mods ...*Module) int {
	seen := make(map[uint64]struct{})
	for _, m := range mods {
		for _, l := range m.lines {
			seen[l] = struct{}{}
		}
	}
	return len(seen)
}

// Library size targets, in bytes, chosen so that module footprints land on
// the paper's Table 2 (see DESIGN.md §5 for the arithmetic).
const (
	libRuntimeBytes   = 7168 // tuple slots, datum access, memory contexts, elog
	libExprBytes      = 3072 // expression evaluator, qual checking, projection
	libArithBytes     = 1536 // numeric addition/division used by SUM and AVG
	libHashBytes      = 768  // hash functions shared by hash join phases
	privSeqScanBytes  = 2048
	privPredBytes     = 1024 // predicate-specific scan code (qual loop)
	privIndexBytes    = 4096
	privSortBytes     = 4096
	privNestLoopBytes = 1024
	privMergeBytes    = 2048
	// Hash join phases hash raw key columns directly rather than going
	// through the general expression evaluator, so — unlike the other
	// joins — they do not pull in the expr library. Their private code is
	// correspondingly larger; totals still land on Table 2's 12 KB.
	privHBuildBytes   = 4352
	privHProbeBytes   = 4352
	privAggBaseBytes  = 2048
	privAggCountBytes = 448
	privAggMinBytes   = 1600
	privAggMaxBytes   = 1600
	privAggSumBytes   = 1228
	privAggAvgBytes   = 3000
	privBufferBytes   = 716
	privMaterialBytes = 1024
	// coldBytesPerModule is error-path code present in each module's static
	// call graph but never executed.
	coldBytesPerModule = 1536
)

// Library names.
const (
	LibRuntime = "runtime"
	LibExpr    = "expr"
	LibArith   = "arith"
	LibHash    = "hash"
)

// Layout selects how functions are placed in the simulated text segment.
type Layout uint8

const (
	// LayoutScattered models an ordinary large binary: used functions are
	// interleaved with unused code, so the working set spans many pages.
	// This is the default and the setting all paper experiments use.
	LayoutScattered Layout = iota
	// LayoutPacked models profile-guided code layout (the paper's §2
	// related work, e.g. Pettis–Hansen): hot functions are placed
	// contiguously. It collapses the ITLB working set but does not shrink
	// the instruction *footprint*, which is why — as the paper argues —
	// layout optimization alone cannot stop pipeline thrashing.
	LayoutPacked
)

// Catalog owns the function layout and hands out modules. One catalog
// corresponds to one simulated binary; the engine builds exactly one and
// shares it across all plans so that shared libraries really are shared.
// Module lookup assembles lazily on first use, so the catalog is internally
// synchronized: concurrent query compilations may request modules at once.
type Catalog struct {
	// mu guards the lazily grown state: modules and nextID. The function
	// layout itself (libs, funcs, nextAddr) is fixed at construction.
	mu       sync.Mutex
	libs     map[string][]*Function
	modules  map[string]*Module
	layout   Layout
	nextAddr uint64
	nextID   uint32
	rngState uint64
	// funcs is every function in layout order, which is address order;
	// a function's position here is its idx.
	funcs []*Function
}

// NewCatalog lays out the standard simulated binary (scattered layout).
func NewCatalog() *Catalog {
	return NewCatalogWithLayout(LayoutScattered)
}

// NewCatalogWithLayout lays out the simulated binary with the given
// function placement strategy.
func NewCatalogWithLayout(layout Layout) *Catalog {
	c := &Catalog{
		libs:     make(map[string][]*Function),
		modules:  make(map[string]*Module),
		layout:   layout,
		nextAddr: 0x40_0000, // a typical text-segment start
		rngState: 0x243f6a8885a308d3,
	}
	// Shared libraries first (they are hot in link order too). Shared
	// library functions carry caller-dependent branch sites.
	c.buildLib(LibRuntime, libRuntimeBytes, true)
	c.buildLib(LibExpr, libExprBytes, true)
	c.buildLib(LibArith, libArithBytes, true)
	c.buildLib(LibHash, libHashBytes, true)
	// Operator-private code: branch outcomes depend on data, not caller.
	for _, p := range []struct {
		name  string
		bytes int
	}{
		{"seqscan", privSeqScanBytes},
		{"pred", privPredBytes},
		{"indexscan", privIndexBytes},
		{"sort", privSortBytes},
		{"nestloop", privNestLoopBytes},
		{"mergejoin", privMergeBytes},
		{"hashbuild", privHBuildBytes},
		{"hashprobe", privHProbeBytes},
		{"aggbase", privAggBaseBytes},
		{"agg.count", privAggCountBytes},
		{"agg.min", privAggMinBytes},
		{"agg.max", privAggMaxBytes},
		{"agg.sum", privAggSumBytes},
		{"agg.avg", privAggAvgBytes},
		{"buffer", privBufferBytes},
		{"material", privMaterialBytes},
	} {
		c.buildLib(p.name, p.bytes, false)
	}
	// Cold error-path code, one pool per operator family.
	for _, name := range []string{
		"cold.seqscan", "cold.indexscan", "cold.sort", "cold.join",
		"cold.agg", "cold.buffer",
	} {
		c.buildLib(name, coldBytesPerModule, false)
	}
	return c
}

// rand is a splitmix64 step for deterministic layout jitter.
func (c *Catalog) rand() uint64 {
	c.rngState += 0x9e3779b97f4a7c15
	z := c.rngState
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// buildLib carves a library of the given total size into functions of
// 192–448 bytes, placed at scattered addresses with inter-function gaps so
// the working set spans many pages (ITLB pressure) and maps across many
// cache sets.
func (c *Catalog) buildLib(name string, totalBytes int, shared bool) {
	if _, dup := c.libs[name]; dup {
		panic("codemodel: duplicate library " + name)
	}
	var funcs []*Function
	remaining := totalBytes
	for i := 0; remaining > 0; i++ {
		size := 192 + int(c.rand()%257) // 192..448
		if size > remaining || remaining-size < 128 {
			size = remaining
		}
		hot := int(float64(size)*HotFraction + 0.5)
		f := &Function{
			Name:     fmt.Sprintf("%s_fn%d", name, i),
			Lib:      name,
			Addr:     c.nextAddr,
			Size:     size,
			HotBytes: hot,
			idx:      len(c.funcs),
		}
		f.Sites = c.makeSites(f, shared)
		funcs = append(funcs, f)
		c.funcs = append(c.funcs, f)
		// Scattered layout: a 1.5–6 KB gap of unused binary between used
		// functions. Packed layout: hot functions back to back. Either
		// way the next function aligns to a cache line, as compilers do.
		var gap uint64
		if c.layout == LayoutScattered {
			gap = 1536 + c.rand()%4608
		}
		c.nextAddr += uint64(size) + gap
		c.nextAddr = (c.nextAddr + CacheLineBytes - 1) &^ (CacheLineBytes - 1)
		remaining -= size
	}
	c.libs[name] = funcs
}

// makeSites places one branch site per branchSiteEvery hot bytes. In shared
// libraries one in four sites is caller-dependent. Data sites are not
// assigned here; modules claim them from their private code (see NewModule).
func (c *Catalog) makeSites(f *Function, shared bool) []BranchSite {
	n := f.HotBytes / branchSiteEvery
	if n < 1 {
		n = 1
	}
	sites := make([]BranchSite, n)
	for i := range sites {
		pc := f.Addr + uint64(i*branchSiteEvery+17)
		kind := SiteBiased
		// Roughly one shared-library site in four is caller-dependent,
		// selected by a PC hash so that single-site functions participate.
		if shared && (pc>>6)%4 == 1 {
			kind = SiteCallerDep
		}
		sites[i] = BranchSite{PC: pc, Kind: kind}
	}
	return sites
}

// Lib returns a library's functions (for footprint reporting and tests).
func (c *Catalog) Lib(name string) []*Function {
	return c.libs[name]
}

// LibBytes returns a library's total binary size.
func (c *Catalog) LibBytes(name string) int {
	n := 0
	for _, f := range c.libs[name] {
		n += f.Size
	}
	return n
}

// moduleSpec describes a module as a list of libraries plus cold code.
type moduleSpec struct {
	libs      []string
	cold      string
	dataSites int
}

// specs maps module names to their call sets. The paper's Table 2 rows fall
// out of these compositions (DESIGN.md §5).
var specs = map[string]moduleSpec{
	"SeqScan":     {libs: []string{LibRuntime, "seqscan"}, cold: "cold.seqscan", dataSites: 1},
	"SeqScanPred": {libs: []string{LibRuntime, LibExpr, "seqscan", "pred"}, cold: "cold.seqscan", dataSites: 3},
	"IndexScan":   {libs: []string{LibRuntime, LibExpr, "indexscan"}, cold: "cold.indexscan", dataSites: 2},
	"Sort":        {libs: []string{LibRuntime, LibExpr, "sort"}, cold: "cold.sort", dataSites: 2},
	"NestLoop":    {libs: []string{LibRuntime, LibExpr, "nestloop"}, cold: "cold.join", dataSites: 2},
	"MergeJoin":   {libs: []string{LibRuntime, LibExpr, "mergejoin"}, cold: "cold.join", dataSites: 2},
	"HashBuild":   {libs: []string{LibRuntime, LibHash, "hashbuild"}, cold: "cold.join", dataSites: 1},
	"HashProbe":   {libs: []string{LibRuntime, LibHash, "hashprobe"}, cold: "cold.join", dataSites: 2},
	// Filter is a standalone qualification node (residual join predicates).
	// PostgreSQL folds quals into each operator; the footprint is the
	// shared evaluator plus the qual-loop code.
	"Filter": {libs: []string{LibRuntime, LibExpr, "pred"}, cold: "cold.seqscan", dataSites: 2},
	// Project evaluates a target list; same evaluator machinery.
	"Project":  {libs: []string{LibRuntime, LibExpr}, dataSites: 1},
	"Buffer":   {libs: []string{"buffer"}, dataSites: 1},
	"Material": {libs: []string{LibRuntime, "material"}, cold: "cold.buffer", dataSites: 1},
}

// Module returns the named module, creating it on first use. Valid names
// are the keys of the spec table; aggregation modules are built with
// AggModule instead because their call set depends on the aggregate list.
func (c *Catalog) Module(name string) (*Module, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if m, ok := c.modules[name]; ok {
		return m, nil
	}
	spec, ok := specs[name]
	if !ok {
		return nil, fmt.Errorf("codemodel: unknown module %q", name)
	}
	return c.assemble(name, spec), nil
}

// MustModule is Module for statically known names.
func (c *Catalog) MustModule(name string) *Module {
	m, err := c.Module(name)
	if err != nil {
		panic(err)
	}
	return m
}

// AggModule builds (or returns) the aggregation module for a set of
// aggregate function names, drawn from count, min, max, sum, avg.
// SUM and AVG additionally pull in the shared numeric library, and AVG
// pulls in SUM's and COUNT's helpers — which is how the paper's Table 2
// arrives at AVG's 6.3 KB while the combined module stays subadditive.
func (c *Catalog) AggModule(aggs []string) (*Module, error) {
	uniq := map[string]bool{}
	var order []string
	for _, a := range aggs {
		a = strings.ToLower(a)
		switch a {
		case "count", "min", "max", "sum", "avg":
			if !uniq[a] {
				uniq[a] = true
				order = append(order, a)
			}
		default:
			return nil, fmt.Errorf("codemodel: unknown aggregate %q", a)
		}
	}
	sort.Strings(order)
	name := "Agg[" + strings.Join(order, " ") + "]"
	c.mu.Lock()
	defer c.mu.Unlock()
	if m, ok := c.modules[name]; ok {
		return m, nil
	}
	libs := []string{LibRuntime, LibExpr, "aggbase"}
	needArith := false
	for _, a := range order {
		switch a {
		case "avg":
			libs = append(libs, "agg.avg", "agg.sum", "agg.count")
			needArith = true
		case "sum":
			libs = append(libs, "agg.sum")
			needArith = true
		default:
			libs = append(libs, "agg."+a)
		}
	}
	if needArith {
		libs = append(libs, LibArith)
	}
	return c.assemble(name, moduleSpec{libs: dedupStrings(libs), cold: "cold.agg", dataSites: 2}), nil
}

func dedupStrings(in []string) []string {
	seen := map[string]bool{}
	out := in[:0]
	for _, s := range in {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// assemble builds a module from a spec, converts the requested number of
// private biased sites into data sites, and registers it. Callers hold mu.
func (c *Catalog) assemble(name string, spec moduleSpec) *Module {
	m := &Module{Name: name, ID: c.nextID, set: make([]uint64, (len(c.funcs)+63)/64), cat: c}
	c.nextID++
	for _, lib := range spec.libs {
		funcs, ok := c.libs[lib]
		if !ok {
			panic("codemodel: module " + name + " references unknown library " + lib)
		}
		m.Funcs = append(m.Funcs, funcs...)
		for _, f := range funcs {
			m.set[f.idx/64] |= 1 << (f.idx % 64)
		}
	}
	if spec.cold != "" {
		m.Cold = append(m.Cold, c.libs[spec.cold]...)
	}
	m.finalize()
	// Claim data sites from private (non-shared) code, spread across the
	// module's site list.
	converted := 0
	for i := range m.sites {
		if converted >= spec.dataSites {
			break
		}
		// Walk backwards so data sites land in operator-private code,
		// which is laid out after the shared libraries.
		j := len(m.sites) - 1 - i
		if m.sites[j].Kind == SiteBiased {
			m.sites[j].Kind = SiteData
			converted++
		}
	}
	m.finalizeDataIdx()
	c.modules[name] = m
	return m
}

// finalizeDataIdx recomputes the data-site positions after site conversion.
func (m *Module) finalizeDataIdx() {
	m.dataIdx = m.dataIdx[:0]
	for i, s := range m.sites {
		if s.Kind == SiteData {
			m.dataIdx = append(m.dataIdx, i)
		}
	}
}

// Modules returns all instantiated modules in name order.
func (c *Catalog) Modules() []*Module {
	c.mu.Lock()
	defer c.mu.Unlock()
	names := make([]string, 0, len(c.modules))
	for n := range c.modules {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]*Module, len(names))
	for i, n := range names {
		out[i] = c.modules[n]
	}
	return out
}

// TextSegmentBytes returns the extent of the simulated text segment, used
// by the CPU simulator to place the data heap above the code.
func (c *Catalog) TextSegmentBytes() uint64 { return c.nextAddr }

// FunctionAt returns the function whose body contains addr, or nil when
// addr falls into inter-function padding. It backs the dynamic call-graph
// recorder, which maps observed instruction fetches back to functions.
func (c *Catalog) FunctionAt(addr uint64) *Function {
	// funcs is in address order and fixed at construction, so the search
	// needs no lock.
	lo, hi := 0, len(c.funcs)
	for lo < hi {
		mid := (lo + hi) / 2
		f := c.funcs[mid]
		switch {
		case addr < f.Addr:
			hi = mid
		case addr >= f.Addr+uint64(f.Size):
			lo = mid + 1
		default:
			return f
		}
	}
	return nil
}
