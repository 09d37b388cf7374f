// Package bufferdb is a main-memory SQL query engine that reproduces
// Zhou & Ross, "Buffering Database Operations for Enhanced Instruction
// Cache Performance" (SIGMOD 2004).
//
// The engine executes a demand-pull (Volcano-style) operator pipeline over
// a memory-resident TPC-H database, and implements the paper's
// contribution: a light-weight buffer operator plus an instruction-
// footprint-driven plan refinement pass that inserts buffers where they
// eliminate L1 instruction-cache thrashing. Every query can optionally run
// against a cycle-approximate simulated CPU (caches, ITLB, branch
// predictor) whose counters regenerate the paper's figures and tables.
//
// Typical use:
//
//	db, err := bufferdb.OpenTPCH(0.01, bufferdb.Options{})
//	res, err := db.Query(ctx, `SELECT COUNT(*) FROM lineitem WHERE l_shipdate <= DATE '1995-06-17'`)
//	an, err := db.ExplainAnalyze(ctx, `SELECT ...`, bufferdb.WithEngine(bufferdb.EngineVec))
//	fmt.Println(an) // per-operator rows, buffer drains, simulated cycle attribution
//	prof, err := db.Profile(`SELECT ...`)
//	fmt.Println(prof.Buffered.L1IMisses, "instruction cache misses after refinement")
package bufferdb

import (
	"context"
	"fmt"
	"sync"
	"time"

	"bufferdb/internal/codemodel"
	"bufferdb/internal/cpusim"
	"bufferdb/internal/exec"
	"bufferdb/internal/pager"
	"bufferdb/internal/plan"
	"bufferdb/internal/reuse"
	"bufferdb/internal/shard"
	"bufferdb/internal/sql"
	"bufferdb/internal/storage"
	"bufferdb/internal/tpch"
)

// Options configures a database instance.
type Options struct {
	// Seed fixes TPC-H data generation (0 = default seed).
	Seed uint64
	// MemoryLimit caps the bytes all concurrently executing queries may
	// hold in tracked allocations (hash tables, sort buffers, buffer
	// arrays). 0 disables process-wide tracking; queries
	// then only track when they carry a WithMemoryBudget of their own.
	MemoryLimit int64
	// Admission bounds concurrent query execution; the zero value disables
	// admission control. See AdmissionConfig.
	Admission AdmissionConfig
	// DataDir, when set, backs the database with the persistent storage
	// tier (internal/pager): tables live in slotted-page heap files and
	// stream through a buffer pool, INSERT works and survives restarts via
	// the write-ahead log. OpenTPCH loads an existing data directory when
	// one is present and otherwise generates and persists the dataset.
	DataDir string
	// PoolBytes bounds buffer-pool residency in bytes (0 = 4 MiB). With a
	// MemoryLimit set, pool residency is charged against it, so the page
	// cache and executing queries compete under one budget.
	PoolBytes int64
	// ShardCount, when > 1, loads this database as one shard of a
	// hash-partitioned deployment: OpenTPCH generates the full dataset
	// (deterministically, from Seed) and keeps only the rows the default
	// TPC-H shard map assigns to ShardIndex; replicated tables stay whole.
	// Incompatible with DataDir. ShardIndex must be in [0, ShardCount).
	ShardCount int
	// ShardIndex is this node's position in [0, ShardCount).
	ShardIndex int
	// ReuseCache enables the semantic reuse cache: completed hash-join
	// build sides and aggregate tables are published process-wide and
	// spliced into later queries whose normalized subplan fingerprints
	// match — across engines, prepared and ad-hoc statements alike.
	// Results are bit-identical with the cache on or off; an INSERT into a
	// referenced table invalidates exactly its dependent entries.
	ReuseCache bool
	// ReuseMaxBytes bounds the reuse cache's resident payload bytes
	// (0 = 64 MiB). With a MemoryLimit set, cached intermediates are
	// charged against it through ReserveMemory.
	ReuseMaxBytes int64
}

// Engine names an execution model for WithEngine. It is the planner's
// engine type: the zero value is EngineVolcano, and the name round-trips
// through ParseEngine and Engine.String.
type Engine = plan.Engine

// Available engines.
const (
	// EngineVolcano is the tuple-at-a-time iterator engine every served
	// statement runs on, with buffer operators inserted by plan refinement.
	EngineVolcano = plan.EngineVolcano
	// EngineVec is the block-oriented (vectorized) engine: operators with
	// batch variants exchange 1024-tuple batches; the rest run as Volcano
	// islands behind adapters.
	EngineVec = plan.EngineVec
	// EnginePush is the push-fused compiled engine: each execution group
	// runs as a single producer-driven loop, materializing only at
	// pipeline breakers; uncovered plan nodes run as Volcano islands
	// behind adapter sources.
	EnginePush = plan.EnginePush
)

// EngineNames lists every selectable engine name, in display order.
func EngineNames() []string { return plan.EngineNames() }

// ParseEngine resolves an engine name through the planner's canonical
// parser — the single engine-name parser in the tree. The shell's -engine
// flag and \engine command route through it, so an unknown name always
// surfaces a wrapped ErrUnknownEngine carrying the offending name and the
// valid set.
func ParseEngine(name string) (Engine, error) {
	return plan.ParseEngine(name)
}

// QueryOptions tune a single served statement. Callers set them through
// the functional QueryOption values passed to Query, QueryStream and
// Prepare.
type QueryOptions struct {
	// MemoryBudget caps this query's tracked allocations in bytes
	// (0 = no per-query cap; the database MemoryLimit still applies).
	MemoryBudget int64
	// Timeout bounds the query's wall clock from admission through
	// execution; expiry surfaces a wrapped ErrDeadlineExceeded. A deadline
	// on the caller's context applies as well.
	Timeout time.Duration
	// FaultInjector injects deterministic faults at operator boundaries
	// for testing; nil (the default) costs nothing. See NewFaultInjector.
	FaultInjector *FaultInjector
}

// QueryOption is a functional per-statement option of a served statement.
type QueryOption func(*QueryOptions)

// WithMemoryBudget caps this query's tracked allocations at n bytes;
// exceeding it fails the query with a wrapped ErrMemoryBudgetExceeded.
func WithMemoryBudget(n int64) QueryOption {
	return func(o *QueryOptions) { o.MemoryBudget = n }
}

// WithTimeout bounds the query's wall clock, covering any admission wait;
// expiry surfaces a wrapped ErrDeadlineExceeded.
func WithTimeout(d time.Duration) QueryOption {
	return func(o *QueryOptions) { o.Timeout = d }
}

// WithFaultInjector attaches a deterministic fault injector to this
// query's execution — a testing hook; see NewFaultInjector.
func WithFaultInjector(fi *FaultInjector) QueryOption {
	return func(o *QueryOptions) { o.FaultInjector = fi }
}

// PlanOptions are the paper's reproduction knobs. Only Explain,
// ExplainAnalyze and Profile take them, through PlanOption values; a served
// statement always runs on Volcano with the planner's join choice, refined
// at plan.DefaultCardinalityThreshold with the paper's buffer size.
type PlanOptions struct {
	// Engine runs the statement on the given engine (zero value:
	// EngineVolcano).
	Engine Engine
	// ForceJoin selects the join algorithm: "hash", "nestloop", "merge".
	ForceJoin string
	// DisableRefinement analyzes the conventional plan.
	DisableRefinement bool
	// BufferSize is the capacity of the buffers refinement inserts
	// (0 = the paper's default, 1024 tuples).
	BufferSize int
}

// PlanOption is a functional option of a reproduction entry point.
type PlanOption func(*PlanOptions)

// WithEngine runs the statement on the given execution engine; a value
// that names no engine fails Explain, ExplainAnalyze and Profile alike with
// a wrapped ErrUnknownEngine.
func WithEngine(e Engine) PlanOption {
	return func(o *PlanOptions) { o.Engine = e }
}

// WithForceJoin forces the join algorithm: "hash", "nestloop", "merge".
func WithForceJoin(method string) PlanOption {
	return func(o *PlanOptions) { o.ForceJoin = method }
}

// WithBufferSize overrides the capacity of buffers the refinement pass
// inserts for this statement.
func WithBufferSize(n int) PlanOption {
	return func(o *PlanOptions) { o.BufferSize = n }
}

// WithoutRefinement analyzes the conventional (unbuffered) plan in Explain
// and ExplainAnalyze. Profile ignores it: it always runs both plans.
func WithoutRefinement() PlanOption {
	return func(o *PlanOptions) { o.DisableRefinement = true }
}

// applyOptions folds functional options into their options value.
func applyOptions[O any, F ~func(*O)](opts []F) O {
	var o O
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// DB is one memory-resident database with its code model. A DB is safe
// for concurrent use: the catalog and code model are read-only after load
// (the code model's lazy module assembly is internally synchronized), and
// every query executes on its own exec.Context with private simulated-CPU
// state. Served statements run Volcano, refined at
// plan.DefaultCardinalityThreshold; the reproduction entry points choose
// engine and refinement per statement (PlanOption).
type DB struct {
	opts Options

	cat *storage.Catalog

	// governor is the process-level state: the code model, memory tracker
	// and admission controller. The slices of one replicated node hold
	// copies of one governor, so they share all three.
	governor

	// store is the persistent storage tier when Options.DataDir is set;
	// poolMem is the tracker charged with buffer-pool residency (a child of
	// mem when a MemoryLimit exists). closed makes Close idempotent.
	store   *pager.Store
	poolMem *exec.MemTracker
	closed  sync.Once

	// epochs tracks per-table write epochs (always present); reuseCache is
	// the semantic reuse cache when Options.ReuseCache is set (nil
	// otherwise). Fingerprints name tables, so both are per catalog.
	epochs     *reuse.Epochs
	reuseCache *reuse.Cache

	// plans holds the served path's plan templates (see DB.plan).
	plans *planCache
}

// governor is what every query of a process is charged against. mem is the
// process-wide memory tracker (nil when Options.MemoryLimit is 0); every
// query's tracker is its child. adm is the admission controller (nil when
// disabled).
type governor struct {
	cm  *codemodel.Catalog
	mem *exec.MemTracker
	adm *admission
}

// newGovernor builds the process-level state Options asks for.
func newGovernor(opts Options) governor {
	g := governor{cm: codemodel.NewCatalog(), adm: newAdmission(opts.Admission)}
	if opts.MemoryLimit > 0 {
		g.mem = exec.NewMemTracker("process", opts.MemoryLimit, nil)
	}
	return g
}

// OpenTPCH generates a TPC-H database at the given scale factor (the paper
// evaluates at 0.2; 0.01–0.05 is comfortable for interactive use). A scale
// factor that is zero, negative, NaN or infinite is rejected with a wrapped
// ErrBadScaleFactor rather than generating an empty or garbage catalog.
func OpenTPCH(scaleFactor float64, opts Options) (*DB, error) {
	if opts.DataDir != "" {
		if opts.ShardCount > 1 {
			return nil, fmt.Errorf("bufferdb: ShardCount is incompatible with DataDir (the persistent tier is single-node)")
		}
		return openTPCHPersistent(scaleFactor, opts)
	}
	cat, err := tpch.Generate(tpch.Config{ScaleFactor: scaleFactor, Seed: opts.Seed})
	if err != nil {
		return nil, err
	}
	if opts.ShardCount > 1 {
		cat, err = shard.Filter(cat, shard.DefaultTPCH(), opts.ShardIndex, opts.ShardCount)
		if err != nil {
			return nil, err
		}
	}
	db := newDB(opts, newGovernor(opts))
	db.cat = cat
	return db, nil
}

// OpenTPCHReplicas opens one database per hosted slice for a replicated
// shard node: the full TPC-H dataset is generated once (deterministically,
// from opts.Seed, so every node derives identical slices) and filtered down
// to each requested slice index. opts.ShardCount must name the fleet-wide
// slice count; opts.ShardIndex is ignored in favor of the explicit slice
// list. Replicated dimension tables are shared by reference across the
// returned databases — only the sharded tables cost per-slice memory. The
// databases share one code model, memory tracker and admission controller,
// so opts.MemoryLimit and opts.Admission bound the node, not each slice.
func OpenTPCHReplicas(scaleFactor float64, opts Options, slices []int) (map[int]*DB, error) {
	if opts.DataDir != "" {
		return nil, fmt.Errorf("bufferdb: replicated slices are incompatible with DataDir (the persistent tier is single-node)")
	}
	if opts.ShardCount < 1 {
		return nil, fmt.Errorf("bufferdb: OpenTPCHReplicas requires ShardCount >= 1")
	}
	if len(slices) == 0 {
		return nil, fmt.Errorf("bufferdb: OpenTPCHReplicas requires at least one slice")
	}
	full, err := tpch.Generate(tpch.Config{ScaleFactor: scaleFactor, Seed: opts.Seed})
	if err != nil {
		return nil, err
	}
	gov := newGovernor(opts)
	out := make(map[int]*DB, len(slices))
	for _, idx := range slices {
		cat, err := shard.Filter(full, shard.DefaultTPCH(), idx, opts.ShardCount)
		if err != nil {
			return nil, err
		}
		sliceOpts := opts
		sliceOpts.ShardIndex = idx
		db := newDB(sliceOpts, gov)
		db.cat = cat
		out[idx] = db
	}
	return out, nil
}

// newDB builds the engine side of a database over gov without a catalog;
// callers attach one.
func newDB(opts Options, gov governor) *DB {
	db := &DB{opts: opts, governor: gov, epochs: reuse.NewEpochs(), plans: newPlanCache()}
	if opts.ReuseCache {
		maxBytes := opts.ReuseMaxBytes
		if maxBytes <= 0 {
			maxBytes = DefaultReuseMaxBytes
		}
		db.reuseCache = reuse.New(maxBytes, db.epochs, db.ReserveMemory)
	}
	return db
}

// DefaultReuseMaxBytes is the reuse cache's payload bound when
// Options.ReuseMaxBytes is zero.
const DefaultReuseMaxBytes int64 = 64 << 20

// ReuseStats is a point-in-time snapshot of the semantic reuse cache's
// counters; the zero value means the cache is disabled.
type ReuseStats struct {
	Hits          uint64
	Misses        uint64
	Evictions     uint64
	Invalidations uint64
	Entries       int
	Bytes         int64
	MaxBytes      int64
}

// ReuseStats snapshots the semantic reuse cache's counters (zero value when
// Options.ReuseCache is off).
func (db *DB) ReuseStats() ReuseStats {
	s := db.reuseCache.Stats()
	return ReuseStats{
		Hits:          s.Hits,
		Misses:        s.Misses,
		Evictions:     s.Evictions,
		Invalidations: s.Invalidations,
		Entries:       s.Entries,
		Bytes:         s.Bytes,
		MaxBytes:      s.MaxBytes,
	}
}

// TableEpoch reports a table's write epoch: it starts at zero and each
// INSERT into the table bumps it. Server-side caches tag entries with the
// epochs of the tables they read (Rows.ReadSet) and revalidate before
// storing, so a write invalidates exactly its dependents.
func (db *DB) TableEpoch(table string) uint64 { return db.epochs.Of(table) }

// TrackedBytes reports the bytes currently charged against the database's
// memory limit by executing queries; 0 when no MemoryLimit is set. Idle
// databases report 0 — a nonzero value with no query running indicates an
// accounting leak.
func (db *DB) TrackedBytes() int64 { return db.mem.Bytes() }

// ReserveMemory charges n bytes of subsystem memory — server-side plan and
// result caches, wire buffers — against the database's MemoryLimit, so
// caches built on top of the engine compete with executing queries for the
// same budget instead of growing outside it. The returned release function
// returns the bytes; it is idempotent. With no MemoryLimit configured the
// reservation is accepted untracked. A rejected reservation wraps
// ErrMemoryBudgetExceeded.
func (db *DB) ReserveMemory(name string, n int64) (release func(), err error) {
	if db.mem == nil {
		return func() {}, nil
	}
	t := exec.NewMemTracker(name, 0, db.mem)
	if err := t.Grow(n); err != nil {
		return nil, err
	}
	var once sync.Once
	return func() {
		once.Do(func() { t.Shrink(n) })
	}, nil
}

// Tables lists the table names in the database.
func (db *DB) Tables() []string {
	var out []string
	for _, t := range db.cat.Tables() {
		out = append(out, t.Name())
	}
	return out
}

// RowCount returns a table's cardinality.
func (db *DB) RowCount(table string) (int, error) {
	t, err := db.cat.Table(table)
	if err != nil {
		return 0, err
	}
	return t.NumRows(), nil
}

// plan builds the served plan of a statement: the planner's join choice,
// refined at plan.DefaultCardinalityThreshold with the paper's buffer size.
// Texts that differ only in their bound literals and output aliases
// (sql.Shape) share one plan template: the first is planned fresh and its
// plan kept; each later one clones the template, re-binds its own literals
// and takes its own output column names (plan.Bind), skipping parse,
// analysis — the selectivity samples included — and refinement. A
// bound plan therefore keeps the first text's estimates and buffer
// placement. A bind that fails plans the text fresh, so a client always sees
// the fresh path's error, and a failed plan is never kept.
func (db *DB) plan(query string) (*plan.Node, error) {
	shape, err := sql.Lex(query)
	if err != nil {
		metricPlanCache("misses").Inc()
		return nil, err
	}
	if t := db.plans.get(shape.Key()); t != nil {
		if p, err := plan.Bind(t, shape.Arg, shape.Names(t.Schema())); err == nil {
			metricPlanCache("hits").Inc()
			return p, nil
		}
	}
	metricPlanCache("misses").Inc()
	stmt, err := shape.Parse()
	if err != nil {
		return nil, err
	}
	_, p, err := db.planStmt(stmt, PlanOptions{}, true)
	if err != nil {
		return nil, err
	}
	db.plans.put(shape.Key(), p)
	return plan.Clone(p), nil
}

// planPair plans a statement with po's join method and, when refine is set,
// refines it at plan.DefaultCardinalityThreshold with po's buffer size;
// without refine both results are the conventional plan. It is the one
// refinement step Query, Explain and Profile share, and it rejects an
// unknown po.Engine for all of them. It never consults the plan cache.
func (db *DB) planPair(query string, po PlanOptions, refine bool) (conventional, refined *plan.Node, err error) {
	if err := po.Engine.Check(); err != nil {
		return nil, nil, err
	}
	stmt, err := sql.Parse(query)
	if err != nil {
		return nil, nil, err
	}
	return db.planStmt(stmt, po, refine)
}

// planStmt is planPair after parsing.
func (db *DB) planStmt(stmt *sql.SelectStmt, po PlanOptions, refine bool) (conventional, refined *plan.Node, err error) {
	p, err := sql.Analyze(stmt, db.cat, sql.Options{ForceJoin: sql.JoinMethod(po.ForceJoin)})
	if err != nil || !refine {
		return p, p, err
	}
	r, _, err := plan.Refine(p, db.cm, plan.RefineOptions{
		CardinalityThreshold: plan.DefaultCardinalityThreshold,
		BufferSize:           po.BufferSize,
	})
	if err != nil {
		return nil, nil, err
	}
	return p, r, nil
}

// Result is a query result with native Go values.
type Result struct {
	// Columns names the output attributes.
	Columns []string
	// Rows holds one slice per result row; cell types are int64, float64,
	// string, bool, time.Time, or nil for SQL NULL.
	Rows [][]any
}

// Query plans the statement (refined, on Volcano), executes it, and
// returns the materialized result. Per-statement limits ride on functional
// options:
//
//	res, err := db.Query(ctx, sql, bufferdb.WithTimeout(time.Second),
//	    bufferdb.WithMemoryBudget(64<<20))
//
// The context cancels the query mid-execution. Use QueryStream to consume
// large results incrementally.
func (db *DB) Query(ctx context.Context, query string, opts ...QueryOption) (*Result, error) {
	return collect(db.queryStream(ctx, query, applyOptions(opts)))
}

// collect drains a streaming cursor into a Result.
func collect(rows *Rows, err error) (*Result, error) {
	if err != nil {
		return nil, err
	}
	defer rows.Close()
	res := &Result{Columns: rows.Columns()}
	for rows.Next() {
		res.Rows = append(res.Rows, rows.row.Natives(nil))
	}
	if err := rows.Err(); err != nil {
		return nil, err
	}
	if err := rows.Close(); err != nil {
		return nil, err
	}
	return res, nil
}

// Explain returns the conventional and the refined plan for a statement,
// planned and refined with the statement's join method and buffer size.
func (db *DB) Explain(query string, opts ...PlanOption) (original, refined string, err error) {
	p, r, err := db.planPair(query, applyOptions(opts), true)
	if err != nil {
		return "", "", err
	}
	return plan.Explain(p), plan.Explain(r), nil
}

// RunStats are the simulated hardware counters of one plan execution.
type RunStats struct {
	ElapsedSec  float64
	CPI         float64
	Cycles      float64
	Uops        uint64
	L1IMisses   uint64
	L1DMisses   uint64
	L2Misses    uint64
	ITLBMisses  uint64
	Branches    uint64
	Mispredicts uint64
}

// runStats reads a finished run's counters off its simulated CPU.
func runStats(cpu *cpusim.CPU) RunStats {
	ctr := cpu.Counters()
	return RunStats{
		ElapsedSec:  cpu.ElapsedSeconds(),
		CPI:         cpu.CPI(),
		Cycles:      cpu.TotalCycles(),
		Uops:        ctr.Uops,
		L1IMisses:   ctr.L1IMisses,
		L1DMisses:   ctr.L1DMisses,
		L2Misses:    ctr.L2Misses + ctr.L2MissesPrefetched,
		ITLBMisses:  ctr.ITLBMisses,
		Branches:    ctr.Branches,
		Mispredicts: ctr.Mispredicts,
	}
}

// Profile compares the conventional and the refined plan of a statement on
// the simulated CPU.
type Profile struct {
	Original RunStats
	Buffered RunStats
	// ImprovementPct is the relative simulated-time gain of the refined plan.
	ImprovementPct float64
	// BuffersInserted counts buffer operators the refinement added.
	BuffersInserted int
}

// Profile executes a statement twice on fresh simulated CPUs — once as
// planned, once refined — on the statement's engine, and reports the
// paper's comparison metrics.
func (db *DB) Profile(query string, opts ...PlanOption) (*Profile, error) {
	po := applyOptions(opts)
	p, refined, err := db.planPair(query, po, true)
	if err != nil {
		return nil, err
	}

	run := func(node *plan.Node) (RunStats, uint64, error) {
		cpu, err := cpusim.New(cpusim.DefaultConfig(), db.cm.TextSegmentBytes())
		if err != nil {
			return RunStats{}, 0, err
		}
		placements := exec.PlaceCatalog(cpu, db.cat)
		op, err := plan.Compile(node, db.cm, po.Engine)
		if err != nil {
			return RunStats{}, 0, err
		}
		rows, err := exec.Run(&exec.Context{Catalog: db.cat, CPU: cpu, Placements: placements}, op)
		if err != nil {
			return RunStats{}, 0, err
		}
		return runStats(cpu), exec.HashRows(rows), nil
	}

	orig, hashA, err := run(p)
	if err != nil {
		return nil, err
	}
	buf, hashB, err := run(refined)
	if err != nil {
		return nil, err
	}
	if hashA != hashB {
		return nil, fmt.Errorf("bufferdb: refined plan changed the result (hash %x vs %x)", hashB, hashA)
	}
	prof := &Profile{
		Original:        orig,
		Buffered:        buf,
		BuffersInserted: plan.CountKind(refined, plan.KindBuffer),
	}
	if orig.ElapsedSec > 0 {
		prof.ImprovementPct = (1 - buf.ElapsedSec/orig.ElapsedSec) * 100
	}
	return prof, nil
}
