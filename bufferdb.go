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
//	res, err = db.Query(ctx, `SELECT ...`, bufferdb.WithEngine(bufferdb.EngineVec))
//	an, err := db.ExplainAnalyze(ctx, `SELECT ...`)
//	fmt.Println(an) // per-operator rows, buffer drains, simulated cycle attribution
//	prof, err := db.Profile(`SELECT ...`)
//	fmt.Println(prof.Buffered.L1IMisses, "instruction cache misses after refinement")
package bufferdb

import (
	"context"
	"fmt"
	"strings"
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

// Engine names an execution model for WithEngine. The name round-trips
// through ParseEngine and Engine.String; those two are the only places in
// the tree that may compare or produce engine-name strings.
type Engine string

// Available engines.
const (
	// EngineVolcano is the default tuple-at-a-time iterator engine, with
	// buffer operators inserted by plan refinement.
	EngineVolcano Engine = "volcano"
	// EngineVec is the block-oriented (vectorized) engine: operators with
	// batch variants exchange 1024-tuple batches; the rest run as Volcano
	// islands behind adapters.
	EngineVec Engine = "vec"
	// EnginePush is the push-fused compiled engine: each execution group
	// runs as a single producer-driven loop, materializing only at
	// pipeline breakers; uncovered plan nodes run as Volcano islands
	// behind adapter sources.
	EnginePush Engine = "push"
)

// String returns the engine's display name.
func (e Engine) String() string { return string(e) }

// EngineNames lists every selectable engine name, in display order.
func EngineNames() []string { return plan.EngineNames() }

// ParseEngine resolves an engine name through the planner's canonical
// parser — the single engine-name parser in the tree. Every consumer (CLI
// flags, daemon config, the wire protocol's ExecOptions decoding, REPL
// meta-commands) routes through it, so an unknown name always surfaces a
// wrapped ErrUnknownEngine carrying the offending name and the valid set,
// and adding an engine to plan.Engines makes it selectable everywhere.
func ParseEngine(name string) (Engine, error) {
	pe, err := plan.ParseEngine(name)
	if err != nil {
		return "", fmt.Errorf("bufferdb: %w %q (valid: %s)", ErrUnknownEngine, name, strings.Join(EngineNames(), ", "))
	}
	return Engine(pe.String()), nil
}

// QueryOptions tune a single statement. Callers set them through the
// functional QueryOption values (WithEngine, WithBufferSize, …) passed to
// Query, QueryStream, ExplainAnalyze and Prepare; the struct remains
// exported for bulk entry points like Profile that take a whole bundle.
type QueryOptions struct {
	// ForceJoin selects the join algorithm: "hash", "nestloop", "merge".
	ForceJoin string
	// DisableRefinement runs the conventional plan for this query.
	DisableRefinement bool
	// BufferSize is the capacity of the buffers refinement inserts
	// (0 = the paper's default, 1024 tuples).
	BufferSize int
	// Engine runs this statement on the named engine ("" = EngineVolcano).
	Engine Engine
	// MemoryBudget caps this query's tracked allocations in bytes
	// (0 = no per-query cap; the database MemoryLimit still applies).
	MemoryBudget int64
	// Timeout bounds the query's wall clock from admission through
	// execution; expiry surfaces a wrapped ErrDeadlineExceeded. A deadline
	// on the caller's context applies as well.
	Timeout time.Duration
	// AdmissionWait overrides the database's admission WaitTimeout for
	// this query (0 keeps the database default).
	AdmissionWait time.Duration
	// FaultInjector injects deterministic faults at operator boundaries
	// for testing; nil (the default) costs nothing. See NewFaultInjector.
	FaultInjector *FaultInjector
	// NoReuse opts this statement out of the semantic reuse cache: it
	// neither adopts published intermediates nor publishes its own.
	NoReuse bool
}

// QueryOption is a functional per-statement option.
type QueryOption func(*QueryOptions)

// WithEngine runs the statement on the given execution engine.
func WithEngine(e Engine) QueryOption {
	return func(o *QueryOptions) { o.Engine = e }
}

// WithForceJoin forces the join algorithm: "hash", "nestloop", "merge".
func WithForceJoin(method string) QueryOption {
	return func(o *QueryOptions) { o.ForceJoin = method }
}

// WithBufferSize overrides the capacity of buffers the refinement pass
// inserts for this statement.
func WithBufferSize(n int) QueryOption {
	return func(o *QueryOptions) { o.BufferSize = n }
}

// WithoutRefinement runs the conventional (unbuffered) plan.
func WithoutRefinement() QueryOption {
	return func(o *QueryOptions) { o.DisableRefinement = true }
}

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

// WithAdmissionWait overrides how long this query may queue for an
// execution slot before being shed with ErrServerBusy.
func WithAdmissionWait(d time.Duration) QueryOption {
	return func(o *QueryOptions) { o.AdmissionWait = d }
}

// WithFaultInjector attaches a deterministic fault injector to this
// query's execution — a testing hook; see NewFaultInjector.
func WithFaultInjector(fi *FaultInjector) QueryOption {
	return func(o *QueryOptions) { o.FaultInjector = fi }
}

// WithoutReuse opts this statement out of the semantic reuse cache: it
// neither adopts published intermediates nor publishes its own.
func WithoutReuse() QueryOption {
	return func(o *QueryOptions) { o.NoReuse = true }
}

// applyOptions folds functional options into a QueryOptions value.
func applyOptions(opts []QueryOption) QueryOptions {
	var qo QueryOptions
	for _, opt := range opts {
		opt(&qo)
	}
	return qo
}

// DB is one memory-resident database with its code model. A DB is safe
// for concurrent use: the catalog and code model are read-only after load
// (the code model's lazy module assembly is internally synchronized), and
// every query executes on its own exec.Context with private simulated-CPU
// state. Engine and refinement are chosen per statement (WithEngine,
// WithoutRefinement); the refinement threshold is
// plan.DefaultCardinalityThreshold.
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

// planEngine maps the statement's engine (EngineVolcano when unset) to the
// compiler's engine switch through the canonical ParseEngine round-trip.
// Unknown names are rejected rather than silently running on Volcano.
func planEngine(qo QueryOptions) (Engine, plan.Engine, error) {
	e := qo.Engine
	if e == "" {
		e = EngineVolcano
	}
	pe, err := plan.ParseEngine(e.String())
	if err != nil {
		return e, 0, fmt.Errorf("bufferdb: %w %q (valid: %s)", ErrUnknownEngine, e, strings.Join(EngineNames(), ", "))
	}
	return e, pe, nil
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
	db := &DB{opts: opts, governor: gov, epochs: reuse.NewEpochs()}
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
// epochs of the tables they read and revalidate on lookup, so a write
// invalidates exactly its dependents.
func (db *DB) TableEpoch(table string) uint64 { return db.epochs.Of(table) }

// TableEpochs snapshots the write epochs of the given tables.
func (db *DB) TableEpochs(tables []string) map[string]uint64 { return db.epochs.Snapshot(tables) }

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

// plan builds the physical plan for a statement, refined unless the
// statement runs WithoutRefinement.
func (db *DB) plan(query string, qo QueryOptions) (*plan.Node, error) {
	_, p, err := db.planPair(query, qo, !qo.DisableRefinement)
	return p, err
}

// planPair plans a statement and, when refine is set, refines it at
// plan.DefaultCardinalityThreshold with the statement's buffer size; without
// refine both results are the conventional plan. It is the one refinement
// step Query, Explain and Profile share.
func (db *DB) planPair(query string, qo QueryOptions, refine bool) (conventional, refined *plan.Node, err error) {
	p, err := sql.PlanQuery(query, db.cat, sql.Options{ForceJoin: sql.JoinMethod(qo.ForceJoin)})
	if err != nil || !refine {
		return p, p, err
	}
	r, _, err := plan.Refine(p, db.cm, plan.RefineOptions{
		CardinalityThreshold: plan.DefaultCardinalityThreshold,
		BufferSize:           qo.BufferSize,
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

// Query plans (with refinement, unless disabled), executes, and returns the
// materialized result. Per-statement tuning rides on functional options:
//
//	res, err := db.Query(ctx, sql, bufferdb.WithEngine(bufferdb.EngineVec),
//	    bufferdb.WithBufferSize(256))
//
// The context cancels the query mid-execution. Use QueryStream to consume
// large results incrementally.
func (db *DB) Query(ctx context.Context, query string, opts ...QueryOption) (*Result, error) {
	return db.queryMaterialized(ctx, query, applyOptions(opts))
}

// queryMaterialized drains a streaming cursor into a Result.
func (db *DB) queryMaterialized(ctx context.Context, query string, qo QueryOptions) (*Result, error) {
	rows, err := db.queryStream(ctx, query, qo)
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

// Explain returns the conventional and the refined plan for a statement.
// Options are the same variadic set Query takes.
func (db *DB) Explain(query string, opts ...QueryOption) (original, refined string, err error) {
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
// planned, once refined — and reports the paper's comparison metrics.
// Options are the same variadic set Query takes.
func (db *DB) Profile(query string, opts ...QueryOption) (*Profile, error) {
	qo := applyOptions(opts)
	p, refined, err := db.planPair(query, qo, true)
	if err != nil {
		return nil, err
	}

	run := func(node *plan.Node) (RunStats, uint64, error) {
		cpu, err := cpusim.New(cpusim.DefaultConfig(), db.cm.TextSegmentBytes())
		if err != nil {
			return RunStats{}, 0, err
		}
		placements := exec.PlaceCatalog(cpu, db.cat)
		op, err := plan.Build(node, db.cm)
		if err != nil {
			return RunStats{}, 0, err
		}
		rows, err := exec.Run(&exec.Context{Catalog: db.cat, CPU: cpu, Placements: placements}, op)
		if err != nil {
			return RunStats{}, 0, err
		}
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
		}, exec.HashRows(rows), nil
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
