// Package exec implements the demand-pull (Volcano-style) query execution
// engine: open/next/close iterators for scans, joins, sorting and
// aggregation, in the mold of the PostgreSQL executor the paper studies.
//
// Every operator is instrumented: each Next() invocation replays the
// operator's synthetic instruction footprint (internal/codemodel) through
// the simulated CPU (internal/cpusim) and models its tuple traffic through
// the simulated data caches. Running a plan therefore produces both the real
// query result and the hardware-counter profile the paper's figures are
// built from. With a nil CPU the engine runs uninstrumented at full speed,
// which is what the correctness tests and the wall-clock benchmarks use.
package exec

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"

	"bufferdb/internal/codemodel"
	"bufferdb/internal/cpusim"
	"bufferdb/internal/faultinject"
	"bufferdb/internal/storage"
)

// Operator is the open-next-close iterator interface (paper §4). Next
// returns (nil, nil) at end of stream. An operator may be reopened after
// Close; Open must reset all state. Which footprint module a node has and
// whether it blocks are facts of the plan (plan.Node), where refinement
// reads them.
type Operator interface {
	Open(ctx *Context) error
	Next(ctx *Context) (storage.Row, error)
	Close(ctx *Context) error
	// Schema describes the rows Next produces.
	Schema() storage.Schema
	// Children returns the input operators, outer first.
	Children() []Operator
	// Name is a short display name for EXPLAIN and traces.
	Name() string
}

// Rescannable is implemented by inner operators of a nested-loop join: the
// join repositions them with a new key for every outer tuple.
type Rescannable interface {
	Operator
	// Rescan resets the operator to produce the rows matching key.
	Rescan(key storage.Value) error
}

// Context carries per-execution state: the catalog, the (optional) CPU
// simulator, the (optional) invocation tracer, the (optional) cancellation
// context and the simulated table placements of this run.
//
// A Context belongs to exactly one executing plan; concurrent queries each
// build their own. Nothing a Context points to is mutated through it except
// the CPU and tracer, which are also per-execution.
type Context struct {
	Catalog *storage.Catalog
	// CPU is the simulated processor; nil runs uninstrumented.
	CPU *cpusim.CPU
	// Trace, when non-nil, records the operator invocation sequence
	// (paper Fig. 1).
	Trace *Tracer
	// Ctx, when non-nil, cancels the execution: Run and the long-running
	// leaf operators poll it and abort with its error.
	Ctx context.Context
	// Placements maps tables to their simulated addresses for this
	// execution (see PlaceCatalog); nil skips data-cache modeling.
	Placements Placements
	// Stats, when non-nil, collects per-operator runtime counters for this
	// execution (see StatsCollector). Operators cache their handle at Open
	// via StatsFor, so a nil collector costs one branch per invocation.
	Stats *StatsCollector
	// Mem, when non-nil, is this execution's memory tracker: allocating
	// operators charge retained bytes through GrowMem and a query that
	// outgrows its budget aborts with ErrMemoryBudgetExceeded. Nil runs
	// unaccounted at zero cost.
	Mem *MemTracker
	// Fault, when non-nil, arms deterministic fault injection: operators
	// resolve their sites at Open via FaultPoint and fire them on the hot
	// path. Nil (the production configuration) costs one branch at Open.
	Fault *faultinject.Injector

	// bitsState seeds the pseudo-random data-branch outcome stream.
	bitsState uint64
	// cancelTick counts cancellation polls so Ctx.Err is consulted only
	// every cancelEvery calls on the hot path.
	cancelTick uint
}

// cancelEvery is the polling interval (in Canceled calls) for cancellation
// checks: frequent enough that a scan aborts within microseconds, sparse
// enough to be invisible in per-tuple cost.
const cancelEvery = 64

// Canceled reports a pending cancellation. The first call after Context
// creation checks immediately; later calls poll every cancelEvery-th
// invocation. A non-nil result wraps the context's error, so callers can
// test errors.Is(err, context.Canceled).
func (c *Context) Canceled() error {
	if c.Ctx == nil {
		return nil
	}
	tick := c.cancelTick
	c.cancelTick++
	if tick%cancelEvery != 0 {
		return nil
	}
	if err := c.Ctx.Err(); err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			return fmt.Errorf("exec: %w: %w", ErrDeadlineExceeded, err)
		}
		return fmt.Errorf("exec: query canceled: %w", err)
	}
	return nil
}

// CanceledNow is Canceled without the polling throttle: it consults Ctx.Err
// on every call. Batch-at-a-time operators use it — one check per ~1024-row
// batch is already sparse, and throttling on top of batch granularity could
// let a short query outrun its own deadline without ever noticing.
func (c *Context) CanceledNow() error {
	if c.Ctx == nil {
		return nil
	}
	if err := c.Ctx.Err(); err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			return fmt.Errorf("exec: %w: %w", ErrDeadlineExceeded, err)
		}
		return fmt.Errorf("exec: query canceled: %w", err)
	}
	return nil
}

// GrowMem charges n retained bytes against the execution's memory tracker;
// inert (and branch-cheap) when no tracker is attached.
func (c *Context) GrowMem(n int64) error {
	if c.Mem == nil {
		return nil
	}
	return c.Mem.Grow(n)
}

// ShrinkMem returns n bytes to the execution's memory tracker.
func (c *Context) ShrinkMem(n int64) {
	if c.Mem != nil {
		c.Mem.Shrink(n)
	}
}

// Named is what FaultPoint and StatsFor need of an operator. Name renders
// the operator's whole text (a scan's filter, a projection's expressions),
// so both call it only when an injector or a collector is there to use it:
// an Open on the plain path renders nothing.
type Named interface{ Name() string }

// FaultPoint resolves op's fault-injection site — its name plus a suffix
// such as ":next" — against the execution's injector; nil when injection
// is off or nothing matches the site, so operators pay one branch per
// invocation, exactly like the stats handle.
func (c *Context) FaultPoint(op Named, suffix string) *faultinject.Point {
	if c.Fault == nil {
		return nil
	}
	return c.Fault.Point(op.Name() + suffix)
}

// StatsFor registers op with this execution's stats collector and returns
// its handle, or nil when collection is disabled. Operators call it at Open
// and keep the handle for their hot path.
func (c *Context) StatsFor(op Named) *OpStats {
	if c.Stats == nil {
		return nil
	}
	return c.Stats.Register(op, op.Name())
}

// ExecModule replays one invocation of m on the simulated CPU; no-op when
// uninstrumented or for module-less operators.
func (c *Context) ExecModule(m *codemodel.Module, dataBits uint64) {
	if c.CPU != nil && m != nil {
		c.CPU.ExecModule(m, dataBits)
	}
}

// ExecModuleBatch replays one amortized block invocation of m covering
// len(dataBits) input tuples: instruction fetch once, execution and branch
// outcomes per tuple (see cpusim.ExecModuleBatch). It is the instrumentation
// hook the block-oriented engine (internal/vec) drives; no-op when
// uninstrumented or for module-less operators.
func (c *Context) ExecModuleBatch(m *codemodel.Module, dataBits []uint64) {
	if c.CPU != nil && m != nil && len(dataBits) > 0 {
		c.CPU.ExecModuleBatch(m, dataBits)
	}
}

// Read models a data load.
func (c *Context) Read(addr uint64, size int) {
	if c.CPU != nil && addr != 0 {
		c.CPU.DataRead(addr, size)
	}
}

// Write models a data store.
func (c *Context) Write(addr uint64, size int) {
	if c.CPU != nil && addr != 0 {
		c.CPU.DataWrite(addr, size)
	}
}

// DataBits combines a meaningful outcome bit (bit 0: predicate result, join
// match, …) with pseudo-random noise bits for the remaining data-dependent
// branch sites of a module.
func (c *Context) DataBits(outcome bool) uint64 {
	c.bitsState += 0x9e3779b97f4a7c15
	z := c.bitsState
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z ^= z >> 27
	bits := z &^ 1
	if outcome {
		bits |= 1
	}
	return bits
}

// TablePlacement is one table's simulated base address and mean row width
// in a CPU's data-address space.
type TablePlacement struct {
	Base     uint64
	RowBytes int
}

// Placements maps tables to their simulated placement for one execution.
// Placement used to live on storage.Table itself, but that made concurrent
// instrumented runs overwrite each other's address spaces; it is per-CPU
// state, so it rides on the Context now.
type Placements map[*storage.Table]TablePlacement

// Addr returns the simulated address of row id in table t, or ok=false
// when t has not been placed in this execution's address space.
func (p Placements) Addr(t *storage.Table, id int) (addr uint64, size int, ok bool) {
	pl, ok := p[t]
	if !ok {
		return 0, 0, false
	}
	return pl.Base + uint64(id)*uint64(pl.RowBytes), pl.RowBytes, true
}

// PlaceCatalog assigns simulated memory addresses to every table in the
// catalog so scans generate data-cache traffic. Call once per CPU and
// attach the result to the execution's Context.
func PlaceCatalog(cpu *cpusim.CPU, cat *storage.Catalog) Placements {
	placements := make(Placements)
	for _, t := range cat.Tables() {
		rowBytes := t.AvgRowBytes()
		base := cpu.AllocData(rowBytes * (t.NumRows() + 1))
		placements[t] = TablePlacement{Base: base, RowBytes: rowBytes}
	}
	return placements
}

// Arena models an operator's memory context: intermediate tuples are
// written sequentially into a fixed region, wrapping at the end. A consumer
// that reads a tuple immediately (one-tuple-at-a-time pipelining) hits the
// data cache; a consumer that reads it after a large batch of later
// allocations (a buffered plan) pays data-cache misses — sequential ones,
// which the hardware prefetcher mostly hides. This is precisely the L2
// trade-off of paper §7.4.
type Arena struct {
	base uint64
	size uint64
	off  uint64
}

// arenaBytes is large enough that even the biggest buffer-size sweep (64 K
// tuples) never laps itself within one batch.
const arenaBytes = 32 << 20

// NewArena reserves an arena on the CPU's simulated heap; with a nil CPU it
// returns an inert arena whose allocations are address 0 (unmodeled).
func NewArena(cpu *cpusim.CPU) *Arena {
	if cpu == nil {
		return &Arena{}
	}
	return &Arena{base: cpu.AllocData(arenaBytes), size: arenaBytes}
}

// Alloc reserves size bytes and returns the simulated address (0 when
// unmodeled).
func (a *Arena) Alloc(size int) uint64 {
	if a.base == 0 {
		return 0
	}
	sz := uint64(size)
	if sz > a.size {
		sz = a.size
	}
	if a.off+sz > a.size {
		a.off = 0
	}
	addr := a.base + a.off
	a.off += (sz + 63) &^ 63
	return addr
}

// Tracer records the operator execution sequence, reproducing the paper's
// Figure 1 (PCPCPC… vs PCCCCCPPPPP…).
type Tracer struct {
	max    int
	events []byte
	labels map[byte]string
}

// NewTracer records up to max events.
func NewTracer(max int) *Tracer {
	return &Tracer{max: max, labels: make(map[byte]string)}
}

// Record appends one event tagged by a single-letter operator label.
func (t *Tracer) Record(label byte, name string) {
	if len(t.events) < t.max {
		t.events = append(t.events, label)
		if _, ok := t.labels[label]; !ok {
			t.labels[label] = name
		}
	}
}

// String renders the recorded sequence, e.g. "PCPCPCPC".
func (t *Tracer) String() string { return string(t.events) }

// Legend maps labels to operator names.
func (t *Tracer) Legend() map[byte]string { return t.labels }

// Run drives a plan to completion and returns all result rows. It opens,
// drains and closes the root operator. When ctx carries a cancellation
// context, the pull loop polls it and aborts with an error wrapping the
// context's, closing the plan on the way out. Panics anywhere in the
// operator tree are contained: the plan is torn down and the error wraps
// ErrOperatorPanic.
func Run(ctx *Context, root Operator) ([]storage.Row, error) {
	if err := CallOpen(ctx, root); err != nil {
		_ = CallClose(ctx, root)
		return nil, err
	}
	var out []storage.Row
	for {
		if err := ctx.Canceled(); err != nil {
			_ = CallClose(ctx, root)
			return nil, err
		}
		row, err := CallNext(ctx, root)
		if err != nil {
			_ = CallClose(ctx, root)
			return nil, err
		}
		if row == nil {
			break
		}
		out = append(out, row)
	}
	if err := root.Close(ctx); err != nil {
		return nil, err
	}
	return out, nil
}

// HashRows returns an FNV-1a hash over a result set's rendered rows,
// including row order. Callers use it to assert two plan variants produced
// identical results without retaining both result sets.
func HashRows(rows []storage.Row) uint64 {
	h := fnv.New64a()
	for _, r := range rows {
		h.Write([]byte(r.String()))
		h.Write([]byte{'\n'})
	}
	return h.Sum64()
}

// Walk visits the operator tree in depth-first pre-order.
func Walk(op Operator, visit func(Operator)) {
	visit(op)
	for _, c := range op.Children() {
		Walk(c, visit)
	}
}

// errNotOpen is a shared guard error for operators driven before Open.
func errNotOpen(name string) error {
	return fmt.Errorf("exec: %s.Next called before Open", name)
}
