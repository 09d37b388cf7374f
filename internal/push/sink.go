package push

import (
	"fmt"
	"strings"
	"time"

	"bufferdb/internal/exec"
	"bufferdb/internal/expr"
	"bufferdb/internal/faultinject"
	"bufferdb/internal/storage"
)

// hashEntryOverhead matches exec's per-row hash-table bookkeeping charge,
// keeping the push engine's memory accounting comparable to Volcano's.
const hashEntryOverhead = 48

// collectSink materializes the final pipe's output — the root breaker.
// Rows are charged to the memory tracker and written to a simulated arena;
// the Pipeline reads them back per served row, like exec.Material.
type collectSink struct {
	rows    []storage.Row
	addrs   []uint64
	arena   *exec.Arena
	memUsed int64
}

func (c *collectSink) open(ctx *exec.Context) error {
	c.rows, c.addrs = nil, nil
	ctx.ShrinkMem(c.memUsed) // reopen without Close: release stale charges
	c.memUsed = 0
	c.arena = exec.NewArena(ctx.CPU)
	return nil
}

func (c *collectSink) consume(ctx *exec.Context, row storage.Row) error {
	if err := ctx.GrowMem(int64(row.ByteSize())); err != nil {
		return err
	}
	c.memUsed += int64(row.ByteSize())
	addr := c.arena.Alloc(row.ByteSize())
	ctx.Write(addr, row.ByteSize())
	c.rows = append(c.rows, row)
	c.addrs = append(c.addrs, addr)
	return nil
}

func (c *collectSink) finish(*exec.Context) error { return nil }

func (c *collectSink) close(ctx *exec.Context) {
	c.rows, c.addrs = nil, nil
	ctx.ShrinkMem(c.memUsed)
	c.memUsed = 0
}

func (c *collectSink) name() string { return "Collect" }

// buildSink is the hash-join build breaker: it drains the build side into
// an insertion-ordered hash table the probe stage reads. Charges, bucket
// modeling and the "<join>:build" fault site mirror exec.HashJoin's Open.
type buildSink struct {
	innerKey expr.Expr
	join     *probeStage // names the "<join>:build" and "<join>:publish" fault sites
	modbuf

	stats        *exec.OpStats
	fault        *faultinject.Point
	publishFault *faultinject.Point
	shared       *exec.SharedBuild
	arena        *exec.Arena

	table        map[int64][]storage.Row
	memUsed      int64
	adopted      bool
	buildStart   time.Time
	bucketRegion uint64
	bucketCount  uint64

	repChildren []any
}

func (b *buildSink) open(ctx *exec.Context) error {
	b.stats = ctx.StatsFor(b)
	b.fault = ctx.FaultPoint(b.join, ":build")
	b.publishFault = ctx.FaultPoint(b.join, ":publish")
	b.table = make(map[int64][]storage.Row)
	ctx.ShrinkMem(b.memUsed) // reopen without Close: release stale charges
	b.memUsed = 0
	b.adopted = false
	if ctx.CPU != nil {
		b.bucketCount = 1 << 16
		b.bucketRegion = ctx.CPU.AllocData(int(b.bucketCount) * 16)
	}
	b.arena = exec.NewArena(ctx.CPU)
	if b.shared != nil && b.shared.Table != nil {
		// Reuse-cache hit: adopt the published build side; its bytes live
		// under the cache's reservation, nothing charged here. The build
		// pipe still runs, but over the empty spliced source.
		b.table = b.shared.Table
		b.adopted = true
	}
	b.buildStart = time.Now()
	return nil
}

// bucketAddr maps a key to its simulated bucket address, identically to
// exec.HashJoin so both engines model the same random-access pattern.
func (b *buildSink) bucketAddr(key int64) uint64 {
	if b.bucketRegion == 0 {
		return 0
	}
	x := uint64(key) * 0x9e3779b97f4a7c15
	x ^= x >> 32
	return b.bucketRegion + (x%b.bucketCount)*16
}

func (b *buildSink) consume(ctx *exec.Context, row storage.Row) error {
	if err := ctx.Canceled(); err != nil {
		return err
	}
	if err := b.fault.Fire(); err != nil {
		return err
	}
	if b.stats != nil {
		b.stats.Calls++
	}
	key, ok, err := keyEval(b.innerKey, row)
	if err != nil {
		return err
	}
	b.add(ctx, ok)
	if !ok {
		return nil
	}
	charge := int64(row.ByteSize()) + hashEntryOverhead
	if err := ctx.GrowMem(charge); err != nil {
		return err
	}
	b.memUsed += charge
	b.table[key] = append(b.table[key], row)
	if b.stats != nil {
		b.stats.Rows++
	}
	// Copy the tuple into hash-table memory and link the bucket.
	ctx.Write(b.arena.Alloc(row.ByteSize()), row.ByteSize())
	ctx.Write(b.bucketAddr(key), 16)
	return nil
}

func (b *buildSink) finish(ctx *exec.Context) error {
	if b.shared != nil && b.shared.Publish != nil && !b.adopted {
		// Reuse-cache miss: hand the finished build to the cache. The
		// publish fault fires first, so a poisoned build is never inserted.
		if err := b.publishFault.Fire(); err != nil {
			return err
		}
		b.shared.Publish(b.table, b.memUsed, time.Since(b.buildStart))
	}
	return nil
}

func (b *buildSink) close(ctx *exec.Context) {
	b.table = nil
	ctx.ShrinkMem(b.memUsed)
	b.memUsed = 0
}

func (b *buildSink) name() string { return fmt.Sprintf("HashBuild(%s)", b.innerKey.String()) }

// Name implements Reportable.
func (b *buildSink) Name() string { return b.name() }

// ReportChildren implements Reportable.
func (b *buildSink) ReportChildren() []any { return b.repChildren }

// aggSink is the aggregation breaker: hashed grouping with deterministic
// key-ordered output, replicating exec.Aggregate bit for bit — group-key
// strings, charge formula, accumulator behavior, the one-row ungrouped
// zero-input result, and the per-row group-table read/write modeling.
type aggSink struct {
	groupBy []expr.Expr
	aggs    []expr.AggSpec
	modbuf

	stats        *exec.OpStats
	fault        *faultinject.Point
	publishFault *faultinject.Point
	shared       *exec.SharedAgg

	table        *expr.GroupTable
	memUsed      int64
	consumed     bool
	start        time.Time
	tableRegion  uint64
	tableBuckets uint64

	repChildren []any
}

func (a *aggSink) open(ctx *exec.Context) error {
	a.stats = ctx.StatsFor(a)
	a.fault = ctx.FaultPoint(a, ":next")
	a.publishFault = ctx.FaultPoint(a, ":publish")
	a.start = time.Now()
	a.table = expr.NewGroupTable(a.groupBy, a.aggs)
	ctx.ShrinkMem(a.memUsed) // reopen without Close: release stale charges
	a.memUsed = 0
	a.consumed = false
	if ctx.CPU != nil && a.tableRegion == 0 {
		a.tableBuckets = 1 << 12
		a.tableRegion = ctx.CPU.AllocData(int(a.tableBuckets) * 64)
	}
	return nil
}

// groupAddr maps a group key to its simulated accumulator address,
// identically to exec.Aggregate.
func (a *aggSink) groupAddr(key string) uint64 {
	if a.tableRegion == 0 {
		return 0
	}
	var h uint64 = 1469598103934665603
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * 1099511628211
	}
	return a.tableRegion + (h%a.tableBuckets)*64
}

func (a *aggSink) consume(ctx *exec.Context, row storage.Row) error {
	if err := ctx.Canceled(); err != nil {
		return err
	}
	if err := a.fault.Fire(); err != nil {
		return err
	}
	if a.stats != nil {
		a.stats.Calls++
	}
	grp, isNew, err := a.table.Lookup(row)
	if err != nil {
		return err
	}
	if isNew {
		charge := int64(len(grp.Key)) + int64(grp.Vals.ByteSize()) +
			int64(len(a.aggs))*hashEntryOverhead
		if err := ctx.GrowMem(charge); err != nil {
			return err
		}
		a.memUsed += charge
	}
	if err := grp.Add(row); err != nil {
		return err
	}
	addr := a.groupAddr(grp.Key)
	ctx.Read(addr, 64)
	ctx.Write(addr, 64)
	a.add(ctx, isNew)
	return nil
}

// finish sorts groups by key values for deterministic output order.
func (a *aggSink) finish(ctx *exec.Context) error {
	a.table.Sort()
	a.consumed = true
	if a.shared != nil && a.shared.Publish != nil {
		// Reuse-cache miss: materialize the complete, sorted output — the
		// same rows produce will emit — and hand it to the cache. The
		// publish fault fires first, so a poisoned table is never inserted.
		if err := a.publishFault.Fire(); err != nil {
			return err
		}
		rows, bytes, err := a.materializeRows()
		if err != nil {
			return err
		}
		a.shared.Publish(rows, bytes, time.Since(a.start))
	}
	return nil
}

// materializeRows builds the breaker's full output — mirroring produce's
// emission exactly, including the one synthetic row of an ungrouped
// aggregate over zero input rows — plus the retained-bytes estimate the
// cache charges for it.
func (a *aggSink) materializeRows() ([]storage.Row, int64, error) {
	rows, err := a.table.Rows()
	var bytes int64
	for _, r := range rows {
		bytes += int64(r.ByteSize()) + hashEntryOverhead
	}
	return rows, bytes, err
}

// produce implements producer: it streams the grouped results into the
// downstream pipe.
func (a *aggSink) produce(ctx *exec.Context, emit emitFn) error {
	// Ungrouped aggregation over zero rows still yields one row
	// (COUNT(*) = 0, SUM = NULL, …).
	if a.table.EmptyUngrouped() {
		out, err := a.table.EmptyRow()
		if err != nil {
			return err
		}
		a.add(ctx, true)
		if a.stats != nil {
			a.stats.Rows++
		}
		return emit(ctx, out)
	}
	for i := 0; i < a.table.Len(); i++ {
		if err := ctx.Canceled(); err != nil {
			return err
		}
		a.add(ctx, true)
		if a.stats != nil {
			a.stats.Rows++
		}
		if err := emit(ctx, a.table.Row(i)); err != nil {
			return err
		}
	}
	return nil
}

func (a *aggSink) close(ctx *exec.Context) {
	a.table = nil
	ctx.ShrinkMem(a.memUsed)
	a.memUsed = 0
}

func (a *aggSink) name() string {
	aggs := make([]string, len(a.aggs))
	for i, s := range a.aggs {
		aggs[i] = s.String()
	}
	if len(a.groupBy) == 0 {
		return fmt.Sprintf("Aggregate(%s)", strings.Join(aggs, ", "))
	}
	groups := make([]string, len(a.groupBy))
	for i, g := range a.groupBy {
		groups[i] = g.String()
	}
	return fmt.Sprintf("Aggregate(%s GROUP BY %s)", strings.Join(aggs, ", "), strings.Join(groups, ", "))
}

// Name implements Reportable.
func (a *aggSink) Name() string { return a.name() }

// ReportChildren implements Reportable.
func (a *aggSink) ReportChildren() []any { return a.repChildren }

// aggSchema derives an aggregation's output schema exactly like
// exec.NewAggregate.
func aggSchema(groupBy []expr.Expr, aggs []expr.AggSpec) (storage.Schema, error) {
	if len(aggs) == 0 {
		return nil, fmt.Errorf("push: Aggregate needs at least one aggregate")
	}
	var sch storage.Schema
	for i, g := range groupBy {
		name := fmt.Sprintf("group%d", i)
		if cr, ok := g.(*expr.ColRef); ok {
			name = cr.Name
		}
		sch = append(sch, storage.Column{Name: name, Type: g.Type()})
	}
	for _, spec := range aggs {
		ty, err := spec.ResultType()
		if err != nil {
			return nil, err
		}
		sch = append(sch, storage.Column{Name: spec.OutputName(), Type: ty})
	}
	return sch, nil
}
