package exec

import (
	"sync"

	"bufferdb/internal/storage"
)

// OpStats accumulates one operator's runtime counters for one execution.
// Every operator — Volcano, buffer, and block-oriented alike — registers a
// handle at Open (Context.StatsFor) and feeds it from its hot path behind a
// single nil check, so a disabled collector costs one predictable branch
// per invocation and an enabled one never perturbs the simulated CPU: the
// collector only *reads* simulator state, it executes nothing on it.
//
// The simulated-CPU fields are inclusive: they cover the operator plus
// everything beneath it, summed over its Open and Next/NextBatch brackets.
// Renderers derive exclusive (self) attribution by subtracting children —
// see plan.BuildReport.
type OpStats struct {
	// Name is the operator's display name at registration time.
	Name string

	// Opens counts Open invocations (conformance reopens make this > 1).
	Opens uint64
	// Calls counts Next (Volcano) or NextBatch (block) invocations.
	Calls uint64
	// Rows counts rows produced.
	Rows uint64
	// Batches counts non-empty batches produced (block operators only).
	Batches uint64
	// Drains counts buffer/adapter refill runs — how many times the child
	// pipeline was executed in a burst (paper Fig. 1: one Drain is one
	// CCCC… run).
	Drains uint64
	// FillTuples counts tuples stored across all refills; FillTuples/Drains
	// is the achieved batch length, the quantity that decides whether a
	// buffer amortized its instruction reloads.
	FillTuples uint64

	// Inclusive simulated-CPU attribution. All zero when the execution ran
	// without a simulated CPU.
	Cycles    float64
	Uops      uint64
	L1IMisses uint64
}

// AvgFill returns the mean tuples stored per drain run (0 when the operator
// never drained).
func (s *OpStats) AvgFill() float64 {
	if s.Drains == 0 {
		return 0
	}
	return float64(s.FillTuples) / float64(s.Drains)
}

// StatSnap is a point-in-time simulator snapshot used to bracket an
// operator invocation for inclusive attribution.
type StatSnap struct {
	cycles float64
	uops   uint64
	l1i    uint64
	valid  bool
}

// Begin snapshots the simulated CPU ahead of an operator invocation. With
// no CPU attached the snapshot is inert and End* only bump event counters.
func (s *OpStats) Begin(ctx *Context) StatSnap {
	if ctx.CPU == nil {
		return StatSnap{}
	}
	ctr := ctx.CPU.Counters()
	return StatSnap{cycles: ctx.CPU.TotalCycles(), uops: ctr.Uops, l1i: ctr.L1IMisses, valid: true}
}

// accumulate folds the delta since snap into the inclusive counters.
func (s *OpStats) accumulate(ctx *Context, snap StatSnap) {
	if !snap.valid {
		return
	}
	ctr := ctx.CPU.Counters()
	s.Cycles += ctx.CPU.TotalCycles() - snap.cycles
	s.Uops += ctr.Uops - snap.uops
	s.L1IMisses += ctr.L1IMisses - snap.l1i
}

// EndOpen closes an Open bracket.
func (s *OpStats) EndOpen(ctx *Context, snap StatSnap) {
	s.Opens++
	s.accumulate(ctx, snap)
}

// EndNext closes a Next bracket; row points at the invocation's named
// return value so a deferred call observes what was actually produced.
func (s *OpStats) EndNext(ctx *Context, snap StatSnap, row *storage.Row) {
	s.Calls++
	if *row != nil {
		s.Rows++
	}
	s.accumulate(ctx, snap)
}

// EndBatch closes a NextBatch bracket; batch points at the invocation's
// named return value (convert a *vec.Batch with (*[]storage.Row)(&out)).
func (s *OpStats) EndBatch(ctx *Context, snap StatSnap, batch *[]storage.Row) {
	s.Calls++
	if n := len(*batch); n > 0 {
		s.Batches++
		s.Rows += uint64(n)
	}
	s.accumulate(ctx, snap)
}

// Drained records one refill run that stored n tuples.
func (s *OpStats) Drained(n int) {
	s.Drains++
	s.FillTuples += uint64(n)
}

// StatsCollector is the per-execution registry of operator stats. It is
// deliberately per-execution state, like the CPU and the tracer: attach a
// fresh collector to a Context, run the plan, then read the handles back
// through Lookup. Registration is mutex-guarded because exchange workers
// open partition subtrees concurrently; each registered OpStats is then
// written by exactly one goroutine (the one driving that operator), so the
// hot path needs no synchronization.
type StatsCollector struct {
	mu  sync.Mutex
	ops map[any]*OpStats
}

// NewStatsCollector returns an empty collector.
func NewStatsCollector() *StatsCollector {
	return &StatsCollector{ops: make(map[any]*OpStats)}
}

// Register returns the stats handle for key (the operator instance),
// creating it on first use. Re-registration (operator reopen) returns the
// same handle so counters accumulate across reopens.
func (sc *StatsCollector) Register(key any, name string) *OpStats {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if s, ok := sc.ops[key]; ok {
		return s
	}
	s := &OpStats{Name: name}
	sc.ops[key] = s
	return s
}

// Lookup returns key's handle, or nil if the operator never registered
// (it was never opened).
func (sc *StatsCollector) Lookup(key any) *OpStats {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.ops[key]
}

// Len returns the number of registered operators.
func (sc *StatsCollector) Len() int {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return len(sc.ops)
}
