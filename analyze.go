package bufferdb

import (
	"context"
	"fmt"
	"strings"

	"bufferdb/internal/cpusim"
	"bufferdb/internal/exec"
	"bufferdb/internal/plan"
)

// OpStat is one operator's node in an EXPLAIN ANALYZE tree: its plan-side
// identity joined with the runtime counters collected while executing.
type OpStat struct {
	// Name is the operator's display name.
	Name string
	// Engine is "volcano", "vec", "push", or "adapter" for engine-bridge
	// operators.
	Engine string
	// Group is the refinement pass's 1-based execution-group id (0 = the
	// operator was not placed in a group — e.g. blocking operators).
	Group int
	// Buffer marks buffer-like operators (buffer, adapter refill loops)
	// whose Drains/AvgFill describe batching behavior.
	Buffer bool
	// BufferSize is a buffer's configured tuple capacity.
	BufferSize int
	// EstRows is the optimizer's output-cardinality estimate.
	EstRows float64

	// Opens/Calls/Rows/Batches count operator invocations and output.
	Opens   uint64
	Calls   uint64
	Rows    uint64
	Batches uint64

	// Drains counts refill runs; FillTuples the tuples they stored; AvgFill
	// their mean length — the quantity that decides whether the buffer
	// amortized its instruction reloads.
	Drains     uint64
	FillTuples uint64
	AvgFill    float64
	// Amortized reports whether the buffer's refills ran long enough to pay
	// for themselves (mean fill at least half the capacity, or the whole
	// input in one drain).
	Amortized bool

	// Cycles/Uops/L1IMisses are inclusive simulated-CPU attribution
	// (operator plus subtree); the Self* fields subtract the children.
	// All zero when the execution ran without the simulated CPU.
	Cycles     float64
	Uops       uint64
	L1IMisses  uint64
	SelfCycles float64
	SelfUops   uint64
	SelfL1I    uint64

	Children []*OpStat
}

// Walk visits the stat tree depth-first, pre-order.
func (s *OpStat) Walk(visit func(*OpStat)) {
	visit(s)
	for _, c := range s.Children {
		c.Walk(visit)
	}
}

// publicStat mirrors a plan.OpReport tree as the public OpStat type.
func publicStat(r *plan.OpReport) *OpStat {
	s := &OpStat{
		Name:       r.Name,
		Engine:     r.Engine,
		Group:      r.Group,
		Buffer:     r.Buffer,
		BufferSize: r.BufferSize,
		EstRows:    r.EstRows,
		Opens:      r.Stats.Opens,
		Calls:      r.Stats.Calls,
		Rows:       r.Stats.Rows,
		Batches:    r.Stats.Batches,
		Drains:     r.Stats.Drains,
		FillTuples: r.Stats.FillTuples,
		AvgFill:    r.Stats.AvgFill(),
		Amortized:  r.BufferAmortized(),
		Cycles:     r.Stats.Cycles,
		Uops:       r.Stats.Uops,
		L1IMisses:  r.Stats.L1IMisses,
		SelfCycles: r.SelfCycles,
		SelfUops:   r.SelfUops,
		SelfL1I:    r.SelfL1I,
	}
	for _, c := range r.Children {
		s.Children = append(s.Children, publicStat(c))
	}
	return s
}

// Analysis is the result of ExplainAnalyze: the refined plan annotated with
// per-operator runtime stats from one instrumented execution, plus the
// run's whole-query simulated counters.
type Analysis struct {
	// Query is the analyzed statement.
	Query string
	// Engine is the engine the statement executed on.
	Engine Engine
	// Plan is the refined plan rendering (as Explain would show it).
	Plan string
	// Root is the per-operator stat tree.
	Root *OpStat
	// Totals are the execution's whole-query simulated counters; the
	// per-operator Self* attributions sum to them (within slack).
	Totals RunStats

	report *plan.OpReport
}

// String renders the analysis as an EXPLAIN ANALYZE table with simulated
// cycle and instruction-cache-miss attribution per operator.
func (a *Analysis) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "EXPLAIN ANALYZE (engine=%s)\n", a.Engine)
	b.WriteString(plan.FormatReport(a.report, true))
	fmt.Fprintf(&b, "totals: cycles=%.0f uops=%d L1I-misses=%d CPI=%.2f simulated=%.2fms\n",
		a.Totals.Cycles, a.Totals.Uops, a.Totals.L1IMisses, a.Totals.CPI, a.Totals.ElapsedSec*1e3)
	return b.String()
}

// Table renders only the deterministic per-operator columns (calls, rows,
// drains) without simulated attribution — stable across runs and
// platforms, which is what the golden-file tests pin down.
func (a *Analysis) Table() string {
	return plan.FormatReport(a.report, false)
}

// ExplainAnalyze plans the statement (refined unless WithoutRefinement),
// executes it on the statement's engine on a fresh simulated CPU with
// per-operator stats collection, and returns the annotated plan tree.
func (db *DB) ExplainAnalyze(ctx context.Context, query string, opts ...PlanOption) (*Analysis, error) {
	po := applyOptions(opts)
	_, p, err := db.planPair(query, po, !po.DisableRefinement)
	if err != nil {
		return nil, err
	}
	root, report, err := plan.CompileAnalyzed(p, db.cm, po.Engine)
	if err != nil {
		return nil, err
	}
	cpu, err := cpusim.New(cpusim.DefaultConfig(), db.cm.TextSegmentBytes())
	if err != nil {
		return nil, err
	}
	ectx := &exec.Context{
		Catalog:    db.cat,
		CPU:        cpu,
		Placements: exec.PlaceCatalog(cpu, db.cat),
		Stats:      exec.NewStatsCollector(),
		Ctx:        ctx,
	}
	if _, err := exec.Run(ectx, root); err != nil {
		return nil, err
	}
	plan.BuildReport(report, ectx.Stats)
	return &Analysis{
		Query:  query,
		Engine: po.Engine,
		Plan:   plan.Explain(p),
		Root:   publicStat(report),
		Totals: runStats(cpu),
		report: report,
	}, nil
}
