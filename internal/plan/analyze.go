package plan

import (
	"fmt"
	"strings"

	"bufferdb/internal/exec"
)

// OpReport is one operator's node in an EXPLAIN ANALYZE tree: the plan-side
// identity (kind, execution group, buffer size, estimate) joined with the
// runtime counters its operator collected during one execution.
type OpReport struct {
	// Name is the operator's display name.
	Name string
	// Engine is "volcano", "vec" or "push", or "adapter" for the
	// engine-bridge nodes.
	Engine string
	// Group is the refinement pass's 1-based execution-group id (0 = none).
	Group int
	// Buffer marks buffer/adapter nodes whose Drains/FillTuples describe
	// refill behavior.
	Buffer bool
	// BufferSize is the configured capacity for buffer nodes (0 elsewhere).
	BufferSize int
	// EstRows is the optimizer's cardinality estimate of the plan node the
	// operator was compiled from.
	EstRows float64

	// Stats are the operator's collected counters. The simulated-CPU fields
	// are inclusive (operator plus subtree).
	Stats exec.OpStats

	// SelfCycles/SelfUops/SelfL1I are the exclusive simulated-CPU
	// attribution: inclusive minus the inclusive counters of the nearest
	// reports below that carry any, clamped at zero (interleavings like a
	// nest-loop rescan can make the raw difference marginally negative).
	SelfCycles float64
	SelfUops   uint64
	SelfL1I    uint64

	Children []*OpReport

	// key is the element the compiler created, under which it registers
	// its stats.
	key exec.Named
}

// BufferAmortized reports whether a buffer node achieved refills long
// enough to amortize instruction reloads: the mean fill is at least half
// the configured capacity, or the whole input fit in a single drain.
func (r *OpReport) BufferAmortized() bool {
	if !r.Buffer || r.Stats.Drains == 0 {
		return false
	}
	if r.Stats.Drains == 1 {
		return true
	}
	return r.BufferSize > 0 && r.Stats.AvgFill() >= float64(r.BufferSize)/2
}

// BuildReport fills the report tree CompileAnalyzed recorded with the
// counters coll gathered while the plan ran, and derives each node's self
// attribution. Elements that never registered (never opened) keep zero
// stats.
func BuildReport(r *OpReport, coll *exec.StatsCollector) {
	if s := coll.Lookup(r.key); s != nil {
		r.Stats = *s
	}
	if r.Stats.Drains > 0 {
		r.Buffer = true
	}
	r.SelfCycles, r.SelfUops, r.SelfL1I = r.Stats.Cycles, r.Stats.Uops, r.Stats.L1IMisses
	for _, c := range r.Children {
		BuildReport(c, coll)
	}
	cycles, uops, l1i := r.below()
	r.SelfCycles = max(r.SelfCycles-cycles, 0)
	r.SelfUops -= min(uops, r.SelfUops)
	r.SelfL1I -= min(l1i, r.SelfL1I)
}

// below sums the inclusive counters of the nearest reports under r that
// carry any. A fused element counts none of its own, so the operators
// beneath it stand in: a pipeline subtracts the Volcano island under a
// Pull source rather than nothing.
func (r *OpReport) below() (cycles float64, uops, l1i uint64) {
	for _, c := range r.Children {
		if c.Stats.Cycles == 0 && c.Stats.Uops == 0 {
			cc, cu, cl := c.below()
			cycles, uops, l1i = cycles+cc, uops+cu, l1i+cl
			continue
		}
		cycles, uops, l1i = cycles+c.Stats.Cycles, uops+c.Stats.Uops, l1i+c.Stats.L1IMisses
	}
	return cycles, uops, l1i
}

// Walk visits a report tree depth-first, pre-order.
func (r *OpReport) Walk(visit func(*OpReport)) {
	visit(r)
	for _, c := range r.Children {
		c.Walk(visit)
	}
}

// FormatReport renders a report tree as an EXPLAIN ANALYZE table. With
// sim=true it appends the simulated-CPU attribution columns (self cycles,
// self L1I misses); without, it prints only the deterministic counters,
// which is what the golden-file tests pin down.
func FormatReport(root *OpReport, sim bool) string {
	type line struct {
		label string
		r     *OpReport
	}
	var lines []line
	var flatten func(r *OpReport, depth int)
	flatten = func(r *OpReport, depth int) {
		label := strings.Repeat("  ", depth) + r.Name
		lines = append(lines, line{label, r})
		for _, c := range r.Children {
			flatten(c, depth+1)
		}
	}
	flatten(root, 0)

	labelW := len("operator")
	for _, l := range lines {
		if len(l.label) > labelW {
			labelW = len(l.label)
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "%-*s  %-7s  %5s  %8s  %10s  %7s  %8s", labelW, "operator", "engine", "group", "calls", "rows", "drains", "avgfill")
	if sim {
		fmt.Fprintf(&b, "  %14s  %12s", "self cycles", "self L1I")
	}
	b.WriteByte('\n')
	for _, l := range lines {
		r := l.r
		group := "-"
		if r.Group > 0 {
			group = fmt.Sprintf("%d", r.Group)
		}
		drains, avgfill := "-", "-"
		if r.Buffer {
			drains = fmt.Sprintf("%d", r.Stats.Drains)
			avgfill = fmt.Sprintf("%.1f", r.Stats.AvgFill())
		}
		fmt.Fprintf(&b, "%-*s  %-7s  %5s  %8d  %10d  %7s  %8s",
			labelW, l.label, r.Engine, group, r.Stats.Calls, r.Stats.Rows, drains, avgfill)
		if sim {
			fmt.Fprintf(&b, "  %14.0f  %12d", r.SelfCycles, r.SelfL1I)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
