package plan

import (
	"fmt"
	"strings"

	"bufferdb/internal/core"
	"bufferdb/internal/exec"
	"bufferdb/internal/push"
	"bufferdb/internal/vec"
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
	// EstRows is the optimizer's cardinality estimate, when the operator
	// maps back to a plan node.
	EstRows float64

	// Stats are the operator's collected counters. The simulated-CPU fields
	// are inclusive (operator plus subtree).
	Stats exec.OpStats

	// SelfCycles/SelfUops/SelfL1I are the exclusive simulated-CPU
	// attribution: inclusive minus the children's inclusive, clamped at
	// zero (interleavings like a nest-loop rescan can make the raw
	// difference marginally negative).
	SelfCycles float64
	SelfUops   uint64
	SelfL1I    uint64

	Children []*OpReport
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

// reportChildren returns an operator's structural children across both
// engines, descending through the adapter boundaries that hide their
// subtree from the host engine's Children().
func reportChildren(op any) []any {
	switch o := op.(type) {
	// push.Reportable must precede exec.Operator: a push.Pipeline is both,
	// and its structural children are its fused elements, not the Volcano
	// fallback subtrees Children() exposes.
	case push.Reportable:
		return o.ReportChildren()
	case *vec.ToVolcano:
		return []any{o.Vec()}
	case *vec.FromVolcano:
		return []any{o.Volcano()}
	case exec.Operator:
		cs := o.Children()
		out := make([]any, len(cs))
		for i, c := range cs {
			out[i] = c
		}
		return out
	case vec.Operator:
		cs := o.Children()
		out := make([]any, len(cs))
		for i, c := range cs {
			out[i] = c
		}
		return out
	default:
		return nil
	}
}

// opEngine classifies an operator for the report's Engine column.
func opEngine(op any) string {
	switch op.(type) {
	case push.Reportable:
		return EnginePush.String()
	case *vec.ToVolcano, *vec.FromVolcano:
		return "adapter"
	case exec.Operator:
		return EngineVolcano.String()
	case vec.Operator:
		return EngineVec.String()
	default:
		return "?"
	}
}

// opName returns an operator's display name across both engines.
func opName(op any) string {
	switch o := op.(type) {
	case push.Reportable:
		return o.Name()
	case exec.Operator:
		return o.Name()
	case vec.Operator:
		return o.Name()
	default:
		return fmt.Sprintf("%T", op)
	}
}

// BuildReport joins a compiled plan's operator tree with the counters a
// StatsCollector gathered while executing it. Operators that never
// registered (never opened) appear with zero stats.
func BuildReport(cp *CompiledPlan, coll *exec.StatsCollector) *OpReport {
	var rec func(op any) *OpReport
	rec = func(op any) *OpReport {
		r := &OpReport{
			Name:   opName(op),
			Engine: opEngine(op),
		}
		if n := cp.Nodes[op]; n != nil {
			r.Group = n.Group
			r.EstRows = n.EstRows
			if n.Kind == KindBuffer {
				r.BufferSize = n.BufferSize
			}
		}
		if s := coll.Lookup(op); s != nil {
			r.Stats = *s
			if r.Name == "" {
				r.Name = s.Name
			}
		}
		switch op.(type) {
		case *vec.FromVolcano:
			r.Buffer = true
			r.BufferSize = vec.DefaultBatchSize
		default:
			if r.Stats.Drains > 0 || r.BufferSize > 0 {
				r.Buffer = true
			}
		}
		if r.Buffer && r.BufferSize == 0 {
			// A KindBuffer node with the default capacity.
			if n := cp.Nodes[op]; n != nil && n.Kind == KindBuffer {
				r.BufferSize = core.DefaultBufferSize
			}
		}
		r.SelfCycles, r.SelfUops, r.SelfL1I = r.Stats.Cycles, r.Stats.Uops, r.Stats.L1IMisses
		for _, c := range reportChildren(op) {
			cr := rec(c)
			r.Children = append(r.Children, cr)
			r.SelfCycles -= cr.Stats.Cycles
			if cr.Stats.Uops <= r.SelfUops {
				r.SelfUops -= cr.Stats.Uops
			} else {
				r.SelfUops = 0
			}
			if cr.Stats.L1IMisses <= r.SelfL1I {
				r.SelfL1I -= cr.Stats.L1IMisses
			} else {
				r.SelfL1I = 0
			}
		}
		if r.SelfCycles < 0 {
			r.SelfCycles = 0
		}
		return r
	}
	return rec(cp.Root)
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
