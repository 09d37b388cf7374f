package core

import (
	"fmt"
	"strings"

	"bufferdb/internal/codemodel"
)

// NodeInfo is the refinement algorithm's view of one plan operator. The
// planner builds a NodeInfo tree mirroring its physical plan and applies
// the returned decisions; the algorithm itself never touches executable
// operators, which keeps it testable against hand-built trees.
type NodeInfo struct {
	// Name is a display name for decisions and EXPLAIN output. When it is
	// empty, Result.String renders the Tag's Label method instead, so a
	// planner whose refinement is never printed never formats a name.
	Name string
	// Modules are the instruction-footprint modules this operator executes
	// per invocation (usually one; a hash join's probe node lists the
	// probe module — its build side is a separate blocking child node).
	Modules []*codemodel.Module
	// Blocking marks pipeline breakers (sort, hash build, materialize),
	// which already batch execution below them and are never placed inside
	// an execution group (paper §6).
	Blocking bool
	// EstRows is the optimizer's estimate of the rows this operator
	// produces per execution — per rescan for a nested-loop inner, which
	// is what makes a foreign-key inner index scan fall below the
	// threshold no matter how often it runs.
	EstRows float64
	// Children are the input operators, outer first.
	Children []*NodeInfo
	// Tag is an opaque caller handle (the planner stores its own node).
	Tag any
}

// RefineConfig parameterizes the plan refinement algorithm.
type RefineConfig struct {
	// L1IBytes is the instruction cache capacity the footprint budget is
	// checked against (paper: the 16 KB upper estimate of the trace cache).
	L1IBytes int
	// BufferModule is the buffer operator's own module, recorded for
	// reporting and for the planner's buffer construction. Its sub-kilobyte
	// footprint (§6.1 counts it against the group budget) is already
	// absorbed by the deliberate conservatism of the footprint estimates —
	// they overestimate real fetched bytes by ~30 % (§7.1) — so the merge
	// check below compares the combined estimate strictly against the L1I
	// capacity, which is what makes the paper's own Query 2 arithmetic
	// (15 KB + buffer vs a 16 KB cache ⇒ one group) come out.
	BufferModule *codemodel.Module
	// CardinalityThreshold is the minimum estimated output cardinality for
	// a buffer to pay for its own overhead, determined by calibration
	// (§6, §7.3).
	CardinalityThreshold float64
	// BufferSize is the tuple capacity for inserted buffers (0 = default).
	BufferSize int
	// FootprintEstimator overrides how a candidate group's combined
	// footprint is computed. Nil selects the paper's estimator
	// (codemodel.CombinedFootprint: dynamic call graph, full binary sizes,
	// shared functions deduplicated). The hot-bytes estimator
	// (HotFootprintEstimator) is an oracle variant for ablation studies:
	// it measures the bytes actually fetched, which removes the
	// conservative overestimate and with it the occasional useless buffer
	// — at the cost of information a real system would not have statically.
	FootprintEstimator func(mods ...*codemodel.Module) int
}

// HotFootprintEstimator estimates a group's footprint as the cache lines it
// actually fetches per invocation round — the oracle the paper's
// conservative analysis approximates from above.
func HotFootprintEstimator(mods ...*codemodel.Module) int {
	return codemodel.CombinedHotLines(mods...) * codemodel.CacheLineBytes
}

// Group is one execution group discovered by refinement.
type Group struct {
	// Members are the operators in the group, in discovery order.
	Members []*NodeInfo
	// FootprintBytes is the group's combined (deduplicated) footprint.
	FootprintBytes int
	// Buffered reports whether a buffer operator is inserted above the
	// group's top member.
	Buffered bool
	// SkipReason explains why an unbuffered group got no buffer
	// ("root", "cardinality"). Empty for buffered groups.
	SkipReason string
}

// Top returns the group's top (first-discovered ancestor) member.
func (g *Group) Top() *NodeInfo { return g.Members[len(g.Members)-1] }

// Result is the refinement outcome.
type Result struct {
	// Groups lists every execution group, bottom-up.
	Groups []*Group
	// BufferAbove lists the nodes above which a buffer operator must be
	// inserted — the actionable output the planner applies.
	BufferAbove []*NodeInfo
}

// String renders a compact report of the decisions.
func (r *Result) String() string {
	var b strings.Builder
	for _, g := range r.Groups {
		names := make([]string, len(g.Members))
		for i, m := range g.Members {
			names[i] = m.label()
		}
		fmt.Fprintf(&b, "group {%s} footprint=%dB", strings.Join(names, ", "), g.FootprintBytes)
		if g.Buffered {
			b.WriteString(" +buffer")
		} else if g.SkipReason != "" {
			fmt.Fprintf(&b, " (no buffer: %s)", g.SkipReason)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// label is the node's display name: Name, or its Tag's Label.
func (n *NodeInfo) label() string {
	if n.Name == "" {
		if l, ok := n.Tag.(interface{ Label() string }); ok {
			return l.Label()
		}
	}
	return n.Name
}

// Refine runs the paper's plan refinement algorithm (§6.2) over a plan:
//
//  1. A bottom-up pass over the plan tree. Each non-blocking leaf starts an
//     execution group; a parent joins its children's groups as long as the
//     combined instruction footprint — shared functions counted once — plus
//     the buffer operator's own footprint stays within the L1 instruction
//     cache. When it cannot, the child group is closed and the parent
//     starts a new group.
//  2. A closed group gets a buffer operator above its top member, unless
//     the group's output cardinality estimate falls below the calibration
//     threshold (the buffer would cost more than it saves, §7.3).
//  3. The root group is never buffered — its output goes to the client.
//
// Blocking operators (sort, hash build) are never group members: they
// already buffer execution below them (§6).
func Refine(root *NodeInfo, cfg RefineConfig) (*Result, error) {
	if root == nil {
		return nil, fmt.Errorf("core: Refine over nil plan")
	}
	if cfg.L1IBytes <= 0 {
		return nil, fmt.Errorf("core: RefineConfig.L1IBytes must be positive")
	}
	res := &Result{}
	estimate := cfg.FootprintEstimator
	if estimate == nil {
		estimate = codemodel.CombinedFootprint
	}

	var visit func(n *NodeInfo) *openGroup
	closeGroup := func(g *openGroup) {
		grp := &Group{Members: g.members, FootprintBytes: g.footprint(estimate)}
		if g.top().EstRows >= cfg.CardinalityThreshold {
			grp.Buffered = true
			res.BufferAbove = append(res.BufferAbove, g.top())
		} else {
			grp.SkipReason = "cardinality"
		}
		res.Groups = append(res.Groups, grp)
	}

	visit = func(n *NodeInfo) *openGroup {
		var childGroups []*openGroup
		for _, c := range n.Children {
			if g := visit(c); g != nil {
				childGroups = append(childGroups, g)
			}
		}
		if n.Blocking {
			// A pipeline breaker: close every child group beneath it; it
			// cannot belong to a group itself.
			for _, g := range childGroups {
				closeGroup(g)
			}
			return nil
		}
		// Start this node's group and greedily absorb child groups while
		// the combined footprint plus a buffer still fits.
		g := &openGroup{members: []*NodeInfo{}, modules: nil}
		g.add(n)
		for _, cg := range childGroups {
			if g.fitsWith(cg, cfg.L1IBytes, estimate) {
				g.absorb(cg)
			} else {
				closeGroup(cg)
			}
		}
		return g
	}

	if g := visit(root); g != nil {
		// The root group is never buffered (paper §5: no buffer above the
		// top operator — output goes straight to the client).
		grp := &Group{Members: g.members, FootprintBytes: g.footprint(estimate), SkipReason: "root"}
		res.Groups = append(res.Groups, grp)
	}
	return res, nil
}

// openGroup is a group under construction during the bottom-up pass.
type openGroup struct {
	members []*NodeInfo
	modules []*codemodel.Module
}

func (g *openGroup) add(n *NodeInfo) {
	g.members = append(g.members, n)
	g.modules = append(g.modules, n.Modules...)
}

func (g *openGroup) top() *NodeInfo { return g.members[len(g.members)-1] }

func (g *openGroup) footprint(estimate func(...*codemodel.Module) int) int {
	return estimate(g.modules...)
}

// fitsWith reports whether absorbing other keeps the combined footprint
// strictly within the cache budget.
func (g *openGroup) fitsWith(other *openGroup, budget int, estimate func(...*codemodel.Module) int) bool {
	all := make([]*codemodel.Module, 0, len(g.modules)+len(other.modules))
	all = append(all, g.modules...)
	all = append(all, other.modules...)
	return estimate(all...) < budget
}

// absorb merges other into g. The current top (the absorbing parent) stays
// the group's top member.
func (g *openGroup) absorb(other *openGroup) {
	top := g.members[len(g.members)-1]
	g.members = append(g.members[:len(g.members)-1], other.members...)
	g.members = append(g.members, top)
	g.modules = append(g.modules, other.modules...)
}
