package plan

import (
	"fmt"

	"bufferdb/internal/codemodel"
	"bufferdb/internal/core"
)

// RefineOptions parameterizes the post-optimization buffer-insertion pass.
type RefineOptions struct {
	// L1IBytes is the instruction-cache budget per execution group
	// (0 = the paper's 16 KB trace-cache upper estimate).
	L1IBytes int
	// CardinalityThreshold is the calibrated minimum output cardinality
	// for buffering to pay (paper §6, §7.3).
	CardinalityThreshold float64
	// BufferSize is the capacity of inserted buffers (0 = default).
	BufferSize int
	// UseHotFootprints switches the group-budget check from the paper's
	// conservative binary-size estimate to measured hot bytes — an oracle
	// used by the ablation study (a real system cannot know hot bytes
	// statically).
	UseHotFootprints bool
}

// DefaultL1IBytes matches the simulated machine and the paper's estimate.
const DefaultL1IBytes = 16 * 1024

// DefaultCardinalityThreshold is the refinement cutoff every served query
// uses: the paper's §6 calibration (core.CalibrateThreshold) run once for
// the default simulated CPU over cardinalities 0, 16, 64, 256, 1024 and
// 4096 with 4096-row inputs and the default buffer size. The calibration
// is deterministic, so its answer is a constant; a facade test pins it.
const DefaultCardinalityThreshold = 16

// Refine runs the paper's plan refinement algorithm over a physical plan
// and returns an equivalent plan with buffer operators inserted where they
// pay off, plus the grouping decisions for EXPLAIN-style reporting.
// The input plan is not modified.
func Refine(root *Node, cm *codemodel.Catalog, opt RefineOptions) (*Node, *core.Result, error) {
	if cm == nil {
		return nil, nil, fmt.Errorf("plan: Refine needs a code model")
	}
	if opt.L1IBytes == 0 {
		opt.L1IBytes = DefaultL1IBytes
	}

	cloned := clone(root)
	info, err := toNodeInfo(cloned, cm)
	if err != nil {
		return nil, nil, err
	}
	bufMod, err := cm.Module("Buffer")
	if err != nil {
		return nil, nil, err
	}
	cfg := core.RefineConfig{
		L1IBytes:             opt.L1IBytes,
		BufferModule:         bufMod,
		CardinalityThreshold: opt.CardinalityThreshold,
		BufferSize:           opt.BufferSize,
	}
	if opt.UseHotFootprints {
		cfg.FootprintEstimator = core.HotFootprintEstimator
	}
	res, err := core.Refine(info, cfg)
	if err != nil {
		return nil, nil, err
	}

	// Annotate execution-group membership (1-based) so EXPLAIN ANALYZE can
	// report which group each operator landed in.
	for gi, g := range res.Groups {
		for _, m := range g.Members {
			m.Tag.(*Node).Group = gi + 1
		}
	}

	// Wrap every flagged node in a Buffer; the buffer carries the group of
	// the subtree it batches.
	flagged := make(map[*Node]bool, len(res.BufferAbove))
	for _, ni := range res.BufferAbove {
		flagged[ni.Tag.(*Node)] = true
	}
	var wrap func(n *Node)
	wrap = func(n *Node) {
		for i, c := range n.Children {
			wrap(c)
			if flagged[c] {
				b := Buffer(c, opt.BufferSize)
				b.Group = c.Group
				n.Children[i] = b
			}
		}
	}
	wrap(cloned)
	if flagged[cloned] {
		// Cannot happen (the root group is never buffered), but guard it.
		b := Buffer(cloned, opt.BufferSize)
		b.Group = cloned.Group
		cloned = b
	}
	return cloned, res, nil
}

// Clone deep-copies a plan tree, so a caller can keep the original (a plan
// cache's template) while an execution mutates its private copy.
func Clone(n *Node) *Node { return clone(n) }

// clone deep-copies the node tree (expressions and tables are shared —
// they are immutable during planning).
func clone(n *Node) *Node {
	cp := *n
	cp.Children = make([]*Node, len(n.Children))
	for i, c := range n.Children {
		cp.Children[i] = clone(c)
	}
	return &cp
}

// toNodeInfo mirrors the plan as the refinement algorithm's NodeInfo tree.
// It leaves Name empty: a report renders the node's Label from the Tag.
func toNodeInfo(n *Node, cm *codemodel.Catalog) (*core.NodeInfo, error) {
	mod, err := moduleFor(n, cm)
	if err != nil {
		return nil, err
	}
	info := &core.NodeInfo{
		Blocking: n.Blocking(),
		EstRows:  n.EstRows,
		Tag:      n,
	}
	if mod != nil {
		info.Modules = []*codemodel.Module{mod}
	}
	for _, c := range n.Children {
		ci, err := toNodeInfo(c, cm)
		if err != nil {
			return nil, err
		}
		info.Children = append(info.Children, ci)
	}
	return info, nil
}
