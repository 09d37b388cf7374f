package plan

import (
	"fmt"

	"bufferdb/internal/codemodel"
	"bufferdb/internal/core"
	"bufferdb/internal/exec"
)

// moduleFor resolves a plan node to its instruction-footprint module in the
// code model. Limit is too small to model.
func moduleFor(n *Node, cm *codemodel.Catalog) (*codemodel.Module, error) {
	if cm == nil {
		return nil, nil
	}
	switch n.Kind {
	case KindSeqScan:
		if n.Filter != nil {
			return cm.Module("SeqScanPred")
		}
		return cm.Module("SeqScan")
	case KindIndexLookup, KindIndexFullScan:
		return cm.Module("IndexScan")
	case KindNestLoopJoin:
		return cm.Module("NestLoop")
	case KindHashBuild:
		return cm.Module("HashBuild")
	case KindHashJoin:
		return cm.Module("HashProbe")
	case KindMergeJoin:
		return cm.Module("MergeJoin")
	case KindSort:
		return cm.Module("Sort")
	case KindAggregate:
		return cm.AggModule(exec.AggFuncNames(n.Aggs))
	case KindMaterial:
		return cm.Module("Material")
	case KindBuffer:
		return cm.Module("Buffer")
	case KindFilter:
		return cm.Module("Filter")
	case KindProject:
		return cm.Module("Project")
	case KindLimit, KindCachedSource:
		// Limit is too small to model; replaying cached rows executes almost
		// no code, which is the point of the reuse cache.
		return nil, nil
	default:
		return nil, fmt.Errorf("plan: no module mapping for %v", n.Kind)
	}
}

// Build compiles a plan into a pure-Volcano operator tree. cm may be nil
// for uninstrumented execution.
func Build(n *Node, cm *codemodel.Catalog) (exec.Operator, error) {
	return buildRecorded(n, cm, nil)
}

// buildRecorded compiles like Build, additionally reporting every compiled
// operator and the plan node it came from through record (nil disables).
func buildRecorded(n *Node, cm *codemodel.Catalog, record func(op any, n *Node)) (exec.Operator, error) {
	var rec func(*Node) (exec.Operator, error)
	rec = func(c *Node) (exec.Operator, error) {
		if op, err := blockAggregate(c, cm, record != nil); op != nil || err != nil {
			return op, err
		}
		op, err := BuildNode(c, cm, rec)
		if err != nil {
			return nil, err
		}
		if record != nil {
			record(op, c)
		}
		return op, nil
	}
	return rec(n)
}

// blockAggregate is where a plan takes the block path: it compiles n to the
// fused exec.BlockAggregate, and returns it, when n is an Aggregate whose
// input is a SeqScan of a memory-resident table — reached through any
// number of Buffer nodes, which a block loop subsumes as the push and vec
// compilers' loops already do — and the scan's filter, the group list and
// every aggregate have a block kernel. All three compilers ask it first at
// every node, so the operator is the same one behind each engine. It
// answers nil for everything else, and always when the plan is compiled
// against a code model or for EXPLAIN ANALYZE (analyzed): simulated
// counters and per-operator statistics describe the row operators.
func blockAggregate(n *Node, cm *codemodel.Catalog, analyzed bool) (exec.Operator, error) {
	if n.Kind != KindAggregate || cm != nil || analyzed {
		return nil, nil
	}
	in := n.Children[0]
	for in.Kind == KindBuffer {
		in = in.Children[0]
	}
	if in.Kind != KindSeqScan || in.Table.Paged() {
		return nil, nil
	}
	scan := exec.NewSeqScan(in.Table, in.Filter, nil)
	scan.Cols = in.ScanCols
	agg, err := exec.NewBlockAggregate(scan, n.GroupBy, n.Aggs)
	if agg == nil || err != nil {
		return nil, err
	}
	if n.SharedAgg != nil {
		agg.SetShared(n.SharedAgg)
	}
	return agg, nil
}

// BuildNode compiles a single node into its Volcano operator, resolving
// operand children through child — the hook the engine switch (Compile)
// uses to splice batch subtrees in behind adapters, and the coordinator
// uses to splice its gathered shard streams in for a plan's scan.
func BuildNode(n *Node, cm *codemodel.Catalog, child func(*Node) (exec.Operator, error)) (exec.Operator, error) {
	mod, err := moduleFor(n, cm)
	if err != nil {
		return nil, err
	}
	switch n.Kind {
	case KindSeqScan:
		scan := exec.NewSeqScan(n.Table, n.Filter, mod)
		scan.Cols = n.ScanCols
		return scan, nil

	case KindIndexLookup:
		return exec.NewIndexLookup(n.Table, n.Index, mod)

	case KindIndexFullScan:
		return exec.NewIndexFullScan(n.Table, n.Index, n.Filter, mod)

	case KindNestLoopJoin:
		outer, err := child(n.Children[0])
		if err != nil {
			return nil, err
		}
		innerOp, err := child(n.Children[1])
		if err != nil {
			return nil, err
		}
		inner, ok := innerOp.(exec.Rescannable)
		if !ok {
			return nil, fmt.Errorf("plan: nest-loop inner %s is not rescannable", innerOp.Name())
		}
		return exec.NewNestLoopJoin(outer, inner, n.OuterKey, n.Residual, mod), nil

	case KindHashJoin:
		outer, err := child(n.Children[0])
		if err != nil {
			return nil, err
		}
		build := n.Children[1]
		if build.Kind != KindHashBuild {
			return nil, fmt.Errorf("plan: hash join inner must be a HashBuild node, got %v", build.Kind)
		}
		buildMod, err := moduleFor(build, cm)
		if err != nil {
			return nil, err
		}
		inner, err := child(build.Children[0])
		if err != nil {
			return nil, err
		}
		hj := exec.NewHashJoin(outer, inner, n.OuterKey, build.InnerKey, buildMod, mod)
		if build.Shared != nil {
			hj.SetShared(build.Shared)
		}
		return hj, nil

	case KindHashBuild:
		return nil, fmt.Errorf("plan: HashBuild must be the inner child of a HashJoin")

	case KindMergeJoin:
		left, err := child(n.Children[0])
		if err != nil {
			return nil, err
		}
		right, err := child(n.Children[1])
		if err != nil {
			return nil, err
		}
		return exec.NewMergeJoin(left, right, n.OuterKey, n.InnerKey, mod), nil

	case KindSort:
		c, err := child(n.Children[0])
		if err != nil {
			return nil, err
		}
		return exec.NewSort(c, n.SortKeys, mod), nil

	case KindAggregate:
		c, err := child(n.Children[0])
		if err != nil {
			return nil, err
		}
		agg, err := exec.NewAggregate(c, n.GroupBy, n.Aggs, mod)
		if err != nil {
			return nil, err
		}
		if n.SharedAgg != nil {
			agg.SetShared(n.SharedAgg)
		}
		return agg, nil

	case KindMaterial:
		c, err := child(n.Children[0])
		if err != nil {
			return nil, err
		}
		return exec.NewMaterial(c, mod), nil

	case KindLimit:
		c, err := child(n.Children[0])
		if err != nil {
			return nil, err
		}
		return exec.NewLimit(c, n.LimitN), nil

	case KindBuffer:
		c, err := child(n.Children[0])
		if err != nil {
			return nil, err
		}
		return core.NewBuffer(c, n.BufferSize, mod), nil

	case KindFilter:
		c, err := child(n.Children[0])
		if err != nil {
			return nil, err
		}
		return exec.NewFilter(c, n.Filter, mod), nil

	case KindProject:
		c, err := child(n.Children[0])
		if err != nil {
			return nil, err
		}
		return exec.NewProject(c, n.Projections, n.ProjNames, mod)

	case KindCachedSource:
		return exec.NewCachedRows(n.Schema(), n.CachedRows), nil

	default:
		return nil, fmt.Errorf("plan: cannot compile %v", n.Kind)
	}
}
