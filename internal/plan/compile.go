package plan

import (
	"fmt"

	"bufferdb/internal/codemodel"
	"bufferdb/internal/core"
	"bufferdb/internal/exec"
	"bufferdb/internal/push"
	"bufferdb/internal/vec"
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

// Compile compiles a plan into an executable (Volcano-rooted) operator tree
// for the selected engine. cm may be nil for uninstrumented execution.
// Under EngineVec a capable subtree runs behind a ToVolcano adapter and
// under EnginePush as one fused Pipeline, so callers drive every compiled
// plan through the same exec.Run loop.
func Compile(n *Node, cm *codemodel.Catalog, engine Engine) (exec.Operator, error) {
	op, _, err := compile(n, cm, engine, false)
	return op, err
}

// CompileAnalyzed compiles like Compile, for EXPLAIN ANALYZE: the block
// path stays off, and the walk records the report tree of the operators,
// adapters and fused elements it creates. BuildReport fills the tree in
// once the plan has run.
func CompileAnalyzed(n *Node, cm *codemodel.Catalog, engine Engine) (exec.Operator, *OpReport, error) {
	return compile(n, cm, engine, true)
}

// compile runs the one walk behind Compile and CompileAnalyzed.
func compile(n *Node, cm *codemodel.Catalog, engine Engine, analyzed bool) (exec.Operator, *OpReport, error) {
	if err := engine.Check(); err != nil {
		return nil, nil, err
	}
	c := &compiler{cm: cm, engine: engine, analyzed: analyzed}
	op, err := c.op(n)
	if err != nil || !analyzed {
		return op, nil, err
	}
	return op, c.reports[0], nil
}

// compiler is the one recursion every engine compiles through: a plan node
// becomes the block aggregate, a batch subtree (vec), a fused pipeline
// (push) or its Volcano operator, and a child that cannot join its batch
// or fused parent crosses over through adapt. When analyzed, the walk also
// builds the EXPLAIN ANALYZE tree: each element it creates pushes its
// OpReport onto reports, adopting the reports its children pushed.
type compiler struct {
	cm       *codemodel.Catalog
	engine   Engine
	analyzed bool
	reports  []*OpReport
}

// mark is where the reports of the element about to be compiled begin.
func (c *compiler) mark() int { return len(c.reports) }

// record pushes the report of elem, which the walk made from n on the named
// engine, adopting every report pushed since mark as its children. It
// returns the report, or nil when the compile is not analyzed (or the push
// builder failed and elem is nil; Build then returns the error).
func (c *compiler) record(mark int, elem exec.Named, engine string, n *Node) *OpReport {
	if !c.analyzed || elem == nil {
		return nil
	}
	r := &OpReport{Name: elem.Name(), Engine: engine, Group: n.Group, EstRows: n.EstRows, key: elem}
	r.Children = append(r.Children, c.reports[mark:]...)
	c.reports = append(c.reports[:mark], r)
	return r
}

// capable reports whether n has a batch (vec) or fused (push) variant on
// the compiler's engine.
func (c *compiler) capable(n *Node) bool {
	switch c.engine {
	case EngineVec:
		return vecCapable(n)
	case EnginePush:
		return pushCapable(n)
	default:
		return false
	}
}

// op compiles n into a Volcano-side operator. It asks blockAggregate
// first; on vec or push a capable n becomes a batch subtree behind a
// ToVolcano adapter or one fused pipeline; anything else builds its
// Volcano operator with children compiled by this same walk.
func (c *compiler) op(n *Node) (exec.Operator, error) {
	if op, err := blockAggregate(n, c.cm, c.analyzed); op != nil || err != nil {
		return op, err
	}
	mark := c.mark()
	if c.capable(n) {
		if c.engine == EnginePush {
			return c.fuse(n)
		}
		v, err := c.vec(n)
		if err != nil {
			return nil, err
		}
		op := vec.NewToVolcano(v)
		c.record(mark, op, adapterEngine, n)
		return op, nil
	}
	op, err := BuildNode(n, c.cm, c.op)
	if err != nil {
		return nil, err
	}
	if r := c.record(mark, op, EngineVolcano.String(), n); r != nil && n.Kind == KindBuffer {
		r.Buffer, r.BufferSize = true, n.BufferSize
		if r.BufferSize == 0 {
			r.BufferSize = core.DefaultBufferSize
		}
	}
	return op, nil
}

// adapt compiles n, a child of a batch or fused subtree, when it stays on
// the Volcano side — the block aggregate, or a node without a variant for
// the engine — and wraps it in the engine's adapter: a vec.FromVolcano, or
// a pull source starting b's pipe. Both are modeled with the Buffer module,
// since an adapter is a buffer refill loop. It compiles nothing and
// returns ok=false when n joins its parent's subtree instead.
func (c *compiler) adapt(n *Node, b *push.Builder) (from *vec.FromVolcano, ok bool, err error) {
	mark := c.mark()
	op, err := blockAggregate(n, c.cm, c.analyzed)
	if err != nil {
		return nil, false, err
	}
	if op == nil {
		if c.capable(n) {
			return nil, false, nil
		}
		if op, err = c.op(n); err != nil {
			return nil, false, err
		}
	}
	bufMod, err := moduleFor(&Node{Kind: KindBuffer}, c.cm)
	if err != nil {
		return nil, false, err
	}
	if b != nil {
		c.record(mark, b.Source(op, bufMod), EnginePush.String(), n)
		return nil, true, nil
	}
	from = vec.NewFromVolcano(op, 0, bufMod)
	if r := c.record(mark, from, adapterEngine, n); r != nil {
		r.Buffer, r.BufferSize = true, vec.DefaultBatchSize
	}
	return from, true, nil
}

// blockAggregate is where a plan takes the block path: it compiles n to the
// fused exec.BlockAggregate, and returns it, when n is an Aggregate whose
// input is a SeqScan of a memory-resident table — reached through any
// number of Buffer nodes, which a block loop subsumes as the push and vec
// loops already do — and the scan's filter, the group list and every
// aggregate have a block kernel. The compiler asks it first at every node,
// on every engine, so the operator is the same one behind each engine. It
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
// operand children through child — the hook the compiler uses to compile
// children with its own walk, and the coordinator uses to splice its
// gathered shard streams in for a plan's scan.
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
