package plan

import (
	"fmt"

	"bufferdb/internal/codemodel"
	"bufferdb/internal/exec"
	"bufferdb/internal/push"
)

// pushCapable reports whether a node has a fused (push) variant. Buffer
// nodes are transparent: a fused pipe already batches instruction work, so
// the refinement pass's buffers dissolve into the loop, exactly as they
// dissolve into the vec engine's batches.
func pushCapable(n *Node) bool {
	switch n.Kind {
	case KindSeqScan, KindFilter, KindProject, KindAggregate, KindLimit:
		return true
	case KindHashJoin:
		return len(n.Children) == 2 && n.Children[1].Kind == KindHashBuild
	case KindBuffer:
		return pushCapable(n.Children[0])
	default:
		return false
	}
}

// pushCompiler compiles plans for the push engine: maximal capable
// subtrees fuse into push.Pipelines, everything else builds its Volcano
// operator with children compiled the same way (the vecCompiler's mixed
// strategy, with pipelines instead of batch subtrees).
type pushCompiler struct {
	cm     *codemodel.Catalog
	record func(op any, n *Node)
}

// rec reports one compiled operator or pipeline element when recording is
// enabled.
func (pc *pushCompiler) rec(op any, n *Node) {
	if pc.record != nil && op != nil {
		pc.record(op, n)
	}
}

// mixed compiles a node from the Volcano side: capable subtrees fuse,
// everything else builds its Volcano operator around recursively compiled
// children.
func (pc *pushCompiler) mixed(n *Node) (exec.Operator, error) {
	if op, err := blockAggregate(n, pc.cm, pc.record != nil); op != nil || err != nil {
		return op, err
	}
	if pushCapable(n) {
		return pc.fuse(n)
	}
	op, err := BuildNode(n, pc.cm, func(c *Node) (exec.Operator, error) {
		return pc.mixed(c)
	})
	if err != nil {
		return nil, err
	}
	pc.rec(op, n)
	return op, nil
}

// fuse compiles a capable subtree into one Pipeline.
func (pc *pushCompiler) fuse(n *Node) (exec.Operator, error) {
	b := push.NewBuilder()
	if err := pc.chain(b, n); err != nil {
		return nil, err
	}
	pl, err := b.Build()
	if err != nil {
		return nil, err
	}
	pc.rec(pl, n)
	return pl, nil
}

// chain appends node n (and its fusable descendants) to builder b,
// bottom-up: sources first, then the stage stack.
func (pc *pushCompiler) chain(b *push.Builder, n *Node) error {
	mod, err := moduleFor(n, pc.cm)
	if err != nil {
		return err
	}
	switch n.Kind {
	case KindBuffer:
		// The fused loop subsumes buffering: dissolve. (Through chainChild:
		// what the buffer batched may compile to the block operator.)
		return pc.chainChild(b, n.Children[0])

	case KindSeqScan:
		pc.rec(b.Scan(n.Table, n.Filter, n.ScanCols, mod), n)

	case KindFilter:
		if err := pc.chainChild(b, n.Children[0]); err != nil {
			return err
		}
		pc.rec(b.Filter(n.Filter, mod), n)

	case KindProject:
		if err := pc.chainChild(b, n.Children[0]); err != nil {
			return err
		}
		pc.rec(b.Project(n.Projections, n.ProjNames, mod), n)

	case KindLimit:
		if err := pc.chainChild(b, n.Children[0]); err != nil {
			return err
		}
		pc.rec(b.Limit(n.LimitN), n)

	case KindAggregate:
		if err := pc.chainChild(b, n.Children[0]); err != nil {
			return err
		}
		aggH := b.Aggregate(n.GroupBy, n.Aggs, mod)
		if n.SharedAgg != nil {
			push.SetSharedAgg(aggH, n.SharedAgg)
		}
		pc.rec(aggH, n)

	case KindHashJoin:
		build := n.Children[1]
		if build.Kind != KindHashBuild {
			return fmt.Errorf("plan: hash join inner must be a HashBuild node, got %v", build.Kind)
		}
		buildMod, err := moduleFor(build, pc.cm)
		if err != nil {
			return err
		}
		if err := pc.chainChild(b, n.Children[0]); err != nil {
			return err
		}
		inner := push.NewBuilder()
		if err := pc.chainChild(inner, build.Children[0]); err != nil {
			return err
		}
		probeH, buildH := b.Probe(inner, n.OuterKey, build.InnerKey, buildMod, mod)
		if build.Shared != nil {
			push.SetSharedBuild(buildH, build.Shared)
		}
		pc.rec(probeH, n)
		pc.rec(buildH, build)

	default:
		return pc.source(b, n)
	}
	return nil
}

// chainChild extends b with a child node: fused inline when possible,
// otherwise through an adapter source.
func (pc *pushCompiler) chainChild(b *push.Builder, n *Node) error {
	op, err := blockAggregate(n, pc.cm, pc.record != nil)
	if op == nil && err == nil {
		if pushCapable(n) {
			return pc.chain(b, n)
		}
		op, err = pc.mixed(n)
	}
	if err != nil {
		return err
	}
	return pc.feed(b, op, n)
}

// source compiles n for the host engines and feeds the pipe from it.
func (pc *pushCompiler) source(b *push.Builder, n *Node) error {
	op, err := pc.mixed(n)
	if err != nil {
		return err
	}
	return pc.feed(b, op, n)
}

// feed makes op, compiled from n, a source of the pipe: a pull adapter
// modeled with the buffer module (the adapter is a refill loop, like
// vec.FromVolcano).
func (pc *pushCompiler) feed(b *push.Builder, op exec.Operator, n *Node) error {
	bufMod, err := moduleFor(&Node{Kind: KindBuffer}, pc.cm)
	if err != nil {
		return err
	}
	pc.rec(b.Source(op, bufMod), n)
	return nil
}
