package plan

import (
	"fmt"

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

// fuse compiles a capable subtree into one Pipeline.
func (c *compiler) fuse(n *Node) (exec.Operator, error) {
	mark := c.mark()
	b := push.NewBuilder()
	if err := c.chain(b, n); err != nil {
		return nil, err
	}
	pl, err := b.Build()
	if err != nil {
		return nil, err
	}
	c.record(mark, pl, EnginePush.String(), n)
	return pl, nil
}

// chain appends a capable node n (and its fusable descendants) to builder
// b, bottom-up: sources first, then the stage stack.
func (c *compiler) chain(b *push.Builder, n *Node) error {
	mod, err := moduleFor(n, c.cm)
	if err != nil {
		return err
	}
	mark := c.mark()
	var elem exec.Named
	switch n.Kind {
	case KindBuffer:
		// The fused loop subsumes buffering: dissolve. (Through chainChild:
		// what the buffer batched may compile to the block operator.)
		return c.chainChild(b, n.Children[0])

	case KindSeqScan:
		elem = b.Scan(n.Table, n.Filter, n.ScanCols, mod)

	case KindFilter:
		if err := c.chainChild(b, n.Children[0]); err != nil {
			return err
		}
		elem = b.Filter(n.Filter, mod)

	case KindProject:
		if err := c.chainChild(b, n.Children[0]); err != nil {
			return err
		}
		elem = b.Project(n.Projections, n.ProjNames, mod)

	case KindLimit:
		if err := c.chainChild(b, n.Children[0]); err != nil {
			return err
		}
		elem = b.Limit(n.LimitN)

	case KindAggregate:
		if err := c.chainChild(b, n.Children[0]); err != nil {
			return err
		}
		elem = b.Aggregate(n.GroupBy, n.Aggs, mod)
		if n.SharedAgg != nil {
			push.SetSharedAgg(elem, n.SharedAgg)
		}

	case KindHashJoin:
		build := n.Children[1]
		if build.Kind != KindHashBuild {
			return fmt.Errorf("plan: hash join inner must be a HashBuild node, got %v", build.Kind)
		}
		buildMod, err := moduleFor(build, c.cm)
		if err != nil {
			return err
		}
		if err := c.chainChild(b, n.Children[0]); err != nil {
			return err
		}
		inner, buildMark := push.NewBuilder(), c.mark()
		if err := c.chainChild(inner, build.Children[0]); err != nil {
			return err
		}
		probe, bs := b.Probe(inner, n.OuterKey, build.InnerKey, buildMod, mod)
		if build.Shared != nil {
			push.SetSharedBuild(bs, build.Shared)
		}
		c.record(buildMark, bs, EnginePush.String(), build)
		elem = probe

	default:
		return fmt.Errorf("plan: %v has no fused variant", n.Kind)
	}
	c.record(mark, elem, EnginePush.String(), n)
	return nil
}

// chainChild extends b with a child node: fused inline when capable,
// otherwise through a pull source.
func (c *compiler) chainChild(b *push.Builder, n *Node) error {
	if _, ok, err := c.adapt(n, b); ok || err != nil {
		return err
	}
	return c.chain(b, n)
}
