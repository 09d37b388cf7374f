package plan

import (
	"errors"
	"fmt"
	"strings"

	"bufferdb/internal/vec"
)

// Engine selects the execution model a plan compiles to.
type Engine uint8

const (
	// EngineVolcano compiles to the tuple-at-a-time iterators of
	// internal/exec (plus any Buffer nodes the refinement pass inserted) —
	// the paper's side of the §2 trade-off.
	EngineVolcano Engine = iota
	// EngineVec compiles to the block-oriented operators of internal/vec
	// where batch variants exist, falling back to Volcano operators behind
	// FromVolcano/ToVolcano adapters everywhere else — the alternative the
	// paper's §2 positions buffering against.
	EngineVec
	// EnginePush compiles each execution group into a single push-fused
	// loop (internal/push): producer-driven consumer callbacks with no
	// per-tuple virtual Next, materializing only at pipeline breakers and
	// falling back to Volcano operators behind adapter sources — the
	// data-centric-compilation point of the same trade-off.
	EnginePush
)

// String returns the engine's display name. It is one half of the
// canonical name round-trip; ParseEngine is the other. No other code may
// compare engine-name strings.
func (e Engine) String() string {
	switch e {
	case EngineVolcano:
		return "volcano"
	case EngineVec:
		return "vec"
	case EnginePush:
		return "push"
	default:
		return fmt.Sprintf("Engine(%d)", uint8(e))
	}
}

// Engines enumerates every selectable engine in display order. Adding an
// engine here (plus its String case) is all a new engine needs for every
// name-parsing consumer — CLI flags, daemon config, the wire protocol and
// the facade — to accept it.
func Engines() []Engine {
	return []Engine{EngineVolcano, EngineVec, EnginePush}
}

// EngineNames returns the display names of every selectable engine.
func EngineNames() []string {
	es := Engines()
	names := make([]string, len(es))
	for i, e := range es {
		names[i] = e.String()
	}
	return names
}

// ErrUnknownEngine is wrapped when a name (ParseEngine) or a value
// (Check, and so Compile) names no engine.
var ErrUnknownEngine = errors.New("unknown engine")

// ParseEngine resolves an engine display name. It is the single
// engine-name parser in the tree: every consumer (CLI flags, daemon
// config, wire options, the facade) routes through it, so the valid set
// has exactly one definition. Matching goes through String so no string
// literal is ever compared twice.
func ParseEngine(name string) (Engine, error) {
	for _, e := range Engines() {
		if name == e.String() {
			return e, nil
		}
	}
	return 0, fmt.Errorf("%w %q (valid: %s)", ErrUnknownEngine, name, strings.Join(EngineNames(), ", "))
}

// Check returns a wrapped ErrUnknownEngine when e is not one of Engines.
func (e Engine) Check() error {
	if int(e) >= len(Engines()) {
		return fmt.Errorf("%w %s (valid: %s)", ErrUnknownEngine, e, strings.Join(EngineNames(), ", "))
	}
	return nil
}

// adapterEngine is the report's Engine column for the vec engine's
// ToVolcano and FromVolcano bridges.
const adapterEngine = "adapter"

// vecCapable reports whether a node has a block-oriented variant. A Buffer
// node is transparent: batching is the vec engine's native mode, so the
// refinement pass's buffers dissolve into the batch operator below them.
func vecCapable(n *Node) bool {
	switch n.Kind {
	case KindSeqScan, KindProject, KindAggregate, KindLimit:
		return true
	case KindHashJoin:
		return len(n.Children) == 2 && n.Children[1].Kind == KindHashBuild
	case KindBuffer:
		return vecCapable(n.Children[0])
	default:
		return false
	}
}

// vec compiles a vec-capable node into its batch operator.
func (c *compiler) vec(n *Node) (vec.Operator, error) {
	mod, err := moduleFor(n, c.cm)
	if err != nil {
		return nil, err
	}
	mark := c.mark()
	var op vec.Operator
	switch n.Kind {
	case KindBuffer:
		// Through batch, not vec: what the buffer batched may be an
		// aggregate that compiles to the block operator.
		return c.batch(n.Children[0])

	case KindSeqScan:
		s := vec.NewSeqScan(n.Table, n.Filter, mod, 0)
		s.Cols = n.ScanCols
		op = s

	case KindProject:
		child, err := c.batch(n.Children[0])
		if err != nil {
			return nil, err
		}
		p, err := vec.NewProject(child, n.Projections, n.ProjNames, mod)
		if err != nil {
			return nil, err
		}
		op = p

	case KindAggregate:
		child, err := c.batch(n.Children[0])
		if err != nil {
			return nil, err
		}
		a, err := vec.NewHashAggregate(child, n.GroupBy, n.Aggs, mod, 0)
		if err != nil {
			return nil, err
		}
		if n.SharedAgg != nil {
			a.SetShared(n.SharedAgg)
		}
		op = a

	case KindLimit:
		child, err := c.batch(n.Children[0])
		if err != nil {
			return nil, err
		}
		op = vec.NewLimit(child, n.LimitN)

	case KindHashJoin:
		build := n.Children[1]
		if build.Kind != KindHashBuild {
			return nil, fmt.Errorf("plan: hash join inner must be a HashBuild node, got %v", build.Kind)
		}
		buildMod, err := moduleFor(build, c.cm)
		if err != nil {
			return nil, err
		}
		outer, err := c.batch(n.Children[0])
		if err != nil {
			return nil, err
		}
		inner, err := c.batch(build.Children[0])
		if err != nil {
			return nil, err
		}
		j := vec.NewHashJoin(outer, inner, n.OuterKey, build.InnerKey, buildMod, mod, 0)
		if build.Shared != nil {
			j.SetShared(build.Shared)
		}
		op = j

	default:
		return nil, fmt.Errorf("plan: %v has no batch variant", n.Kind)
	}
	c.record(mark, op, EngineVec.String(), n)
	return op, nil
}

// batch compiles a child of a batch operator: natively when capable,
// otherwise behind a FromVolcano adapter.
func (c *compiler) batch(n *Node) (vec.Operator, error) {
	from, ok, err := c.adapt(n, nil)
	if err != nil {
		return nil, err
	}
	if ok {
		return from, nil
	}
	return c.vec(n)
}
