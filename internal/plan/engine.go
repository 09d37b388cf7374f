package plan

import (
	"fmt"
	"strings"

	"bufferdb/internal/codemodel"
	"bufferdb/internal/exec"
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
	return 0, fmt.Errorf("plan: unknown engine %q (valid: %s)", name, strings.Join(EngineNames(), ", "))
}

// Compile compiles a plan into an executable (Volcano-rooted) operator tree
// for the selected engine. cm may be nil for uninstrumented execution.
// With EngineVec the root is a ToVolcano adapter whenever the top of the
// plan has a batch variant, so callers drive every compiled plan through
// the same exec.Run loop.
func Compile(n *Node, cm *codemodel.Catalog, engine Engine) (exec.Operator, error) {
	switch engine {
	case EngineVolcano:
		return Build(n, cm)
	case EngineVec:
		return (&vecCompiler{cm: cm}).mixed(n)
	case EnginePush:
		return (&pushCompiler{cm: cm}).mixed(n)
	default:
		return nil, fmt.Errorf("plan: unknown engine %v", engine)
	}
}

// CompiledPlan couples an executable operator tree with the mapping from
// each compiled operator instance back to the plan node it implements —
// the bridge EXPLAIN ANALYZE uses to join runtime stats with plan shape
// (execution group, buffer size, estimates).
type CompiledPlan struct {
	Root exec.Operator
	// Nodes maps operator instances (exec.Operator, vec.Operator or an
	// adapter) to their plan node.
	Nodes map[any]*Node
}

// CompileAnalyzed compiles like Compile while recording the operator→node
// mapping needed to annotate runtime stats onto the plan tree.
func CompileAnalyzed(n *Node, cm *codemodel.Catalog, engine Engine) (*CompiledPlan, error) {
	cp := &CompiledPlan{Nodes: make(map[any]*Node)}
	record := func(op any, node *Node) { cp.Nodes[op] = node }
	var err error
	switch engine {
	case EngineVolcano:
		cp.Root, err = buildRecorded(n, cm, record)
	case EngineVec:
		cp.Root, err = (&vecCompiler{cm: cm, record: record}).mixed(n)
	case EnginePush:
		cp.Root, err = (&pushCompiler{cm: cm, record: record}).mixed(n)
	default:
		return nil, fmt.Errorf("plan: unknown engine %v", engine)
	}
	if err != nil {
		return nil, err
	}
	return cp, nil
}

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

// vecCompiler compiles plans for the vec engine. The optional record hook
// reports every compiled operator (batch, Volcano and adapter alike) with
// the plan node it implements — see CompileAnalyzed.
type vecCompiler struct {
	cm     *codemodel.Catalog
	record func(op any, n *Node)
}

// rec reports one compiled operator when recording is enabled.
func (vc *vecCompiler) rec(op any, n *Node) {
	if vc.record != nil {
		vc.record(op, n)
	}
}

// vec compiles a vec-capable node into its batch operator, adapting
// non-capable children behind FromVolcano.
func (vc *vecCompiler) vec(n *Node) (vec.Operator, error) {
	mod, err := moduleFor(n, vc.cm)
	if err != nil {
		return nil, err
	}
	switch n.Kind {
	case KindBuffer:
		// Through child, not vec: what the buffer batched may be an
		// aggregate that compiles to the block operator.
		return vc.child(n.Children[0])

	case KindSeqScan:
		op := vec.NewSeqScan(n.Table, n.Filter, mod, 0)
		op.Cols = n.ScanCols
		vc.rec(op, n)
		return op, nil

	case KindProject:
		child, err := vc.child(n.Children[0])
		if err != nil {
			return nil, err
		}
		op, err := vec.NewProject(child, n.Projections, n.ProjNames, mod)
		if err != nil {
			return nil, err
		}
		vc.rec(op, n)
		return op, nil

	case KindAggregate:
		child, err := vc.child(n.Children[0])
		if err != nil {
			return nil, err
		}
		op, err := vec.NewHashAggregate(child, n.GroupBy, n.Aggs, mod, 0)
		if err != nil {
			return nil, err
		}
		if n.SharedAgg != nil {
			op.SetShared(n.SharedAgg)
		}
		vc.rec(op, n)
		return op, nil

	case KindLimit:
		child, err := vc.child(n.Children[0])
		if err != nil {
			return nil, err
		}
		op := vec.NewLimit(child, n.LimitN)
		vc.rec(op, n)
		return op, nil

	case KindHashJoin:
		build := n.Children[1]
		if build.Kind != KindHashBuild {
			return nil, fmt.Errorf("plan: hash join inner must be a HashBuild node, got %v", build.Kind)
		}
		buildMod, err := moduleFor(build, vc.cm)
		if err != nil {
			return nil, err
		}
		outer, err := vc.child(n.Children[0])
		if err != nil {
			return nil, err
		}
		inner, err := vc.child(build.Children[0])
		if err != nil {
			return nil, err
		}
		op := vec.NewHashJoin(outer, inner, n.OuterKey, build.InnerKey, buildMod, mod, 0)
		if build.Shared != nil {
			op.SetShared(build.Shared)
		}
		vc.rec(op, n)
		return op, nil

	default:
		return nil, fmt.Errorf("plan: %v has no batch variant", n.Kind)
	}
}

// child compiles a child for a batch operator: natively when capable,
// otherwise the Volcano subtree behind a FromVolcano adapter (modeled with
// the buffer module — the adapter is a buffer refill loop).
func (vc *vecCompiler) child(n *Node) (vec.Operator, error) {
	op, err := blockAggregate(n, vc.cm, vc.record != nil)
	if op == nil && err == nil {
		if vecCapable(n) {
			return vc.vec(n)
		}
		op, err = vc.mixed(n)
	}
	if err != nil {
		return nil, err
	}
	bufMod, err := moduleFor(&Node{Kind: KindBuffer}, vc.cm)
	if err != nil {
		return nil, err
	}
	adapter := vec.NewFromVolcano(op, 0, bufMod)
	vc.rec(adapter, n)
	return adapter, nil
}

// mixed compiles a node for the vec engine from the Volcano side: capable
// subtrees become batch operators behind a ToVolcano adapter, everything
// else builds its Volcano operator with children compiled the same way.
func (vc *vecCompiler) mixed(n *Node) (exec.Operator, error) {
	if op, err := blockAggregate(n, vc.cm, vc.record != nil); op != nil || err != nil {
		return op, err
	}
	if vecCapable(n) {
		op, err := vc.vec(n)
		if err != nil {
			return nil, err
		}
		adapter := vec.NewToVolcano(op)
		vc.rec(adapter, n)
		return adapter, nil
	}
	op, err := BuildNode(n, vc.cm, func(c *Node) (exec.Operator, error) {
		return vc.mixed(c)
	})
	if err != nil {
		return nil, err
	}
	vc.rec(op, n)
	return op, nil
}
