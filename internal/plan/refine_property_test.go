package plan

import (
	"fmt"
	"math/rand"
	"testing"

	"bufferdb/internal/codemodel"
	"bufferdb/internal/core"
	"bufferdb/internal/exec"
	"bufferdb/internal/expr"
	"bufferdb/internal/storage"
)

// randPlanGen builds random (but well-typed) physical plans over synthetic
// tables, for the refinement-transparency property test.
type randPlanGen struct {
	rng *rand.Rand
	cat *storage.Catalog
}

func newRandPlanGen(seed int64) *randPlanGen {
	g := &randPlanGen{rng: rand.New(rand.NewSource(seed)), cat: storage.NewCatalog()}
	// A few base tables with an int key (clustered duplicates, so joins
	// and groupings have structure) and an int value.
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("t%d", i)
		tbl := storage.NewTable(name, storage.Schema{
			{Table: name, Name: "k", Type: storage.TypeInt64},
			{Table: name, Name: "v", Type: storage.TypeInt64},
		})
		n := 200 + g.rng.Intn(400)
		for r := 0; r < n; r++ {
			tbl.MustAppend(storage.Row{
				storage.NewInt(int64(r / (1 + g.rng.Intn(3)))),
				storage.NewInt(int64(g.rng.Intn(1000))),
			})
		}
		g.cat.MustAdd(tbl)
	}
	return g
}

// scan builds a leaf over a random table, with an optional predicate.
func (g *randPlanGen) scan() *Node {
	tbl, _ := g.cat.Table(fmt.Sprintf("t%d", g.rng.Intn(3)))
	var filter expr.Expr
	if g.rng.Intn(2) == 0 {
		cutoff := int64(g.rng.Intn(1200))
		filter = expr.MustBinary(expr.OpLt,
			expr.NewColRef(1, "v", storage.TypeInt64),
			expr.NewConst(storage.NewInt(cutoff)))
	}
	return SeqScan(tbl, filter)
}

// col builds a positional int column reference (both synthetic tables and
// their joins keep k at even and v at odd positions).
func col(pos int) *expr.ColRef {
	return expr.NewColRef(pos, fmt.Sprintf("c%d", pos), storage.TypeInt64)
}

// tree builds a random plan of bounded depth. The root is always an
// aggregate so results are small and comparable.
func (g *randPlanGen) tree() (*Node, error) {
	node := g.pipeline(g.scan(), 3)
	if g.rng.Intn(2) == 0 {
		// Join with another pipeline on the key columns (positions 0).
		right := g.pipeline(g.scan(), 2)
		node = HashJoin(node, right, col(0), col(0))
	}
	v := col(1)
	return Aggregate(node, nil, []expr.AggSpec{
		{Func: expr.AggCountStar},
		{Func: expr.AggSum, Arg: v},
		{Func: expr.AggMin, Arg: v},
		{Func: expr.AggMax, Arg: v},
	})
}

// pipeline stacks random unary operators on top of a node.
func (g *randPlanGen) pipeline(node *Node, maxOps int) *Node {
	for i := 0; i < g.rng.Intn(maxOps+1); i++ {
		switch g.rng.Intn(4) {
		case 0:
			node = Sort(node, []exec.SortKey{{Expr: col(0)}})
		case 1:
			node = Sort(node, []exec.SortKey{{Expr: col(1)}})
		case 2:
			node = Filter(node, expr.MustBinary(expr.OpGe,
				col(1), expr.NewConst(storage.NewInt(int64(g.rng.Intn(500))))))
		case 3:
			// no-op level
		}
	}
	return node
}

// TestRefinementTransparencyProperty: for many random plans, refinement
// (with random thresholds and budgets) never changes the query result, and
// its structural invariants hold.
func TestRefinementTransparencyProperty(t *testing.T) {
	cm := codemodel.NewCatalog()
	for seed := int64(0); seed < 40; seed++ {
		g := newRandPlanGen(seed)
		p, err := g.tree()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		opts := RefineOptions{
			CardinalityThreshold: float64(g.rng.Intn(200)),
			BufferSize:           1 << g.rng.Intn(12),
			UseHotFootprints:     g.rng.Intn(2) == 0,
		}
		refined, res, err := Refine(p, cm, opts)
		if err != nil {
			t.Fatalf("seed %d refine: %v\n%s", seed, err, Explain(p))
		}

		// Structural invariants.
		Walk(refined, func(n *Node) {
			if n.Kind == KindBuffer {
				child := n.Children[0]
				if child.Blocking() {
					t.Errorf("seed %d: buffer above blocking %v", seed, child.Kind)
				}
				if child.EstRows < opts.CardinalityThreshold {
					t.Errorf("seed %d: buffer above %v with est %.0f < threshold %.0f",
						seed, child.Kind, child.EstRows, opts.CardinalityThreshold)
				}
			}
		})
		for _, grp := range res.Groups {
			for _, m := range grp.Members {
				if m.Blocking {
					t.Errorf("seed %d: blocking node inside group", seed)
				}
			}
		}

		// Transparency: identical results.
		origOp, err := Compile(p, nil, EngineVolcano)
		if err != nil {
			t.Fatalf("seed %d build: %v", seed, err)
		}
		refOp, err := Compile(refined, nil, EngineVolcano)
		if err != nil {
			t.Fatalf("seed %d build refined: %v", seed, err)
		}
		ctx := &exec.Context{Catalog: g.cat}
		a, err := exec.Run(ctx, origOp)
		if err != nil {
			t.Fatalf("seed %d run: %v", seed, err)
		}
		b, err := exec.Run(&exec.Context{Catalog: g.cat}, refOp)
		if err != nil {
			t.Fatalf("seed %d run refined: %v", seed, err)
		}
		if len(a) != len(b) {
			t.Fatalf("seed %d: row counts differ (%d vs %d)", seed, len(a), len(b))
		}
		for i := range a {
			if a[i].String() != b[i].String() {
				t.Fatalf("seed %d: row %d differs: %s vs %s\noriginal:\n%s\nrefined:\n%s",
					seed, i, a[i], b[i], Explain(p), Explain(refined))
			}
		}
	}
}

// TestRefineHotEstimatorSkipsMarginalGroups: the oracle estimator must
// never buffer MORE than the conservative one (hot ≤ reported footprints).
func TestRefineHotEstimatorSkipsMarginalGroups(t *testing.T) {
	cm := codemodel.NewCatalog()
	for seed := int64(100); seed < 120; seed++ {
		g := newRandPlanGen(seed)
		p, err := g.tree()
		if err != nil {
			t.Fatal(err)
		}
		cons, _, err := Refine(p, cm, RefineOptions{CardinalityThreshold: 10})
		if err != nil {
			t.Fatal(err)
		}
		hot, _, err := Refine(p, cm, RefineOptions{CardinalityThreshold: 10, UseHotFootprints: true})
		if err != nil {
			t.Fatal(err)
		}
		if CountKind(hot, KindBuffer) > CountKind(cons, KindBuffer) {
			t.Errorf("seed %d: hot estimator buffered more (%d) than conservative (%d)",
				seed, CountKind(hot, KindBuffer), CountKind(cons, KindBuffer))
		}
	}
}

// Guard: core.HotFootprintEstimator is a true lower bound on the paper's
// estimator for any module combination in the catalog.
func TestHotEstimatorLowerBound(t *testing.T) {
	cm := codemodel.NewCatalog()
	mods := []*codemodel.Module{
		cm.MustModule("SeqScanPred"),
		cm.MustModule("Sort"),
		cm.MustModule("HashProbe"),
	}
	agg, err := cm.AggModule([]string{"sum", "avg", "count"})
	if err != nil {
		t.Fatal(err)
	}
	mods = append(mods, agg)
	for i := range mods {
		for j := i; j < len(mods); j++ {
			pair := []*codemodel.Module{mods[i], mods[j]}
			if core.HotFootprintEstimator(pair...) > codemodel.CombinedFootprint(pair...) {
				t.Errorf("hot estimate exceeds reported footprint for %s+%s",
					mods[i].Name, mods[j].Name)
			}
		}
	}
}
