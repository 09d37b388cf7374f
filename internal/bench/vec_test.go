package bench

import (
	"strings"
	"testing"

	"bufferdb/internal/codemodel"
	"bufferdb/internal/exec"
	"bufferdb/internal/plan"
	"bufferdb/internal/sql"
	"bufferdb/internal/vec"
)

// vecRunner is a separate SF 0.01 database for the engine-equivalence
// suite (the ISSUE's acceptance scale). The explicit threshold skips the
// calibration sweep — these tests never refine plans.
var vecRunner = func() *Runner {
	r, err := NewRunner(Config{ScaleFactor: 0.01, CardinalityThreshold: 16})
	if err != nil {
		panic(err)
	}
	return r
}()

// runEngine compiles a plan uninstrumented for an engine and executes it.
// Compiled like that, an aggregate straight over a scan is the block
// operator whatever the engine.
func runEngine(t *testing.T, r *Runner, p *plan.Node, engine plan.Engine) ([]string, exec.Operator) {
	t.Helper()
	return runCompiled(t, r, p, engine, nil)
}

// runRowEngine compiles against the code model, which keeps every node on
// the engine's own row operators, and executes without a simulated CPU.
func runRowEngine(t *testing.T, r *Runner, p *plan.Node, engine plan.Engine) ([]string, exec.Operator) {
	t.Helper()
	return runCompiled(t, r, p, engine, r.CM)
}

func runCompiled(t *testing.T, r *Runner, p *plan.Node, engine plan.Engine, cm *codemodel.Catalog) ([]string, exec.Operator) {
	t.Helper()
	op, err := plan.Compile(p, cm, engine)
	if err != nil {
		t.Fatalf("Compile(%v): %v", engine, err)
	}
	rows, err := exec.Run(&exec.Context{Catalog: r.DB}, op)
	if err != nil {
		t.Fatalf("Run(%v): %v", engine, err)
	}
	out := make([]string, len(rows))
	for i, row := range rows {
		out[i] = row.String()
	}
	return out, op
}

// engineEquivalenceCases is the TPC-H workload every non-Volcano engine
// must reproduce bit-identically.
var engineEquivalenceCases = []struct {
	name  string
	query string
	opt   sql.Options
}{
	{"Query1", Query1, sql.Options{}},
	{"Query2", Query2, sql.Options{}},
	{"Query3-nestloop", Query3, sql.Options{ForceJoin: sql.JoinNestLoop}},
	{"Query3-hash", Query3, sql.Options{ForceJoin: sql.JoinHash}},
	{"Query3-merge", Query3, sql.Options{ForceJoin: sql.JoinMerge}},
	{"TPCH-Q1", TPCHQ1, sql.Options{}},
	{"TPCH-Q3", TPCHQ3, sql.Options{}},
	{"TPCH-Q6", TPCHQ6, sql.Options{}},
	{"TPCH-Q12", TPCHQ12, sql.Options{}},
}

// TestEngineSelectionMatchesVolcano asserts plan.Compile's vec and push
// engines return byte-identical result sets to the pure-Volcano compilation
// on the TPC-H workload, including mixed plans that round-trip through the
// adapters (vec or fused subtrees under Volcano sorts and joins).
func TestEngineSelectionMatchesVolcano(t *testing.T) {
	for _, engine := range []plan.Engine{plan.EngineVec, plan.EnginePush} {
		for _, c := range engineEquivalenceCases {
			t.Run(engine.String()+"/"+c.name, func(t *testing.T) {
				p, err := vecRunner.Plan(c.query, c.opt)
				if err != nil {
					t.Fatal(err)
				}
				want, _ := runEngine(t, vecRunner, p, plan.EngineVolcano)
				for _, run := range []func(*testing.T, *Runner, *plan.Node, plan.Engine) ([]string, exec.Operator){runEngine, runRowEngine} {
					got, _ := run(t, vecRunner, p, engine)
					if len(got) != len(want) {
						t.Fatalf("%s engine returned %d rows, want %d", engine, len(got), len(want))
					}
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("row %d differs:\n %s: %s\n volcano: %s", i, engine, got[i], want[i])
						}
					}
				}
			})
		}
	}
}

// operatorNames collects every operator name in a compiled tree, crossing
// the ToVolcano/FromVolcano adapter boundaries into both layers.
func operatorNames(op exec.Operator) []string {
	var names []string
	var volcano func(exec.Operator)
	var batch func(vec.Operator)
	volcano = func(o exec.Operator) {
		names = append(names, o.Name())
		if tv, ok := o.(*vec.ToVolcano); ok {
			batch(tv.Vec())
		}
		for _, c := range o.Children() {
			volcano(c)
		}
	}
	batch = func(o vec.Operator) {
		names = append(names, o.Name())
		if fv, ok := o.(*vec.FromVolcano); ok {
			volcano(fv.Volcano())
		}
		for _, c := range o.Children() {
			batch(c)
		}
	}
	volcano(op)
	return names
}

func hasOperator(names []string, prefix string) bool {
	for _, n := range names {
		if strings.HasPrefix(n, prefix) {
			return true
		}
	}
	return false
}

// TestMixedPlanUsesAdapters asserts the vec compilation of TPC-H Q1 — a
// Volcano sort over an aggregation with a batch variant — actually splices
// a batch subtree in behind a ToVolcano adapter rather than silently
// compiling pure Volcano. It compiles the row operators: uninstrumented,
// Q1's aggregation is the block operator, which has no engine.
func TestMixedPlanUsesAdapters(t *testing.T) {
	p, err := vecRunner.Plan(TPCHQ1, sql.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, op := runRowEngine(t, vecRunner, p, plan.EngineVec)
	names := operatorNames(op)
	if !hasOperator(names, "Sort(") {
		t.Errorf("vec compilation lost the Volcano sort: %q", names)
	}
	if !hasOperator(names, "ToVolcano(") || !hasOperator(names, "VecHashAggregate(") {
		t.Errorf("vec compilation has no adapted batch subtree: %q", names)
	}

	// The buffered variant of the same plan must dissolve its buffers into
	// the batch operators rather than stacking the two batching mechanisms.
	refined, err := vecRunner.Refine(p)
	if err != nil {
		t.Fatal(err)
	}
	if plan.CountKind(refined, plan.KindBuffer) == 0 {
		t.Fatal("refinement inserted no buffers — test shape changed")
	}
	_, op = runRowEngine(t, vecRunner, refined, plan.EngineVec)
	if names := operatorNames(op); hasOperator(names, "Buffer(") {
		t.Errorf("vec compilation kept a Buffer operator: %q", names)
	}
}

// TestExt3 runs the block-oriented-vs-buffering experiment end to end and
// checks its acceptance criteria: identical results across engines (the
// driver errors otherwise) and vectorized L1I misses at or below the
// buffered plan's on Query 1, both far below the original plan's.
func TestExt3(t *testing.T) {
	skipIfShort(t)
	rep, err := ExperimentExt3(testRunner)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Lines) == 0 {
		t.Fatal("ext3 produced no output")
	}

	p, err := testRunner.Plan(Query1, sql.Options{})
	if err != nil {
		t.Fatal(err)
	}
	refined, err := testRunner.Refine(p)
	if err != nil {
		t.Fatal(err)
	}
	orig, err := testRunner.Measure("original", p)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := testRunner.Measure("buffered", refined)
	if err != nil {
		t.Fatal(err)
	}
	vec, err := testRunner.MeasureEngine("vectorized", p, plan.EngineVec)
	if err != nil {
		t.Fatal(err)
	}
	if vec.Counters.L1IMisses > buf.Counters.L1IMisses {
		t.Errorf("vectorized L1I misses %d exceed buffered %d",
			vec.Counters.L1IMisses, buf.Counters.L1IMisses)
	}
	if vec.Counters.L1IMisses*10 > orig.Counters.L1IMisses {
		t.Errorf("vectorized L1I misses %d not far below original %d",
			vec.Counters.L1IMisses, orig.Counters.L1IMisses)
	}
	if buf.Counters.L1IMisses*10 > orig.Counters.L1IMisses {
		t.Errorf("buffered L1I misses %d not far below original %d",
			buf.Counters.L1IMisses, orig.Counters.L1IMisses)
	}
}
