package bench

import (
	"fmt"
	"strings"
	"testing"

	"bufferdb/internal/codemodel"
	"bufferdb/internal/exec"
	"bufferdb/internal/plan"
	"bufferdb/internal/sql"
	"bufferdb/internal/vec"
)

// vecRunner is a separate SF 0.01 database for the engine-equivalence
// suite. The explicit threshold skips the calibration sweep; the plans these
// tests refine only need some buffers, not the calibrated ones.
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

// scanProject is a streaming scan-filter-project pipeline with no blocking
// operator: the whole query is one partitionable chain under the gather.
const scanProject = `
SELECT l_orderkey,
       l_extendedprice * (1 - l_discount) * (1 + l_tax) AS charge
FROM lineitem
WHERE l_shipdate <= DATE '1998-09-02'`

// engineEquivalenceCases is the TPC-H workload every non-Volcano engine
// must reproduce bit-identically.
var engineEquivalenceCases = []struct {
	name  string
	query string
	opt   sql.Options
}{
	{"ScanProject", scanProject, sql.Options{}},
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
	t.Parallel()
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

// section returns the lines of one case of a multi-case report, between
// its "--- label ---" header and the next one.
func section(t *testing.T, rep *Report, label string) []string {
	t.Helper()
	for i, l := range rep.Lines {
		if l != "--- "+label+" ---" {
			continue
		}
		end := i + 1
		for end < len(rep.Lines) && !strings.HasPrefix(rep.Lines[end], "--- ") {
			end++
		}
		return rep.Lines[i+1 : end]
	}
	t.Fatalf("%s has no case %q", rep.ID, label)
	return nil
}

// counters reads one variant's counter line of an ext3 case: L1I misses,
// mispredicts, uops and cycles.
func counters(t *testing.T, lines []string, label string) []float64 {
	t.Helper()
	return values(t, lines, fmt.Sprintf("%-12s L1I misses=", label))
}

// TestExt3 checks the shape of the ext3 showdown (the driver itself errors
// if any engine changes the result): vectorized L1I misses at or below the
// buffered plan's on Query 1 and both far below the original plan's. The
// push-fused rows of the same report are checked by TestExperimentPush.
func TestExt3(t *testing.T) {
	rep := report(t, "ext3")
	lines := section(t, rep, "Query 1")
	orig := counters(t, lines, "original")[0]
	buf := counters(t, lines, "buffered")[0]
	vec := counters(t, lines, "vectorized")[0]
	if vec > buf {
		t.Errorf("vectorized L1I misses %v exceed buffered %v", vec, buf)
	}
	if vec*10 > orig {
		t.Errorf("vectorized L1I misses %v not far below original %v", vec, orig)
	}
	if buf*10 > orig {
		t.Errorf("buffered L1I misses %v not far below original %v", buf, orig)
	}
}
