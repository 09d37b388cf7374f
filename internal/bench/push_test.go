package bench

import (
	"strings"
	"testing"

	"bufferdb/internal/exec"
	"bufferdb/internal/exec/exectest"
	"bufferdb/internal/plan"
	"bufferdb/internal/sql"
)

// pushOperatorNames collects every operator name reachable through
// Children(). A push.Pipeline exposes its Volcano fallback islands there,
// so the walk crosses the fused/host boundary.
func pushOperatorNames(op exec.Operator) []string {
	var names []string
	var walk func(exec.Operator)
	walk = func(o exec.Operator) {
		names = append(names, o.Name())
		for _, c := range o.Children() {
			walk(c)
		}
	}
	walk(op)
	return names
}

// TestPushParallelEquivalence asserts that every engine, on the
// conventional and on the refined plan, returns exactly the Volcano rows of
// the conventional plan: buffers placed by refinement never change a result
// set, whichever engine compiles them. It runs on testRunner's SF 0.005
// database.
func TestPushParallelEquivalence(t *testing.T) {
	t.Parallel()
	for _, c := range engineEquivalenceCases {
		t.Run(c.name, func(t *testing.T) {
			p, err := testRunner.Plan(c.query, c.opt)
			if err != nil {
				t.Fatal(err)
			}
			refined, err := testRunner.Refine(p)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := runEngine(t, testRunner, p, plan.EngineVolcano)
			for _, engine := range plan.Engines() {
				for _, variant := range []struct {
					name string
					plan *plan.Node
				}{{"conventional", p}, {"refined", refined}} {
					got, _ := runEngine(t, testRunner, variant.plan, engine)
					if len(got) != len(want) {
						t.Fatalf("%s %s: %d rows, want %d", engine, variant.name, len(got), len(want))
					}
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("%s %s row %d differs:\n got:     %s\n volcano: %s",
								engine, variant.name, i, got[i], want[i])
						}
					}
				}
			}
		})
	}
}

// TestPushPipelineConformance drives a fused Pipeline through the Volcano
// operator contract checks (double Open resets, Next after Close errors,
// early Close is clean) that every exec operator must satisfy.
func TestPushPipelineConformance(t *testing.T) {
	for _, c := range []struct {
		name  string
		query string
		opt   sql.Options
	}{
		{"scan-filter-agg", Query1, sql.Options{}},
		{"hash-join", Query3, sql.Options{ForceJoin: sql.JoinHash}},
	} {
		t.Run(c.name, func(t *testing.T) {
			p, err := vecRunner.Plan(c.query, c.opt)
			if err != nil {
				t.Fatal(err)
			}
			exectest.Conformance(t, "push/"+c.name, func() exec.Operator {
				op, err := plan.Compile(p, nil, plan.EnginePush)
				if err != nil {
					t.Fatalf("Compile: %v", err)
				}
				return op
			})
		})
	}
}

// TestPushMixedPlanFallback pins the compiler's split: nodes without a
// fused variant run as Volcano islands while their capable subtrees still
// fuse, and the refinement pass's buffers dissolve into the fused loop.
func TestPushMixedPlanFallback(t *testing.T) {
	// TPCH Q3 carries a Volcano sort mid-plan (no fused variant); the
	// capable operators around it still fuse, so the compiled tree holds
	// both a Sort island and at least one pipeline.
	p, err := vecRunner.Plan(TPCHQ3, sql.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, op := runEngine(t, vecRunner, p, plan.EnginePush)
	names := pushOperatorNames(op)
	if !hasOperator(names, "Sort(") {
		t.Errorf("push compilation lost the Volcano sort: %q", names)
	}
	if !hasOperator(names, "Push") {
		t.Errorf("push compilation produced no fused pipeline: %q", names)
	}

	// A merge join has no fused variant: the join is a Volcano island fed
	// by adapter sources, while the fused pipeline sits at the root only if
	// something above it is capable.
	p, err = vecRunner.Plan(Query3, sql.Options{ForceJoin: sql.JoinMerge})
	if err != nil {
		t.Fatal(err)
	}
	_, op = runEngine(t, vecRunner, p, plan.EnginePush)
	names = pushOperatorNames(op)
	if !hasOperator(names, "MergeJoin(") {
		t.Errorf("merge-join plan lost its Volcano join: %q", names)
	}

	// Refined (buffered) plans dissolve their buffers into the fused loop
	// instead of stacking both batching mechanisms.
	p, err = vecRunner.Plan(Query1, sql.Options{})
	if err != nil {
		t.Fatal(err)
	}
	refined, err := vecRunner.Refine(p)
	if err != nil {
		t.Fatal(err)
	}
	if plan.CountKind(refined, plan.KindBuffer) == 0 {
		t.Fatal("refinement inserted no buffers — test shape changed")
	}
	_, op = runEngine(t, vecRunner, refined, plan.EnginePush)
	if names := pushOperatorNames(op); hasOperator(names, "Buffer(") {
		t.Errorf("push compilation kept a Buffer operator: %q", names)
	}
}

// TestPushAnalyzeReportsFusedElements asserts EXPLAIN ANALYZE descends into
// a fused pipeline: the report tree shows the per-element operators tagged
// with the push engine, with rows attributed per element.
func TestPushAnalyzeReportsFusedElements(t *testing.T) {
	p, err := vecRunner.Plan(Query1, sql.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cp, err := plan.CompileAnalyzed(p, nil, plan.EnginePush)
	if err != nil {
		t.Fatal(err)
	}
	ctx := &exec.Context{Catalog: vecRunner.DB, Stats: exec.NewStatsCollector()}
	if _, err := exec.Run(ctx, cp.Root); err != nil {
		t.Fatal(err)
	}
	rep := plan.BuildReport(cp, ctx.Stats)
	var sawScan, sawAgg bool
	rep.Walk(func(r *plan.OpReport) {
		if r.Engine != "push" {
			return
		}
		if strings.HasPrefix(r.Name, "SeqScan(") && r.Stats.Rows > 0 {
			sawScan = true
		}
		if strings.HasPrefix(r.Name, "Aggregate(") && r.Stats.Rows > 0 {
			sawAgg = true
		}
	})
	if !sawScan || !sawAgg {
		t.Errorf("report missing fused elements (scan=%v agg=%v):\n%s",
			sawScan, sawAgg, plan.FormatReport(rep, false))
	}
}

// TestExperimentPush checks the push-fused rows of the ext3 showdown (the
// driver itself errors if any engine changes the result): the push-fused
// loop stays below the original plan wherever the push compiler fuses a
// footprint that overflows the cache.
func TestExperimentPush(t *testing.T) {
	rep := report(t, "ext3")
	for _, c := range []string{"Query 1", "Query 3 (hash)"} {
		lines := section(t, rep, c)
		if psh, orig := counters(t, lines, "push-fused")[0], counters(t, lines, "original")[0]; psh >= orig {
			t.Errorf("%s: push-fused L1I misses %v not below original %v", c, psh, orig)
		}
	}
}
