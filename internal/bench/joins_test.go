package bench

import (
	"strings"
	"testing"

	"bufferdb/internal/plan"
	"bufferdb/internal/sql"
)

func TestJoinExperimentsShapes(t *testing.T) {
	for _, id := range []string{"fig15", "fig16", "fig17"} {
		rep := report(t, id)
		out := rep.String()
		if !strings.Contains(out, "Overall improvement") || !strings.Contains(out, "Execution groups") {
			t.Errorf("%s report incomplete:\n%s", id, out)
		}
		// Every join variant improves on the simulated machine.
		if impr := values(t, rep.Lines, "Overall improvement:")[0]; impr <= 0 {
			t.Errorf("%s: refined plan slower (improvement %.1f%%)", id, impr)
		}
		if red := values(t, rep.Lines, "L1I miss reduction:")[0]; red < 50 {
			t.Errorf("%s: L1I reduction %.1f%%, want ≥ 50%% (paper: 53–79%%)", id, red)
		}
	}
}

func TestFig15NestLoopInnerNotBuffered(t *testing.T) {
	p, err := testRunner.Plan(Query3, sql.Options{ForceJoin: sql.JoinNestLoop})
	if err != nil {
		t.Fatal(err)
	}
	refined, err := testRunner.Refine(p)
	if err != nil {
		t.Fatal(err)
	}
	// Exactly one buffer, and never above the index lookup (paper:
	// foreign-key inner never benefits).
	if n := plan.CountKind(refined, plan.KindBuffer); n != 1 {
		t.Errorf("nestloop buffers = %d, want 1:\n%s", n, plan.Explain(refined))
	}
	plan.Walk(refined, func(n *plan.Node) {
		if n.Kind == plan.KindBuffer && n.Children[0].Kind == plan.KindIndexLookup {
			t.Error("buffer above the nest-loop inner index lookup")
		}
	})
}

func TestFig17NoBufferAboveSort(t *testing.T) {
	p, err := testRunner.Plan(Query3, sql.Options{ForceJoin: sql.JoinMerge})
	if err != nil {
		t.Fatal(err)
	}
	refined, err := testRunner.Refine(p)
	if err != nil {
		t.Fatal(err)
	}
	plan.Walk(refined, func(n *plan.Node) {
		if n.Kind == plan.KindBuffer && n.Children[0].Kind == plan.KindSort {
			t.Error("buffer above the blocking sort")
		}
	})
	// The ordered index scan is buffered (unlike the nest-loop plan).
	found := false
	plan.Walk(refined, func(n *plan.Node) {
		if n.Kind == plan.KindBuffer && n.Children[0].Kind == plan.KindIndexFullScan {
			found = true
		}
	})
	if !found {
		t.Errorf("no buffer above IndexFullScan:\n%s", plan.Explain(refined))
	}
}

func TestTable3AllPositive(t *testing.T) {
	lines := report(t, "table3").Lines
	for _, jm := range joinMethods {
		// original (s), buffered (s), improvement
		if impr := values(t, lines, jm.name)[2]; impr < 3 || impr > 40 {
			t.Errorf("%s improvement = %.1f%%, want a Table-3-like gain (paper: 12–15%%)", jm.name, impr)
		}
	}
}

func TestTable4CPIAndInstructionCounts(t *testing.T) {
	lines := report(t, "table4").Lines
	for _, jm := range joinMethods {
		row := values(t, lines, jm.name) // orig CPI, buf CPI, instruction delta %
		if row[1] >= row[0] {
			t.Errorf("%s: buffered CPI %.3f not below original %.3f", jm.name, row[1], row[0])
		}
		// Buffer operators are light-weight: instruction counts within a
		// few percent (paper: < 1%; our buffers also charge setup work).
		if delta := row[2]; delta < -1 || delta > 6 {
			t.Errorf("%s: instruction count delta %.2f%%, want small", jm.name, delta)
		}
	}
}

func TestTable5RunsAndQ1Improves(t *testing.T) {
	rep := report(t, "table5")
	out := rep.String()
	for _, q := range []string{"Q1", "Q3", "Q6", "Q14"} {
		if !strings.Contains(out, q) {
			t.Errorf("table5 missing %s:\n%s", q, out)
		}
	}
	// TPC-H Q1 (unselective, big footprint) is the paper's clearest win.
	// The driver itself checks each original run against an uninstrumented
	// reference execution.
	if impr := values(t, rep.Lines, "Q1 ")[2]; impr < 5 {
		t.Errorf("TPC-H Q1 improvement = %.1f%%, want ≥ 5%%", impr)
	}
}

func TestTable2Report(t *testing.T) {
	out := report(t, "table2").String()
	for _, want := range []string{"SeqScan (with predicates)", "13.0KB", "Hash join: probe", "Buffer"} {
		if !strings.Contains(out, want) {
			t.Errorf("table2 missing %q:\n%s", want, out)
		}
	}
}

func TestTable1Report(t *testing.T) {
	if rep := report(t, "table1"); !strings.Contains(rep.String(), "2.4 GHz") {
		t.Errorf("table1:\n%s", rep)
	}
}

func TestFig13Report(t *testing.T) {
	if rep := report(t, "fig13"); len(rep.Lines) != len(fig12Sizes)+1 {
		t.Errorf("fig13 rows = %d, want %d", len(rep.Lines), len(fig12Sizes)+1)
	}
}
