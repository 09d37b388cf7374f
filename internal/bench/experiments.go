package bench

import (
	"fmt"
	"strings"

	"bufferdb/internal/core"
	"bufferdb/internal/exec"
	"bufferdb/internal/expr"
	"bufferdb/internal/plan"
	"bufferdb/internal/sql"
)

// coreCalibrate runs the §7.3 calibration sweep against the runner's code
// model and machine config.
func coreCalibrate(r *Runner, cards []int) (*core.CalibrationResult, error) {
	tableRows := cards[len(cards)-1]
	if tableRows < 4096 {
		tableRows = 4096
	}
	return core.CalibrateThreshold(r.CM, r.CPUCfg, tableRows, cards, r.Cfg.BufferSize)
}

// ExperimentFig1 reproduces Figure 1: the operator execution sequence with
// and without a size-5 buffer.
func ExperimentFig1(r *Runner) (*Report, error) {
	rep := &Report{ID: "fig1", Title: "Operator execution sequence"}
	li, err := r.DB.Table("lineitem")
	if err != nil {
		return nil, err
	}
	run := func(buffered bool) (string, error) {
		scan := exec.NewSeqScan(li, nil, nil)
		scan.SetTraceLabel('C')
		var child exec.Operator = scan
		if buffered {
			buf := core.NewBuffer(scan, 5, nil)
			buf.SetTraceLabel('B')
			child = buf
		}
		// The parent must pull one child tuple per Next call so the trace
		// shows the figure's P/C pattern; a projection does exactly that.
		sch := li.Schema()
		keyIdx, err := sch.ColumnIndex("", "l_orderkey")
		if err != nil {
			return "", err
		}
		parent, err := exec.NewProject(child,
			[]expr.Expr{expr.NewColRef(keyIdx, "l_orderkey", sch[keyIdx].Type)},
			[]string{"l_orderkey"}, nil)
		if err != nil {
			return "", err
		}
		parent.SetTraceLabel('P')
		tr := exec.NewTracer(48)
		if _, err := exec.Run(&exec.Context{Catalog: r.DB, Trace: tr}, exec.NewLimit(parent, 20)); err != nil {
			return "", err
		}
		// Show only parent/child interleaving, as the paper's figure does.
		seq := strings.Map(func(c rune) rune {
			if c == 'P' || c == 'C' {
				return c
			}
			return -1
		}, tr.String())
		return seq, nil
	}
	orig, err := run(false)
	if err != nil {
		return nil, err
	}
	buf, err := run(true)
	if err != nil {
		return nil, err
	}
	rep.Printf("(a) Original: %s...", orig)
	rep.Printf("(b) Buffered: %s...", buf)
	return rep, nil
}

// ExperimentTable1 dumps the simulated machine specification.
func ExperimentTable1(r *Runner) (*Report, error) {
	rep := &Report{ID: "table1", Title: "System specification (simulated)"}
	c := r.CPUCfg
	rep.Printf("Clock                         %.1f GHz", c.ClockHz/1e9)
	rep.Printf("L1 instruction cache          %d KB, %d-B lines (trace-cache equivalent, fully associative)", c.L1I.SizeBytes/1024, c.L1I.LineBytes)
	rep.Printf("L1 data cache                 %d KB, %d-B lines, %d-way", c.L1D.SizeBytes/1024, c.L1D.LineBytes, c.L1D.Ways)
	rep.Printf("L2 unified cache              %d KB, %d-B lines, %d-way", c.L2.SizeBytes/1024, c.L2.LineBytes, c.L2.Ways)
	rep.Printf("ITLB                          %d entries, %d-KB pages", c.ITLBEntries, c.PageBytes/1024)
	rep.Printf("L1I miss latency              %d cycles", c.LatL1IMiss)
	rep.Printf("L1D miss latency              %d cycles", c.LatL1DMiss)
	rep.Printf("L2 miss latency               %d cycles", c.LatL2Miss)
	rep.Printf("Branch misprediction latency  %d cycles", c.LatMispredict)
	rep.Printf("Branch predictor              gshare, %d entries, %d-bit history", 1<<c.BPTableBits, c.BPHistoryBits)
	rep.Printf("Hardware prefetch             yes (%d sequential streams)", c.PrefetchStreams)
	return rep, nil
}

// ExperimentTable2 regenerates the per-module footprint table three ways:
// the "measured" column reproduces the paper's §7.1 methodology by running
// the calibration query set and recording the dynamic call graph through
// the CPU's fetch hook; "dynamic" is the code model's declared call set
// (they must agree); "naive static" includes never-executed error paths,
// the overestimate the paper's dynamic analysis avoids.
func ExperimentTable2(r *Runner) (*Report, error) {
	rep := &Report{ID: "table2", Title: "Instruction footprints (measured vs dynamic vs naive static)"}
	measured, err := core.MeasureFootprints(r.CM, r.CPUCfg)
	if err != nil {
		return nil, err
	}
	rows := []struct {
		label  string
		module string
		aggs   []string
	}{
		{"SeqScan (no predicates)", "SeqScan", nil},
		{"SeqScan (with predicates)", "SeqScanPred", nil},
		{"IndexScan", "IndexScan", nil},
		{"Sort", "Sort", nil},
		{"NestLoop join", "NestLoop", nil},
		{"Merge join", "MergeJoin", nil},
		{"Hash join: build", "HashBuild", nil},
		{"Hash join: probe", "HashProbe", nil},
		{"Aggregation: base", "", []string{}},
		{"Aggregation: +COUNT", "", []string{"count"}},
		{"Aggregation: +MIN", "", []string{"min"}},
		{"Aggregation: +MAX", "", []string{"max"}},
		{"Aggregation: +SUM", "", []string{"sum"}},
		{"Aggregation: +AVG", "", []string{"avg"}},
		{"Buffer", "Buffer", nil},
	}
	base, err := r.CM.AggModule(nil)
	if err != nil {
		return nil, err
	}
	rep.Printf("%-28s %10s %10s %14s", "module", "measured", "dynamic", "naive static")
	for _, row := range rows {
		var dyn, static int
		meas := "—"
		switch {
		case row.module != "":
			m, err := r.CM.Module(row.module)
			if err != nil {
				return nil, err
			}
			dyn, static = m.FootprintBytes(), m.StaticFootprintBytes()
			if got, ok := measured[m.Name]; ok {
				meas = fmt.Sprintf("%.1fKB", float64(got)/1024)
			}
		case len(row.aggs) == 0:
			dyn, static = base.FootprintBytes(), base.StaticFootprintBytes()
		default:
			m, err := r.CM.AggModule(row.aggs)
			if err != nil {
				return nil, err
			}
			// Report the aggregate function's increment over the base, as
			// the paper's Table 2 does.
			dyn = m.FootprintBytes() - base.FootprintBytes()
			static = dyn
		}
		rep.Printf("%-28s %10s %8.1fKB %12.1fKB", row.label, meas, float64(dyn)/1024, float64(static)/1024)
	}
	return rep, nil
}

// pairedRun measures a query's original plan and a variant (refined or
// explicitly buffered) and reports the paper's standard comparison block.
func (r *Runner) pairedRun(rep *Report, query string, explicitBuffer bool) error {
	orig, err := r.run(query, sql.Options{}, false, plan.EngineVolcano)
	if err != nil {
		return err
	}
	var buf *Measurement
	if explicitBuffer {
		buf, err = r.Measure("buffered", explicitScanBuffer(mustPlan(r, query), r.Cfg.BufferSize))
	} else {
		buf, err = r.run(query, sql.Options{}, true, plan.EngineVolcano)
	}
	if err != nil {
		return err
	}
	if orig.FirstRow != buf.FirstRow || orig.Rows != buf.Rows {
		return fmt.Errorf("bench: buffered plan changed the result: %q vs %q", buf.FirstRow, orig.FirstRow)
	}
	clock := r.CPUCfg.ClockHz
	rep.Lines = append(rep.Lines, fmtBreakdownRow("original plan", orig, clock))
	rep.Lines = append(rep.Lines, fmtBreakdownRow("buffered plan", buf, clock))
	rep.Printf("L1I miss reduction:    %6.1f%%  (%d → %d)", reduction(orig.Counters.L1IMisses, buf.Counters.L1IMisses), orig.Counters.L1IMisses, buf.Counters.L1IMisses)
	rep.Printf("ITLB miss reduction:   %6.1f%%  (%d → %d)", reduction(orig.Counters.ITLBMisses, buf.Counters.ITLBMisses), orig.Counters.ITLBMisses, buf.Counters.ITLBMisses)
	rep.Printf("Mispredict reduction:  %6.1f%%  (%d → %d)", reduction(orig.Counters.Mispredicts, buf.Counters.Mispredicts), orig.Counters.Mispredicts, buf.Counters.Mispredicts)
	rep.Printf("Overall improvement:   %6.1f%%", improvement(orig.ElapsedSec, buf.ElapsedSec))
	return nil
}

// explicitScanBuffer clones a plan, wrapping its (single) scan in a buffer —
// the paper's hand-placed buffer used before the refinement algorithm is
// introduced (Figures 9 and 10).
func explicitScanBuffer(p *plan.Node, size int) *plan.Node {
	cloned := clonePlan(p)
	var wrap func(n *plan.Node)
	wrap = func(n *plan.Node) {
		for i, c := range n.Children {
			if c.Kind == plan.KindSeqScan {
				n.Children[i] = plan.Buffer(c, size)
				continue
			}
			wrap(c)
		}
	}
	wrap(cloned)
	return cloned
}

func clonePlan(n *plan.Node) *plan.Node {
	cp := *n
	cp.Children = make([]*plan.Node, len(n.Children))
	for i, c := range n.Children {
		cp.Children[i] = clonePlan(c)
	}
	return &cp
}

// ExperimentFig4 regenerates the unbuffered Query 1 breakdown.
func ExperimentFig4(r *Runner) (*Report, error) {
	rep := &Report{ID: "fig4", Title: "Instruction cache thrashing impact (Query 1, original plan)"}
	m, err := r.run(Query1, sql.Options{}, false, plan.EngineVolcano)
	if err != nil {
		return nil, err
	}
	clock := r.CPUCfg.ClockHz
	b := m.Breakdown(clock)
	rep.Lines = append(rep.Lines, fmtBreakdownRow("Query 1", m, clock))
	rep.Printf("Trace-miss share of total: %.1f%%", 100*b.TraceMissSec/m.ElapsedSec)
	rep.Printf("Result: %s", m.FirstRow)
	return rep, nil
}

// ExperimentFig9 regenerates the Query 2 comparison: combined footprint
// fits the L1I, so buffering is (slightly) counterproductive.
func ExperimentFig9(r *Runner) (*Report, error) {
	rep := &Report{ID: "fig9", Title: "Query 2: original vs (hand-)buffered"}
	if err := r.pairedRun(rep, Query2, true); err != nil {
		return nil, err
	}
	refined, err := r.Refine(mustPlan(r, Query2))
	if err != nil {
		return nil, err
	}
	rep.Printf("Refinement verdict: %d buffers (footprints fit one group)", plan.CountKind(refined, plan.KindBuffer))
	return rep, nil
}

// ExperimentFig10 regenerates the headline Query 1 comparison.
func ExperimentFig10(r *Runner) (*Report, error) {
	rep := &Report{ID: "fig10", Title: "Query 1: original vs buffered"}
	if err := r.pairedRun(rep, Query1, false); err != nil {
		return nil, err
	}
	return rep, nil
}

func mustPlan(r *Runner, q string) *plan.Node {
	p, err := r.Plan(q, sql.Options{})
	if err != nil {
		panic(err)
	}
	return p
}

// ExperimentFig11 regenerates the cardinality sweep and threshold.
func ExperimentFig11(r *Runner) (*Report, error) {
	rep := &Report{ID: "fig11", Title: "Cardinality effects (Query 1 template)"}
	cards := []int{0, 4, 16, 64, 256, 1024, 4096, 16384, 65536}
	res, err := coreCalibrate(r, cards)
	if err != nil {
		return nil, err
	}
	rep.Printf("%12s %14s %14s", "cardinality", "original (s)", "buffered (s)")
	for _, p := range res.Points {
		rep.Printf("%12d %14.6f %14.6f", p.Cardinality, p.OriginalSec, p.BufferedSec)
		rep.Series = append(rep.Series, SeriesPoint{X: float64(p.Cardinality), Original: p.OriginalSec, Buffered: p.BufferedSec})
	}
	rep.Printf("Calibrated cardinality threshold: %.0f", res.Threshold)
	return rep, nil
}

// bufferSweep measures Query 1 unbuffered and then with explicit scan
// buffers of each of fig12Sizes: fig12 and fig13 print two views of it.
func bufferSweep(r *Runner) ([]*Measurement, error) {
	return shared(r, "buffer sweep", func() ([]*Measurement, error) {
		orig, err := r.run(Query1, sql.Options{}, false, plan.EngineVolcano)
		if err != nil {
			return nil, err
		}
		p := mustPlan(r, Query1)
		runs := []*Measurement{orig}
		for _, size := range fig12Sizes {
			m, err := r.Measure(fmt.Sprintf("buffer=%d", size), explicitScanBuffer(p, size))
			if err != nil {
				return nil, err
			}
			runs = append(runs, m)
		}
		return runs, nil
	})
}

var fig12Sizes = []int{1, 4, 16, 64, 128, 256, 512, 1024, 4096, 16384, 65536}

// ExperimentFig12 regenerates the buffer-size sweep elapsed-time curve.
func ExperimentFig12(r *Runner) (*Report, error) {
	rep := &Report{ID: "fig12", Title: "Varied buffer sizes (Query 1)"}
	sweep, err := bufferSweep(r)
	if err != nil {
		return nil, err
	}
	orig, runs := sweep[0], sweep[1:]
	rep.Printf("%12s %14s", "buffer size", "elapsed (s)")
	rep.Printf("%12s %14.6f", "original", orig.ElapsedSec)
	for i, m := range runs {
		rep.Printf("%12d %14.6f", fig12Sizes[i], m.ElapsedSec)
		rep.Series = append(rep.Series, SeriesPoint{X: float64(fig12Sizes[i]), Original: orig.ElapsedSec, Buffered: m.ElapsedSec})
	}
	return rep, nil
}

// ExperimentFig13 regenerates the per-size breakdown.
func ExperimentFig13(r *Runner) (*Report, error) {
	rep := &Report{ID: "fig13", Title: "Breakdown across buffer sizes (Query 1)"}
	sweep, err := bufferSweep(r)
	if err != nil {
		return nil, err
	}
	for _, m := range sweep {
		rep.Lines = append(rep.Lines, fmtBreakdownRow(m.Label, m, r.CPUCfg.ClockHz))
	}
	return rep, nil
}

// joinExperiment reports one forced-join variant of Query 3.
func joinExperiment(r *Runner, id, title string, method sql.JoinMethod) (*Report, error) {
	rep := &Report{ID: id, Title: title}
	p, err := r.Plan(Query3, sql.Options{ForceJoin: method})
	if err != nil {
		return nil, err
	}
	refined, res, err := plan.Refine(p, r.CM, plan.RefineOptions{
		CardinalityThreshold: r.Threshold,
		BufferSize:           r.Cfg.BufferSize,
	})
	if err != nil {
		return nil, err
	}
	rep.Printf("Original plan:\n%s", strings.TrimRight(plan.Explain(p), "\n"))
	rep.Printf("Refined plan:\n%s", strings.TrimRight(plan.Explain(refined), "\n"))
	rep.Printf("Execution groups:\n%s", strings.TrimRight(res.String(), "\n"))
	orig, buf, err := r.joinRuns(method)
	if err != nil {
		return nil, err
	}
	clock := r.CPUCfg.ClockHz
	rep.Lines = append(rep.Lines, fmtBreakdownRow("original plan", orig, clock))
	rep.Lines = append(rep.Lines, fmtBreakdownRow("buffered plan", buf, clock))
	rep.Printf("L1I miss reduction:   %6.1f%%", reduction(orig.Counters.L1IMisses, buf.Counters.L1IMisses))
	rep.Printf("Mispredict reduction: %6.1f%%", reduction(orig.Counters.Mispredicts, buf.Counters.Mispredicts))
	rep.Printf("ITLB miss reduction:  %6.1f%%", reduction(orig.Counters.ITLBMisses, buf.Counters.ITLBMisses))
	rep.Printf("Overall improvement:  %6.1f%%", improvement(orig.ElapsedSec, buf.ElapsedSec))
	return rep, nil
}

// ExperimentFig15 regenerates the nested-loop join comparison.
func ExperimentFig15(r *Runner) (*Report, error) {
	return joinExperiment(r, "fig15", "Query 3 with nested-loop join", sql.JoinNestLoop)
}

// ExperimentFig16 regenerates the hash join comparison.
func ExperimentFig16(r *Runner) (*Report, error) {
	return joinExperiment(r, "fig16", "Query 3 with hash join", sql.JoinHash)
}

// ExperimentFig17 regenerates the merge join comparison.
func ExperimentFig17(r *Runner) (*Report, error) {
	return joinExperiment(r, "fig17", "Query 3 with merge join", sql.JoinMerge)
}

// joinRuns measures Query 3's original and refined plans under one join
// method and checks they agree.
func (r *Runner) joinRuns(method sql.JoinMethod) (orig, buf *Measurement, err error) {
	opt := sql.Options{ForceJoin: method}
	if orig, err = r.run(Query3, opt, false, plan.EngineVolcano); err != nil {
		return nil, nil, err
	}
	if buf, err = r.run(Query3, opt, true, plan.EngineVolcano); err != nil {
		return nil, nil, err
	}
	if orig.FirstRow != buf.FirstRow {
		return nil, nil, fmt.Errorf("bench: Query 3 (%s) refined result differs", method)
	}
	return orig, buf, nil
}

// joinMethods are the rows of tables 3 and 4.
var joinMethods = []struct {
	name   string
	method sql.JoinMethod
}{
	{"NestLoop", sql.JoinNestLoop},
	{"Hash Join", sql.JoinHash},
	{"Merge Join", sql.JoinMerge},
}

// ExperimentTable3 regenerates the overall improvement table.
func ExperimentTable3(r *Runner) (*Report, error) {
	rep := &Report{ID: "table3", Title: "Overall improvement"}
	rep.Printf("%-12s %14s %14s %12s", "join method", "original (s)", "buffered (s)", "improvement")
	for _, jm := range joinMethods {
		orig, buf, err := r.joinRuns(jm.method)
		if err != nil {
			return nil, err
		}
		rep.Printf("%-12s %14.4f %14.4f %11.1f%%", jm.name, orig.ElapsedSec, buf.ElapsedSec,
			improvement(orig.ElapsedSec, buf.ElapsedSec))
	}
	return rep, nil
}

// ExperimentTable4 regenerates the CPI comparison, also checking the
// paper's claim that instruction counts barely change (buffer operators are
// light-weight).
func ExperimentTable4(r *Runner) (*Report, error) {
	rep := &Report{ID: "table4", Title: "CPI improvement"}
	rep.Printf("%-12s %10s %10s %18s", "join method", "orig CPI", "buf CPI", "instruction delta")
	for _, jm := range joinMethods {
		orig, buf, err := r.joinRuns(jm.method)
		if err != nil {
			return nil, err
		}
		delta := 100 * (float64(buf.Counters.Uops) - float64(orig.Counters.Uops)) / float64(orig.Counters.Uops)
		rep.Printf("%-12s %10.3f %10.3f %17.2f%%", jm.name, orig.CPI, buf.CPI, delta)
	}
	return rep, nil
}

// ExperimentTable5 regenerates the TPC-H query table.
func ExperimentTable5(r *Runner) (*Report, error) {
	rep := &Report{ID: "table5", Title: "TPC-H queries: original vs refined"}
	queries := []struct{ name, query string }{
		{"Q1", TPCHQ1}, {"Q3", TPCHQ3}, {"Q5", TPCHQ5}, {"Q6", TPCHQ6},
		{"Q10", TPCHQ10}, {"Q12", TPCHQ12}, {"Q14", TPCHQ14},
	}
	rep.Printf("%-6s %14s %14s %12s %9s", "query", "original (s)", "refined (s)", "improvement", "buffers")
	for _, q := range queries {
		p := mustPlan(r, q.query)
		refined, err := r.Refine(p)
		if err != nil {
			return nil, err
		}
		orig, err := r.run(q.query, sql.Options{}, false, plan.EngineVolcano)
		if err != nil {
			return nil, err
		}
		buf, err := r.run(q.query, sql.Options{}, true, plan.EngineVolcano)
		if err != nil {
			return nil, err
		}
		if orig.FirstRow != buf.FirstRow || orig.Rows != buf.Rows {
			return nil, fmt.Errorf("bench: %s refined result differs", q.name)
		}
		if err := r.verifyAgainstReference(p, orig); err != nil {
			return nil, fmt.Errorf("bench: %s: %w", q.name, err)
		}
		rep.Printf("%-6s %14.4f %14.4f %11.1f%% %9d", q.name, orig.ElapsedSec, buf.ElapsedSec,
			improvement(orig.ElapsedSec, buf.ElapsedSec), plan.CountKind(refined, plan.KindBuffer))
	}
	return rep, nil
}

// verifyAgainstReference cross-checks a measurement's result row against an
// uninstrumented run, guarding the harness itself.
func (r *Runner) verifyAgainstReference(p *plan.Node, m *Measurement) error {
	op, err := plan.Build(p, nil)
	if err != nil {
		return err
	}
	rows, err := exec.Run(&exec.Context{Catalog: r.DB}, op)
	if err != nil {
		return err
	}
	if len(rows) != m.Rows {
		return fmt.Errorf("bench: instrumented run returned %d rows, reference %d", m.Rows, len(rows))
	}
	if len(rows) > 0 && rows[0].String() != m.FirstRow {
		return fmt.Errorf("bench: instrumented first row %q, reference %q", m.FirstRow, rows[0].String())
	}
	return nil
}
