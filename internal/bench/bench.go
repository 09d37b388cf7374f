// Package bench is the experiment harness: one driver per table and figure
// of the paper's evaluation (§7), each regenerating the corresponding rows
// or series on the simulated machine. The drivers are shared by the
// benchrunner CLI and the testing.B benchmarks in the repository root.
package bench

import (
	"fmt"
	"time"

	"bufferdb/internal/codemodel"
	"bufferdb/internal/cpusim"
	"bufferdb/internal/exec"
	"bufferdb/internal/plan"
	"bufferdb/internal/sql"
	"bufferdb/internal/storage"
	"bufferdb/internal/tpch"
)

// Config sizes the benchmark database and the buffering parameters.
type Config struct {
	// ScaleFactor is the TPC-H scale (paper: 0.2; default here 0.02 so the
	// full suite runs in minutes on a laptop — simulated results scale
	// linearly with SF, which EXPERIMENTS.md verifies).
	ScaleFactor float64
	// Seed fixes data generation.
	Seed uint64
	// BufferSize is the buffer operator capacity (0 = default 1024).
	BufferSize int
	// CardinalityThreshold for plan refinement; 0 runs the calibration
	// experiment to derive it, mirroring the paper's §6 methodology.
	CardinalityThreshold float64
	// Short clamps the scale factor down for CI-grade runs; experiment
	// drivers marked Slow are also skipped by `benchrunner -exp all -short`.
	Short bool
}

// shortScaleFactor is the SF ceiling a Short config clamps to.
const shortScaleFactor = 0.005

// DefaultConfig returns the laptop-scale configuration.
func DefaultConfig() Config {
	return Config{ScaleFactor: 0.02}
}

// Runner owns the database, code model and machine configuration shared by
// all experiments.
type Runner struct {
	Cfg    Config
	DB     *storage.Catalog
	CM     *codemodel.Catalog
	CPUCfg cpusim.Config

	// Threshold is the refinement cardinality threshold in effect.
	Threshold float64
}

// NewRunner generates the database and calibrates the threshold.
func NewRunner(cfg Config) (*Runner, error) {
	if cfg.ScaleFactor == 0 {
		cfg.ScaleFactor = 0.02
	}
	if cfg.Short && cfg.ScaleFactor > shortScaleFactor {
		cfg.ScaleFactor = shortScaleFactor
	}
	db, err := tpch.Generate(tpch.Config{ScaleFactor: cfg.ScaleFactor, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	r := &Runner{
		Cfg:    cfg,
		DB:     db,
		CM:     codemodel.NewCatalog(),
		CPUCfg: cpusim.DefaultConfig(),
	}
	r.Threshold = cfg.CardinalityThreshold
	if r.Threshold == 0 {
		// Quick calibration sweep (the full curve is experiment fig11).
		res, err := coreCalibrate(r, []int{0, 16, 64, 256, 1024, 4096})
		if err != nil {
			return nil, err
		}
		r.Threshold = res.Threshold
	}
	return r, nil
}

// Measurement is one instrumented plan execution.
type Measurement struct {
	Label      string
	Rows       int
	FirstRow   string
	ElapsedSec float64
	CPI        float64
	Counters   cpusim.Counters
	Cycles     cpusim.Cycles
}

// Measure executes a plan on a fresh simulated CPU and collects counters.
func (r *Runner) Measure(label string, p *plan.Node) (*Measurement, error) {
	return r.MeasureEngine(label, p, plan.EngineVolcano)
}

// MeasureEngine is Measure with an explicit execution engine, letting
// experiments compare the Volcano (buffered or not) and block-oriented
// compilations of the same plan on identical simulated machines.
func (r *Runner) MeasureEngine(label string, p *plan.Node, engine plan.Engine) (*Measurement, error) {
	cpu, err := cpusim.New(r.CPUCfg, r.CM.TextSegmentBytes())
	if err != nil {
		return nil, err
	}
	placements := exec.PlaceCatalog(cpu, r.DB)
	op, err := plan.Compile(p, r.CM, engine)
	if err != nil {
		return nil, err
	}
	ctx := &exec.Context{Catalog: r.DB, CPU: cpu, Placements: placements}
	rows, err := exec.Run(ctx, op)
	if err != nil {
		return nil, err
	}
	m := &Measurement{
		Label:      label,
		Rows:       len(rows),
		ElapsedSec: cpu.ElapsedSeconds(),
		CPI:        cpu.CPI(),
		Counters:   cpu.Counters(),
		Cycles:     cpu.CycleBreakdown(),
	}
	if len(rows) > 0 {
		m.FirstRow = rows[0].String()
	}
	return m, nil
}

// Analyze executes a plan instrumented with the per-operator stats
// collector on a fresh simulated CPU and returns the rendered
// EXPLAIN ANALYZE table (with cycle and i-cache attribution).
func (r *Runner) Analyze(p *plan.Node, engine plan.Engine) (string, error) {
	cpu, err := cpusim.New(r.CPUCfg, r.CM.TextSegmentBytes())
	if err != nil {
		return "", err
	}
	cp, err := plan.CompileAnalyzed(p, r.CM, engine)
	if err != nil {
		return "", err
	}
	ctx := &exec.Context{
		Catalog:    r.DB,
		CPU:        cpu,
		Placements: exec.PlaceCatalog(cpu, r.DB),
		Stats:      exec.NewStatsCollector(),
	}
	if _, err := exec.Run(ctx, cp.Root); err != nil {
		return "", err
	}
	return plan.FormatReport(plan.BuildReport(cp, ctx.Stats), true), nil
}

// MeasureWall executes a plan uninstrumented and returns real wall-clock
// time — the "batching still pays in Go" secondary metric.
func (r *Runner) MeasureWall(p *plan.Node) (time.Duration, int, error) {
	return r.MeasureWallEngine(p, plan.EngineVolcano)
}

// MeasureWallEngine is MeasureWall with an explicit execution engine. The
// plan is compiled against the code model, which keeps every node on the
// engine's own row operators — what the native head-to-heads compare — and
// run with no CPU attached, so nothing is simulated.
func (r *Runner) MeasureWallEngine(p *plan.Node, engine plan.Engine) (time.Duration, int, error) {
	return r.measureWall(p, r.CM, engine)
}

// MeasureWallBlock executes a plan as the facade compiles it, without a
// code model: an aggregate straight over an in-memory scan is then the
// block operator (DESIGN.md §19), whatever the engine.
func (r *Runner) MeasureWallBlock(p *plan.Node) (time.Duration, int, error) {
	return r.measureWall(p, nil, plan.EngineVolcano)
}

func (r *Runner) measureWall(p *plan.Node, cm *codemodel.Catalog, engine plan.Engine) (time.Duration, int, error) {
	op, err := plan.Compile(p, cm, engine)
	if err != nil {
		return 0, 0, err
	}
	start := time.Now()
	rows, err := exec.Run(&exec.Context{Catalog: r.DB}, op)
	if err != nil {
		return 0, 0, err
	}
	return time.Since(start), len(rows), nil
}

// Plan parses and plans a query.
func (r *Runner) Plan(query string, opt sql.Options) (*plan.Node, error) {
	return sql.PlanQuery(query, r.DB, opt)
}

// Refine applies the paper's refinement pass with the runner's parameters.
func (r *Runner) Refine(p *plan.Node) (*plan.Node, error) {
	refined, _, err := plan.Refine(p, r.CM, plan.RefineOptions{
		CardinalityThreshold: r.Threshold,
		BufferSize:           r.Cfg.BufferSize,
	})
	return refined, err
}

// PenaltyBreakdown maps the cycle account onto the paper's four stacked-bar
// categories (Figures 4, 9, 10, 13, 15–17).
type PenaltyBreakdown struct {
	TraceMissSec  float64 // L1I ("trace cache") miss penalty
	L2MissSec     float64 // L2 miss penalty (mostly data)
	MispredictSec float64 // branch misprediction penalty
	OtherSec      float64 // base execution + L1D + ITLB
}

// Breakdown converts a measurement to penalty seconds.
func (m *Measurement) Breakdown(clockHz float64) PenaltyBreakdown {
	return PenaltyBreakdown{
		TraceMissSec:  m.Cycles.L1IMiss / clockHz,
		L2MissSec:     m.Cycles.L2Miss / clockHz,
		MispredictSec: m.Cycles.Mispredict / clockHz,
		OtherSec:      (m.Cycles.Base + m.Cycles.L1DMiss + m.Cycles.ITLBMiss) / clockHz,
	}
}

// reduction formats the relative reduction from a to b as a percentage.
func reduction(a, b uint64) float64 {
	if a == 0 {
		return 0
	}
	return (1 - float64(b)/float64(a)) * 100
}

// improvement formats the relative speedup from orig to new elapsed times.
func improvement(orig, buffered float64) float64 {
	if orig == 0 {
		return 0
	}
	return (1 - buffered/orig) * 100
}

// fmtBreakdownRow renders one breakdown line.
func fmtBreakdownRow(label string, m *Measurement, clockHz float64) string {
	b := m.Breakdown(clockHz)
	return fmt.Sprintf("%-22s total=%8.4fs  trace=%8.4fs  l2=%8.4fs  branch=%8.4fs  other=%8.4fs",
		label, m.ElapsedSec, b.TraceMissSec, b.L2MissSec, b.MispredictSec, b.OtherSec)
}
