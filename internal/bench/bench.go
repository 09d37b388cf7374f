// Package bench is the experiment harness: one driver per table and figure
// of the paper's evaluation (§7), each regenerating the corresponding rows
// or series on the simulated machine. The drivers are shared by the
// benchrunner CLI and the testing.B benchmarks in the repository root. The
// simulation is deterministic, so every driver's report is pinned byte for
// byte by testdata/<id>.golden (TestReproductionGolden).
package bench

import (
	"fmt"
	"strings"
	"sync"
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

	// measured holds the measurements several drivers print views of, one
	// func() (T, error) per key (see shared).
	measured sync.Map
}

// shared runs measure at most once per runner and key. The modules are
// numbered up front, so a measurement does not depend on what ran before
// it, and one run serves every driver that prints a view of it.
func shared[T any](r *Runner, key any, measure func() (T, error)) (T, error) {
	once, _ := r.measured.LoadOrStore(key, sync.OnceValues(measure))
	return once.(func() (T, error))()
}

// runKey names one query measurement.
type runKey struct {
	query   string
	opt     sql.Options
	refined bool
	engine  plan.Engine
}

// run measures a query's original plan, or its refined one, compiled for an
// engine on the runner's machine: once per runner, whichever drivers print
// it (Query 1's original plan appears in seven reports).
func (r *Runner) run(query string, opt sql.Options, refined bool, engine plan.Engine) (*Measurement, error) {
	return shared(r, runKey{query, opt, refined, engine}, func() (*Measurement, error) {
		p, err := r.Plan(query, opt)
		if err != nil {
			return nil, err
		}
		label := "original"
		if refined {
			if p, err = r.Refine(p); err != nil {
				return nil, err
			}
			label = "buffered"
		}
		return r.measure(label, p, engine, r.CPUCfg, r.CM)
	})
}

// moduleOrder numbers every module the experiments use, up front. The code
// model numbers a module at its first use and the simulated CPU hashes that
// number into caller-dependent branch outcomes, so on a lazily numbered
// model a measurement's mispredictions would depend on the plans run before
// it. This is the order the paper-order suite first used them in — the
// calibration template, its projection, Table 2's footprint pass, TPC-H Q5's
// residual filter — so every report is the one the suite printed in
// sequence, whichever experiments run and in whatever order. Once numbered
// the model no longer changes, and experiments may share it concurrently.
var moduleOrder = []string{
	"SeqScanPred", "Agg[avg count sum]", "Buffer", "Project", "SeqScan",
	"Agg[avg count max min sum]", "Sort", "IndexScan", "NestLoop",
	"HashBuild", "HashProbe", "MergeJoin", "Agg[]", "Agg[count]", "Agg[min]",
	"Agg[max]", "Agg[sum]", "Agg[avg]", "Filter",
}

// NewRunner generates the database, lays out the simulated binary and
// calibrates the threshold.
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
	for _, name := range moduleOrder {
		if aggs, ok := strings.CutPrefix(name, "Agg["); ok {
			_, err = r.CM.AggModule(strings.Fields(strings.TrimSuffix(aggs, "]")))
		} else {
			_, err = r.CM.Module(name)
		}
		if err != nil {
			return nil, err
		}
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

// Measure executes a plan on the Volcano engine on a fresh simulated CPU
// and collects counters.
func (r *Runner) Measure(label string, p *plan.Node) (*Measurement, error) {
	return r.measure(label, p, plan.EngineVolcano, r.CPUCfg, r.CM)
}

// measure executes a plan compiled for an engine against a code model on a
// fresh simulated CPU of the given configuration, letting experiments
// compare engines, machines and binary layouts on identical inputs.
func (r *Runner) measure(label string, p *plan.Node, engine plan.Engine, cfg cpusim.Config, cm *codemodel.Catalog) (*Measurement, error) {
	cpu, err := cpusim.New(cfg, cm.TextSegmentBytes())
	if err != nil {
		return nil, err
	}
	placements := exec.PlaceCatalog(cpu, r.DB)
	op, err := plan.Compile(p, cm, engine)
	if err != nil {
		return nil, err
	}
	rows, err := exec.Run(&exec.Context{Catalog: r.DB, CPU: cpu, Placements: placements}, op)
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

// MeasureWall executes a plan uninstrumented and returns real wall-clock
// time and the row count. Compiled against a code model (cm = r.CM) every
// node stays on the Volcano row operators; with cm nil the plan compiles as
// the facade compiles it, so an aggregate straight over an in-memory scan
// is the block operator (DESIGN.md §19).
func (r *Runner) MeasureWall(p *plan.Node, cm *codemodel.Catalog) (time.Duration, int, error) {
	op, err := plan.Compile(p, cm, plan.EngineVolcano)
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
