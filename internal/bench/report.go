package bench

import (
	"fmt"
	"strings"
)

// Report is one experiment's regenerated table or figure, as printable rows.
type Report struct {
	ID    string
	Title string
	Lines []string
	// Series holds (x, originalY, bufferedY) points for figure-style
	// experiments, letting callers re-plot without parsing Lines.
	Series []SeriesPoint
}

// SeriesPoint is one x-position of a figure's curves.
type SeriesPoint struct {
	X        float64
	Original float64
	Buffered float64
}

// Printf appends a formatted line.
func (r *Report) Printf(format string, args ...any) {
	r.Lines = append(r.Lines, fmt.Sprintf(format, args...))
}

// String renders the report.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s: %s ===\n", r.ID, r.Title)
	for _, l := range r.Lines {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	return b.String()
}

// Experiment is a named, runnable paper artifact. Slow marks the sweeps and
// full-suite drivers that `benchrunner -exp all -short` skips.
type Experiment struct {
	ID    string
	Title string
	Run   func(r *Runner) (*Report, error)
	Slow  bool
}

// Experiments lists every regenerable table and figure, in paper order.
func Experiments() []Experiment {
	return []Experiment{
		{ID: "fig1", Title: "Operator execution sequence (buffer size 5)", Run: ExperimentFig1},
		{ID: "table1", Title: "Simulated system specification", Run: ExperimentTable1},
		{ID: "fig4", Title: "Query 1 execution time breakdown (unbuffered)", Run: ExperimentFig4},
		{ID: "table2", Title: "Instruction footprints by module", Run: ExperimentTable2},
		{ID: "fig9", Title: "Query 2: original vs buffered breakdown", Run: ExperimentFig9},
		{ID: "fig10", Title: "Query 1: original vs buffered breakdown", Run: ExperimentFig10},
		{ID: "fig11", Title: "Cardinality effects (calibration sweep)", Run: ExperimentFig11, Slow: true},
		{ID: "fig12", Title: "Buffer size sweep: elapsed time", Run: ExperimentFig12, Slow: true},
		{ID: "fig13", Title: "Buffer size sweep: breakdown", Run: ExperimentFig13, Slow: true},
		{ID: "fig15", Title: "Query 3 nested-loop join: plans and breakdown", Run: ExperimentFig15},
		{ID: "fig16", Title: "Query 3 hash join: plans and breakdown", Run: ExperimentFig16},
		{ID: "fig17", Title: "Query 3 merge join: plans and breakdown", Run: ExperimentFig17},
		{ID: "table3", Title: "Overall improvement per join method", Run: ExperimentTable3, Slow: true},
		{ID: "table4", Title: "CPI: original vs buffered plans", Run: ExperimentTable4, Slow: true},
		{ID: "table5", Title: "TPC-H queries: original vs refined", Run: ExperimentTable5, Slow: true},
		{ID: "ext1", Title: "Extension: instruction prefetching vs buffering", Run: ExperimentExtPrefetch},
		{ID: "ext2", Title: "Extension: code layout vs buffering", Run: ExperimentExtLayout},
		{ID: "ext3", Title: "Extension: block-oriented processing vs buffering", Run: ExperimentExt3},
		{ID: "push", Title: "Push-fused pipelines vs buffering and vectorization", Run: ExperimentPush},
		{ID: "par", Title: "Parallel partitioned scans: equivalence and speedup", Run: ExperimentPar},
		{ID: "storage", Title: "Persistent tier: in-memory vs paged scans", Run: ExperimentStorage},
		{ID: "reuse", Title: "Semantic reuse cache: cold vs warm vs result-replay ladder", Run: ExperimentReuse},
	}
}

// FindExperiment resolves an experiment by ID.
func FindExperiment(id string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}
