package bench

import (
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"bufferdb/internal/sql"
)

var updateGolden = flag.Bool("update", false, "rewrite the reproduction's golden reports with current output")

// testRunner is shared: building the database and calibrating once keeps
// the suite fast. Tests only read from it. Its SF and calibrated threshold
// are the ones the golden reports are recorded at.
var testRunner = func() *Runner {
	r, err := NewRunner(Config{ScaleFactor: 0.005})
	if err != nil {
		panic(err)
	}
	return r
}()

// reports runs each registered driver at most once per test binary: the
// golden comparison and every shape test read the same Report.
var reports = func() map[string]func() (*Report, error) {
	m := make(map[string]func() (*Report, error))
	for _, e := range Experiments() {
		m[e.ID] = sync.OnceValues(func() (*Report, error) { return e.Run(testRunner) })
	}
	return m
}()

// report returns the driver's report on testRunner, skipping the Slow set
// under -short, as `benchrunner -exp all -short` does: the simulator is ~15× slower under -race, and the
// race-detector run relies on -short to stay inside the package timeout.
func report(t *testing.T, id string) *Report {
	t.Helper()
	e, ok := FindExperiment(id)
	if !ok {
		t.Fatalf("unknown experiment %s", id)
	}
	if e.Slow && testing.Short() {
		t.Skip("simulator-heavy experiment; skipped with -short")
	}
	rep, err := reports[id]()
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	return rep
}

// TestReproductionGolden runs every registered driver once and compares
// its report byte for byte with testdata/<id>.golden. The simulated machine
// is deterministic, so any difference is a change to the reproduction
// itself; a change that means to move it rewrites the files with -update
// and says so. The drivers share testRunner in parallel — its code model
// numbers every module up front — and the test runs first, so the shape
// tests below read cached reports.
func TestReproductionGolden(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !*updateGolden && len(files) != len(Experiments()) {
		t.Errorf("%d golden files for %d experiments", len(files), len(Experiments()))
	}
	t.Cleanup(func() {
		// A module numbered at first use would make a report depend on
		// which drivers ran before it.
		if n := len(testRunner.CM.Modules()); n != len(moduleOrder) {
			t.Errorf("the drivers use %d modules, moduleOrder numbers %d", n, len(moduleOrder))
		}
	})
	for _, e := range Experiments() {
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			got := report(t, e.ID).String()
			path := filepath.Join("testdata", e.ID+".golden")
			if *updateGolden {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update to create): %v", err)
			}
			if got == string(want) {
				return
			}
			g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
			i := 0
			for i < len(g) && i < len(w) && g[i] == w[i] {
				i++
			}
			t.Errorf("%s differs from %s at line %d (run with -update to refresh):\n got: %s\nwant: %s",
				e.ID, path, i+1, lineAt(g, i), lineAt(w, i))
		})
	}
}

func lineAt(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return "(end of report)"
}

var number = regexp.MustCompile(`[-+]?\d+(\.\d+)?`)

// values returns the numbers printed after prefix on the first line that
// starts with it: shape tests assert on exactly what the reproduction
// prints.
func values(t *testing.T, lines []string, prefix string) []float64 {
	t.Helper()
	for _, l := range lines {
		rest, ok := strings.CutPrefix(l, prefix)
		if !ok {
			continue
		}
		var out []float64
		for _, s := range number.FindAllString(rest, -1) {
			v, err := strconv.ParseFloat(s, 64)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, v)
		}
		return out
	}
	t.Fatalf("no line starts with %q:\n%s", prefix, strings.Join(lines, "\n"))
	return nil
}

func TestRunnerDefaults(t *testing.T) {
	if testRunner.Threshold <= 0 {
		t.Errorf("calibrated threshold = %v", testRunner.Threshold)
	}
	r, err := NewRunner(Config{ScaleFactor: 0.001, CardinalityThreshold: 123})
	if err != nil {
		t.Fatal(err)
	}
	if r.Threshold != 123 {
		t.Errorf("explicit threshold ignored: %v", r.Threshold)
	}
}

func TestMeasureDeterminism(t *testing.T) {
	t.Parallel()
	p, err := testRunner.Plan(Query2, sql.Options{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := testRunner.Measure("a", p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := testRunner.Measure("b", p)
	if err != nil {
		t.Fatal(err)
	}
	if a.ElapsedSec != b.ElapsedSec || a.Counters != b.Counters {
		t.Error("identical runs measured differently (simulation must be deterministic)")
	}
	if a.Rows != 1 || a.FirstRow == "" {
		t.Errorf("measurement lost the result: %+v", a)
	}
}

func TestExperimentRegistry(t *testing.T) {
	exps := Experiments()
	if len(exps) != 18 {
		t.Errorf("registry lists %d experiments", len(exps))
	}
	ids := map[string]bool{}
	for _, e := range exps {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Errorf("incomplete experiment %+v", e)
		}
		if ids[e.ID] {
			t.Errorf("duplicate experiment id %s", e.ID)
		}
		ids[e.ID] = true
	}
	if _, ok := FindExperiment("fig10"); !ok {
		t.Error("FindExperiment(fig10) failed")
	}
	if _, ok := FindExperiment("nope"); ok {
		t.Error("FindExperiment(nope) succeeded")
	}
}

func TestFig1Sequence(t *testing.T) {
	out := report(t, "fig1").String()
	if !strings.Contains(out, "PCPCPC") {
		t.Errorf("original sequence missing alternation:\n%s", out)
	}
	if !strings.Contains(out, "CCCCC") {
		t.Errorf("buffered sequence missing child batch:\n%s", out)
	}
}

func TestFig4TraceShareSubstantial(t *testing.T) {
	// The paper's point: the i-cache penalty is a fair share of Query 1.
	share := values(t, report(t, "fig4").Lines, "Trace-miss share of total:")[0] / 100
	if share < 0.10 || share > 0.45 {
		t.Errorf("trace share = %.2f, want a 'fair proportion' (paper ≈ 0.2)", share)
	}
}

func TestFig10HeadlineResult(t *testing.T) {
	lines := report(t, "fig10").Lines
	if red := values(t, lines, "L1I miss reduction:")[0]; red < 60 {
		t.Errorf("L1I miss reduction = %.1f%%, want ≥ 60%% (paper: ~80%%)", red)
	}
	if red := values(t, lines, "Mispredict reduction:")[0]; red <= 0 {
		t.Errorf("misprediction reduction = %.1f%%, want > 0", red)
	}
	if red := values(t, lines, "ITLB miss reduction:")[0]; red < 50 {
		t.Errorf("ITLB reduction = %.1f%%, want ≥ 50%% (paper: ~86%%)", red)
	}
	if impr := values(t, lines, "Overall improvement:")[0]; impr < 5 || impr > 45 {
		t.Errorf("overall improvement = %.1f%%, want a Fig.10-like gain (paper: ~12%%)", impr)
	}
}

func TestFig9NoBenefitWhenFitting(t *testing.T) {
	lines := report(t, "fig9").Lines
	// "slightly worse": a small negative effect, never a large one either way.
	if impr := values(t, lines, "Overall improvement:")[0]; impr > 1 || impr < -10 {
		t.Errorf("Query 2 improvement = %.1f%%, want slightly negative", impr)
	}
	// And the refinement algorithm must decline to buffer it.
	if n := values(t, lines, "Refinement verdict:")[0]; n != 0 {
		t.Errorf("refinement buffered Query 2 (%v buffers)", n)
	}
}

func TestFig11Shape(t *testing.T) {
	pts := report(t, "fig11").Series
	if len(pts) < 5 {
		t.Fatalf("series too short: %d", len(pts))
	}
	// At the left edge buffering loses; at the right it wins.
	first, last := pts[0], pts[len(pts)-1]
	if first.Buffered < first.Original {
		t.Errorf("buffered faster at cardinality %v", first.X)
	}
	if last.Buffered >= last.Original {
		t.Errorf("buffered not faster at cardinality %v", last.X)
	}
}

func TestFig12Shape(t *testing.T) {
	bySize := map[float64]float64{}
	var orig float64
	for _, p := range report(t, "fig12").Series {
		bySize[p.X] = p.Buffered
		orig = p.Original
	}
	// Tiny buffers carry overhead relative to moderate ones; from a
	// moderate size on, further growth buys (almost) nothing — the paper's
	// "misses reduced ∝ 1/buffersize, then flat" curve.
	if bySize[1] <= bySize[1024] {
		t.Errorf("size-1 buffer (%.4fs) not worse than size-1024 (%.4fs)", bySize[1], bySize[1024])
	}
	if bySize[1024] >= orig {
		t.Errorf("size-1024 buffer (%.4fs) not better than original (%.4fs)", bySize[1024], orig)
	}
	flat := bySize[65536] / bySize[1024]
	if flat < 0.95 || flat > 1.05 {
		t.Errorf("plateau violated: 64K/1K elapsed ratio = %.3f", flat)
	}
}
