package bench

import (
	"testing"

	"bufferdb/internal/sql"
)

// TestSimulatedTimeScalesLinearly validates the claim EXPERIMENTS.md relies
// on when comparing against the paper's SF 0.2 numbers: simulated elapsed
// time grows linearly with scale factor, so shapes measured at laptop scale
// transfer.
func TestSimulatedTimeScalesLinearly(t *testing.T) {
	t.Parallel()
	run := func(sf float64) (orig, buf float64) {
		r, err := NewRunner(Config{ScaleFactor: sf, CardinalityThreshold: 16})
		if err != nil {
			t.Fatal(err)
		}
		p, err := r.Plan(Query1, sql.Options{})
		if err != nil {
			t.Fatal(err)
		}
		refined, err := r.Refine(p)
		if err != nil {
			t.Fatal(err)
		}
		mo, err := r.Measure("o", p)
		if err != nil {
			t.Fatal(err)
		}
		mb, err := r.Measure("b", refined)
		if err != nil {
			t.Fatal(err)
		}
		return mo.ElapsedSec, mb.ElapsedSec
	}
	o1, b1 := run(0.002)
	o2, b2 := run(0.004)

	// Doubling the scale factor should double simulated time within ~15 %
	// (row counts round, cold-cache warmup amortizes differently).
	for _, c := range []struct {
		name  string
		small float64
		large float64
	}{
		{"original", o1, o2},
		{"buffered", b1, b2},
	} {
		ratio := c.large / c.small
		if ratio < 1.7 || ratio > 2.3 {
			t.Errorf("%s: SF×2 changed elapsed ×%.2f, want ≈ 2", c.name, ratio)
		}
	}
	// The improvement percentage itself is scale-stable.
	imp1 := 1 - b1/o1
	imp2 := 1 - b2/o2
	if diff := imp1 - imp2; diff > 0.05 || diff < -0.05 {
		t.Errorf("improvement drifted with scale: %.3f vs %.3f", imp1, imp2)
	}
}
