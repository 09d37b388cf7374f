package main

import (
	"fmt"
	"math"
	"time"
)

// metricDef names one reported metric. BENCHMARK.json at the repository
// root repeats these tables; a test keeps the two in step.
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64 // end-to-end only: tolerated worsening, as a share
}

// endToEnd are the six user-visible metrics, the same on every workload.
// The issue asked for 10 % bounds. On the shared 2-vCPU hosts this runs on,
// ten same-code runs have a quartile distance of 3–15 % on the time-based
// metrics, and their medians move by up to 16 % within the hour, even at
// reference host speed (as the clock reads them, up to 43 %). The driver
// refuses a benchmark whose spread exceeds its own bound, so the time-based
// bounds are the contract's ceiling (README, "The host"). The resident set
// repeats to 2–7 %.
var endToEnd = []metricDef{
	{"qps", "1/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p95_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.15},
	{"setup_s", "s", "lower", 0.25},
}

// minTimedOps is the fewest ops a timed phase may hold: a p95 needs 200
// samples to have ten beyond it, and a few may fail.
const minTimedOps = 220

// setupReps is how many times an untraced run sets the fleet up; setup_s is
// the median, and the last fleet serves the timed phase. One set-up is one
// sample of a two-second interval; the driver's contract asks for several.
const setupReps = 3

// timedOps is the length of the workload's timed phase for a run of the
// given nominal duration: whole blocks, so class shares are exact, at the
// workload's nominal rate, and never fewer than minTimedOps. --seconds
// scales all four op counts by one factor; it does not box the run in time,
// so every run of one seed does identical work.
func (w workload) timedOps(dur time.Duration) int {
	blocks := int(math.Round(dur.Seconds() * w.nominalQPS / blockLen))
	return max(blocks, (minTimedOps+blockLen-1)/blockLen) * blockLen
}

// result is everything one run of one workload reports.
type result struct {
	w        workload
	seed     uint64
	ops      int
	failed   int
	firstErr string
	// classP50 is each class's median latency in schedule order, printed so
	// a reader can see the declared cost order still holds.
	classP50 []float64
	metrics  map[string]float64
	maxRSS   float64 // highest window peak, printed beside peak_rss_mb
	// calibs are the run's host.calib_ms readings: one after every set-up,
	// the last of which is the one before the timed phase, and one after it.
	calibs    []float64
	slowdown  float64 // of the host against the reference, over the run
	disturbed bool
}

// runWorkload performs one run: set up, drive the timed phase, verify, and
// (traced) replay a sample through each layer, with a host calibration after
// every set-up and after the timed phase. Untraced runs
// fill the end-to-end metrics, traced runs the per-layer ones; end-to-end
// numbers never come from a traced run.
func runWorkload(w workload, seed uint64, dur time.Duration, traced bool, bin, root string) (*result, error) {
	res := &result{w: w, seed: seed, metrics: map[string]float64{}}

	reps := setupReps
	if traced {
		reps = 1
	}
	var setups []float64
	var sess *session
	defer func() { sess.close() }()
	for k := 0; k < reps; k++ {
		sess.close()
		s, took, err := setUp(w, seed, bin, root)
		if err != nil {
			return nil, err
		}
		sess = s
		setups = append(setups, took.Seconds())
		res.calibs = append(res.calibs, hostCalib())
	}

	before, err := sess.fl.snapshot(traced)
	if err != nil {
		return nil, err
	}
	rss, err := sess.fl.watchRSS()
	if err != nil {
		return nil, err
	}
	defer rss.halt()
	ops := w.timedOps(dur)
	timed := sess.run(w.warmup, func(i int) bool { return i >= w.warmup+ops })
	peakRSS, maxRSS, err := rss.peak()
	if err != nil {
		return nil, err
	}
	after, err := sess.fl.snapshot(traced)
	if err != nil {
		return nil, err
	}
	res.calibs = append(res.calibs, hostCalib())
	res.slowdown = slowdown(res.calibs)
	res.disturbed = disturbed(res.calibs[len(res.calibs)-2], res.calibs[len(res.calibs)-1])

	res.ops, res.failed, res.firstErr = len(timed.samples), timed.failed, timed.firstErr
	var lat []float64
	byClass := make([][]float64, len(w.classes))
	for _, sm := range timed.samples {
		if !sm.failed {
			lat = append(lat, sm.ms)
			byClass[sm.class] = append(byClass[sm.class], sm.ms)
		}
	}
	for _, xs := range byClass {
		res.classP50 = append(res.classP50, median(xs))
	}

	var recovery time.Duration
	if w.fleet.paged {
		if recovery, err = sess.checkDurability(); err != nil {
			res.failed++
			if res.firstErr == "" {
				res.firstErr = err.Error()
			}
		}
	}

	if traced {
		if err := traceLayers(res, sess, timed, before, after, recovery, root); err != nil {
			return nil, err
		}
	} else {
		// Time-based metrics are reported at reference host speed.
		m, slow := res.metrics, res.slowdown
		p50, err := percentile(lat, 50)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		p95, err := percentile(lat, 95)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		m["latency_p50_ms"], m["latency_p95_ms"] = p50/slow, p95/slow
		m["qps"] = float64(res.ops) / (timed.wall.Seconds() / slow)
		m["cpu_ms_per_op"] = (after.totalCPU() - before.totalCPU()) / float64(res.ops) / slow
		m["setup_s"] = median(setups) / slow
		m["peak_rss_mb"], res.maxRSS = peakRSS, maxRSS
	}

	return res, nil
}

// snapshot is a fleet's /proc (and, for traced runs, /metrics) state at one
// instant; metrics are deltas of two snapshots around the timed phase.
type snapshot struct {
	cpuMS     []float64 // per daemon, fleet order
	metrics   []map[string]float64
	diskBytes int64 // size of a paged fleet's data directory
}

func (s snapshot) totalCPU() float64 {
	var t float64
	for _, c := range s.cpuMS {
		t += c
	}
	return t
}

func (f *fleet) snapshot(scrape bool) (snapshot, error) {
	var s snapshot
	for _, d := range f.daemons {
		cpu, err := d.cpuMS()
		if err != nil {
			return s, err
		}
		s.cpuMS = append(s.cpuMS, cpu)
		if scrape {
			m, err := d.scrape()
			if err != nil {
				return s, err
			}
			s.metrics = append(s.metrics, m)
		}
	}
	if scrape && f.dataDir != "" {
		var err error
		if s.diskBytes, err = dirBytes(f.dataDir); err != nil {
			return s, err
		}
	}
	return s, nil
}
