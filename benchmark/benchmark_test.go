package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

// materialize returns the first n ops of a schedule.
func materialize(w workload, seed uint64, n int) []op {
	s := newSchedule(w, seed)
	ops := make([]op, n)
	for i := range ops {
		ops[i] = s.at(i)
	}
	return ops
}

func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		a, b := materialize(w, 7, 400), materialize(w, 7, 400)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two schedules of seed 7 differ", w.name)
		}
		if c := materialize(w, 8, 400); reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 give the same schedule", w.name)
		}
		// Random access agrees with sequential access.
		s := newSchedule(w, 7)
		for _, i := range []int{399, 20, 0, 123} {
			if got := s.at(i); got != a[i] {
				t.Errorf("%s: at(%d) out of order = %+v, in order %+v", w.name, i, got, a[i])
			}
		}
	}
}

func TestEveryBlockHoldsTheClassShares(t *testing.T) {
	for _, w := range workloads {
		total := 0
		for _, c := range w.classes {
			total += c.share
		}
		if total != blockLen {
			t.Fatalf("%s: shares add to %d, want %d", w.name, total, blockLen)
		}
		if w.warmup%blockLen != 0 {
			t.Errorf("%s: warm-up %d is not whole blocks", w.name, w.warmup)
		}
		ops := materialize(w, 3, 10*blockLen)
		sentinels := map[string]bool{}
		for b := 0; b < 10; b++ {
			count := make([]int, len(w.classes))
			for _, o := range ops[b*blockLen : (b+1)*blockLen] {
				count[o.class]++
				if o.kind != kindPrepared && w.classes[o.class].name != "result_hit" {
					if sentinels[o.sql] {
						t.Errorf("%s: text repeats, so a cache could answer: %s", w.name, o.sql)
					}
					sentinels[o.sql] = true
				}
			}
			for ci, c := range w.classes {
				if count[ci] != c.share {
					t.Errorf("%s block %d: class %s appears %d times, want %d", w.name, b, c.name, count[ci], c.share)
				}
			}
		}
	}
}

// The single-mode rule: rank 50 and rank 95 each lie at least 10 percentage
// points from the nearest boundary between two cost classes.
func TestPercentilesLieInsideOneCostClass(t *testing.T) {
	for _, w := range workloads {
		for _, pct := range []float64{50, 95} {
			if name, margin := w.interiorClass(pct); margin < 10 {
				t.Errorf("%s: rank %g is %g points inside class %s, want at least 10", w.name, pct, margin, name)
			}
		}
	}
	// The rule itself: a 50/50 split puts the median on a boundary.
	split := workload{classes: []class{{name: "fast", share: 10}, {name: "slow", share: 10}}}
	if _, margin := split.interiorClass(50); margin != 0 {
		t.Errorf("rank 50 of a 50/50 split has margin %g, want 0", margin)
	}
	if name, margin := split.interiorClass(95); name != "slow" || margin != 45 {
		t.Errorf("rank 95 of a 50/50 split is %g points inside %s, want 45 inside slow", margin, name)
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got, err := percentile(xs, 95); err != nil || got != 190 {
		t.Errorf("p95 of 1..200 = %g, %v; want 190", got, err)
	}
	if got, err := percentile(xs, 50); err != nil || got != 100 {
		t.Errorf("p50 of 1..200 = %g, %v; want 100", got, err)
	}
	if _, err := percentile(xs[:199], 95); err == nil {
		t.Error("p95 of 199 samples has 9 beyond it and was not refused")
	}
	if _, err := percentile(xs, 99); err == nil {
		t.Error("p99 of 200 samples has 2 beyond it and was not refused")
	}
	if _, err := percentile(nil, 50); err == nil {
		t.Error("p50 of no samples was not refused")
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	iqr, span := spread([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if math.Abs(iqr-5.5/5.5) > 1e-12 || math.Abs(span-9/5.5) > 1e-12 {
		t.Errorf("spread of 1..10 = %g, %g; want 1, %g", iqr, span, 9/5.5)
	}
	// statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
	if iqr, _ := spread([]float64{1, 2, 3, 4, 5}); math.Abs(iqr-1) > 1e-12 {
		t.Errorf("quartile distance of 1..5 = %g of the median, want 1", iqr)
	}
	// statistics.quantiles([4, 8], n=4) == [3.0, 6.0, 9.0]
	if iqr, span := spread([]float64{4, 8}); math.Abs(iqr-1) > 1e-12 || math.Abs(span-4.0/6) > 1e-12 {
		t.Errorf("spread of {4, 8} = %g, %g; want 1, %g", iqr, span, 4.0/6)
	}
}

func TestSelfTimeIsDurationMinusChildren(t *testing.T) {
	spans := []span{
		{TraceID: 1, ID: 0, Parent: -1, Name: "op", Start: 0, End: 100},
		{TraceID: 1, ID: 1, Parent: 0, Name: "parse", Start: 5, End: 15},
		{TraceID: 1, ID: 2, Parent: 0, Name: "run", Start: 20, End: 90},
		{TraceID: 1, ID: 3, Parent: 2, Name: "scan", Start: 30, End: 70},
		{TraceID: 2, ID: 4, Parent: -1, Name: "op", Start: 100, End: 130},
	}
	if got, want := selfTimes(spans), []int64{20, 10, 30, 40, 30}; !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
	total, self := byName(spans)
	if total["op"] != 130 || self["op"] != 50 || total["run"] != 70 || self["run"] != 30 {
		t.Errorf("by name: total %v self %v", total, self)
	}
	tr := newTracer()
	root := tr.begin(9, -1, "op")
	tr.end(tr.begin(9, root, "child"))
	tr.end(root)
	if c := tr.spans[1]; c.Parent != root || c.TraceID != 9 || c.Start < tr.spans[0].Start || c.End > tr.spans[0].End {
		t.Errorf("child span %+v does not nest in %+v", c, tr.spans[0])
	}
}

func TestChecksumIgnoresRowOrderAndReassociation(t *testing.T) {
	a := [][]any{{int64(1), "x", 2.5}, {int64(2), "y", nil}}
	sum := func(rows [][]any) (s uint64) {
		for _, r := range rows {
			s += hashRow(r)
		}
		return s
	}
	if sum(a) != sum([][]any{a[1], a[0]}) {
		t.Error("checksum depends on row order")
	}
	if sum(a) == sum([][]any{{int64(1), "x", 2.5}, {int64(2), "z", nil}}) {
		t.Error("checksum misses a changed string")
	}
	parts := []float64{0.1, 0.2, 0.3}
	x := parts[0] + parts[1] + parts[2]
	y := parts[2] + parts[1] + parts[0]
	if x == y || hashRow([]any{x}) != hashRow([]any{y}) {
		t.Errorf("sums %v and %v differ in the last bits and must hash alike", x, y)
	}
	if hashRow([]any{1.0}) == hashRow([]any{1.000001}) {
		t.Error("checksum misses a float changed in its sixth digit")
	}
}

func TestProcParsing(t *testing.T) {
	stat := "4242 (buffer) dbd) S 1 4242 4242 0 -1 4194560 1000 0 0 0 250 50 0 0 20 0 9 0 100 1000000 500 18446744073709551615"
	if ms, err := parseStatCPU(stat); err != nil || ms != 3000 {
		t.Errorf("cpu of %q = %g ms, %v; want 3000", stat, ms, err)
	}
	if _, err := parseStatCPU("garbage"); err == nil {
		t.Error("malformed stat line accepted")
	}
	if kb, err := parseVmHWM("Name:\tbufferdbd\nVmPeak:\t 1234 kB\nVmHWM:\t   20480 kB\nVmRSS:\t   1024 kB\n"); err != nil || kb != 20480 {
		t.Errorf("VmHWM = %g kB, %v; want 20480", kb, err)
	}
	if _, err := parseVmHWM("Name:\tbufferdbd\nVmRSS:\t   1024 kB\n"); err == nil {
		t.Error("status without VmHWM accepted")
	}
	m, err := parseMetrics(strings.NewReader("# HELP x\nbufferdb_reuse_hits_total 7\nbufferdb_coord_shard_scans_total{shard=\"a:1\"} 3\nbufferdb_coord_shard_scans_total{shard=\"b:2\"} 4\n"))
	if err != nil || m["bufferdb_reuse_hits_total"] != 7 || sumPrefix(m, "bufferdb_coord_shard_scans_total") != 7 {
		t.Errorf("metrics %v, %v", m, err)
	}
}

func TestTimedPhaseIsWholeBlocksScaledByOneFactor(t *testing.T) {
	for _, w := range workloads {
		n := w.timedOps(20 * time.Second)
		if n%blockLen != 0 || n < minTimedOps {
			t.Errorf("%s: %d timed ops in 20 s, want whole blocks and at least %d", w.name, n, minTimedOps)
		}
		if want := 20 * w.nominalQPS; math.Abs(float64(n)-want) > blockLen/2 {
			t.Errorf("%s: %d timed ops in 20 s, want about %g", w.name, n, want)
		}
		if got := w.timedOps(40 * time.Second); math.Abs(float64(got)-2*float64(n)) > blockLen {
			t.Errorf("%s: 40 s times %d ops, 20 s times %d: not one factor", w.name, got, n)
		}
		// Too short a run still leaves the p95 its ten samples beyond.
		if got := w.timedOps(time.Second); got < minTimedOps || got%blockLen != 0 {
			t.Errorf("%s: a 1 s run times %d ops, want at least %d in whole blocks", w.name, got, minTimedOps)
		}
		// The traced sample fits inside the timed phase.
		if blocks := n / blockLen; w.traceBlocks < 1 || w.traceBlocks > blocks {
			t.Errorf("%s: %d trace blocks of %d timed blocks", w.name, w.traceBlocks, blocks)
		}
	}
}

func TestServerOverheadIsTheMedianPairedDifference(t *testing.T) {
	var spans []span
	for id, pair := range [][2]int64{{100, 130}, {1000, 1020}, {50, 90}} {
		spans = append(spans,
			span{TraceID: id, Name: "bufferdb.query", Start: 0, End: pair[0] * 1000},
			span{TraceID: id, Name: "server.op", Start: 0, End: pair[1] * 1000},
			span{TraceID: id, Name: "exec.run", Start: 0, End: 7})
	}
	if got := serverOverheadUS(spans); got != 30 {
		t.Errorf("overhead of pairs +30, +20, +40 us = %g, want the median 30", got)
	}
}

func TestDisturbedFlag(t *testing.T) {
	if disturbed(100, 104) || !disturbed(100, 106) || !disturbed(100, 94) {
		t.Error("the disturbed flag must fire beyond a 5 % calibration drift, either way")
	}
}

// BENCHMARK.json repeats the harness's metric and workload tables for the
// driver; the two must not drift apart.
func TestBenchmarkJSONMatchesTheHarness(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Command   []string `json:"command"`
		Paths     []string `json:"paths"`
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the harness", i, doc.Workloads[i].Name, w.name)
		}
	}
	same := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the harness %d", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the harness %+v", kind, i, g, d)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != d.bound) {
				t.Errorf("%s %s: bound in BENCHMARK.json does not match %g", kind, d.name, d.bound)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd, true)
	same("per_layer", doc.PerLayer, perLayer, false)
}
