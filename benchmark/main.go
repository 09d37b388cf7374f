// Command benchmark is bufferdb's benchmark of record. It builds
// cmd/bufferdbd, boots real daemons on loopback ports, drives them over TCP
// through internal/client from this one process in a closed loop, and
// reports six end-to-end metrics per workload; a separate traced run replays
// a sample of the same schedule through each module's public functions for
// the per-layer numbers. See README.md.
//
//	bash benchmark/run.sh --workload served_short --seed 1 --seconds 20 --trace 0
//	bash benchmark/run.sh -seed 1          # every workload, untraced then traced
//	bash benchmark/run.sh -aa 5            # A/A: five passes over one build
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// buildDir holds everything the benchmark writes, inside the checkout.
const buildDir = ".bench_build"

func main() {
	var (
		workloadName = flag.String("workload", "", "run one workload and end with the driver's one-line JSON (default: the whole suite)")
		seed         = flag.Uint64("seed", 1, "seed for literals and op order; data and class shares never change")
		seconds      = flag.Int("seconds", 20, "length of each timed phase")
		trace        = flag.Int("trace", 0, "with -workload: 1 reports the per-layer metrics from a traced run, 0 the end-to-end ones")
		aa           = flag.Int("aa", 0, "run the untraced suite this many times on one build and gate the spread of every end-to-end metric")
		root         = flag.String("root", ".", "repository root")
	)
	flag.Parse()

	// Every exit path — return, interrupt, panic — kills the daemons and
	// removes the scratch directories.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		cleanupAll()
		os.Exit(130)
	}()
	code := 0
	func() {
		defer func() {
			if p := recover(); p != nil {
				cleanupAll()
				panic(p)
			}
		}()
		if err := run(*root, *workloadName, *seed, time.Duration(*seconds)*time.Second, *trace != 0, *aa); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			code = 1
		}
	}()
	cleanupAll()
	os.Exit(code)
}

func run(root, workloadName string, seed uint64, dur time.Duration, traced bool, aa int) error {
	root, err := filepath.Abs(root)
	if err != nil {
		return err
	}
	bin, err := buildDaemon(root)
	if err != nil {
		return err
	}
	switch {
	case workloadName != "":
		w, ok := workloadByName(workloadName)
		if !ok {
			return fmt.Errorf("unknown workload %q", workloadName)
		}
		res, err := runWorkload(w, seed, dur, traced, bin, root)
		if err != nil {
			return err
		}
		defs := endToEnd
		if traced {
			defs = perLayer
		}
		res.print(os.Stdout, defs)
		return res.printDriverLine(os.Stdout, defs)
	case aa > 0:
		if aa < 2 {
			return fmt.Errorf("-aa needs at least 2 passes")
		}
		return runAA(aa, seed, dur, bin, root)
	default:
		return runSuite(seed, dur, bin, root)
	}
}

// buildDaemon compiles cmd/bufferdbd from the checkout's source, once.
func buildDaemon(root string) (string, error) {
	bin := filepath.Join(root, buildDir, "bufferdbd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/bufferdbd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build cmd/bufferdbd: %w\n%s", err, out)
	}
	return bin, nil
}

// print writes the run's metrics by name and unit, one per line.
func (r *result) print(out *os.File, defs []metricDef) {
	fmt.Fprintf(out, "workload %s seed %d: ops %d, failed_ops %d, latency samples %d\n", r.w.name, r.seed, r.ops, r.failed, r.ops-r.failed)
	if r.firstErr != "" {
		fmt.Fprintf(out, "  first failure: %s\n", r.firstErr)
	}
	for i, c := range r.w.classes {
		fmt.Fprintf(out, "  class %-12s share %3d%%  p50 %10.3f ms\n", c.name, 100*c.share/blockLen, r.classP50[i])
	}
	for _, d := range defs {
		fmt.Fprintf(out, "  %-36s %16.4f %s\n", d.name, r.metrics[d.name], d.unit)
	}
	if r.maxRSS > 0 {
		fmt.Fprintf(out, "  highest resident-set window of the timed phase: %.4f MB\n", r.maxRSS)
	}
	fmt.Fprintf(out, "  host.calib_ms after each set-up and after the timed phase %.2f, disturbed: %v\n", r.calibs, r.disturbed)
	fmt.Fprintf(out, "  host slowdown %.4f: end-to-end times are the clock's divided by it, qps multiplied\n", r.slowdown)
}

// printDriverLine ends the output with the one JSON object the driver
// reads: exactly correct, attempted, failed and metrics.
func (r *result) printDriverLine(out *os.File, defs []metricDef) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0, r.ops, r.failed, map[string]value{}}
	for _, d := range defs {
		line.Metrics[d.name] = value{r.metrics[d.name], d.unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(out, string(b))
	return err
}

// runSuite runs every workload untraced, then traced, and ends with one JSON
// document holding every metric.
func runSuite(seed uint64, dur time.Duration, bin, root string) error {
	type entry struct {
		Ops       int                `json:"ops"`
		FailedOps int                `json:"failed_ops"`
		Disturbed bool               `json:"disturbed"`
		EndToEnd  map[string]float64 `json:"end_to_end"`
		PerLayer  map[string]float64 `json:"per_layer"`
	}
	doc := map[string]entry{}
	failed := 0
	for _, w := range workloads {
		e2e, err := runWorkload(w, seed, dur, false, bin, root)
		if err != nil {
			return err
		}
		e2e.print(os.Stdout, endToEnd)
		layers, err := runWorkload(w, seed, dur, true, bin, root)
		if err != nil {
			return err
		}
		layers.print(os.Stdout, perLayer)
		failed += e2e.failed + layers.failed
		for _, d := range perLayer {
			layers.metrics[d.name] += 0 // a layer the workload lacks reads 0, not absent
		}
		doc[w.name] = entry{e2e.ops, e2e.failed, e2e.disturbed || layers.disturbed, e2e.metrics, layers.metrics}
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	if failed > 0 {
		return fmt.Errorf("%d ops failed", failed)
	}
	return nil
}

// runAA runs the untraced suite n times on one build and prints, per
// workload and end-to-end metric, the median, the range and the quartile
// distance, both as shares of the median. A range over the metric's bound
// fails the command: the benchmark must pass its own same-code comparison
// before it judges a change. The quartile distance is what the driver gates
// on and is printed for comparison.
func runAA(n int, seed uint64, dur time.Duration, bin, root string) error {
	values := map[string][]float64{} // "workload metric" → one value per pass
	for pass := 0; pass < n; pass++ {
		for _, w := range workloads {
			res, err := runWorkload(w, seed+uint64(pass), dur, false, bin, root)
			if err != nil {
				return err
			}
			if res.failed > 0 {
				return fmt.Errorf("%s: %d ops failed: %s", w.name, res.failed, res.firstErr)
			}
			fmt.Fprintf(os.Stderr, "pass %d/%d %s: host slowdown %.3f, disturbed: %v;", pass+1, n, w.name, res.slowdown, res.disturbed)
			for _, d := range endToEnd {
				k := w.name + " " + d.name
				values[k] = append(values[k], res.metrics[d.name])
				fmt.Fprintf(os.Stderr, " %s %.4g", d.name, res.metrics[d.name])
			}
			fmt.Fprintln(os.Stderr)
		}
	}
	var over []string
	fmt.Printf("| workload | metric | unit | median | (max−min)/median | (Q3−Q1)/median | bound |\n|---|---|---|---|---|---|---|\n")
	for _, w := range workloads {
		for _, d := range endToEnd {
			xs := values[w.name+" "+d.name]
			iqr, span := spread(xs)
			fmt.Printf("| %s | %s | %s | %.4g | %.1f %% | %.1f %% | %.0f %% |\n", w.name, d.name, d.unit, median(xs), 100*span, 100*iqr, 100*d.bound)
			if span > d.bound {
				over = append(over, w.name+" "+d.name)
			}
		}
	}
	if len(over) > 0 {
		return fmt.Errorf("A/A spread over bound: %s", strings.Join(over, ", "))
	}
	return nil
}
