// Buffer tuning: the paper's §7.3–§7.4 parameter studies through the
// public API — how the gain depends on predicate selectivity (output
// cardinality) and on the buffer size, and why a moderate default (1024)
// is enough.
//
//	go run ./examples/buffer_tuning
package main

import (
	"fmt"
	"log"

	"bufferdb"
)

func main() {
	db, err := bufferdb.OpenTPCH(0.01, bufferdb.Options{})
	if err != nil {
		log.Fatal(err)
	}

	// Refinement only buffers groups whose output exceeds the calibrated
	// cardinality threshold (16 rows on the simulated CPU; go run
	// ./cmd/calibrate reruns the calibration).

	// Selectivity sweep: tighter shipdate cutoffs make the scan's output
	// smaller, shrinking — then erasing — buffering's benefit (§7.3).
	fmt.Printf("\n%-14s %14s %14s %12s\n", "cutoff", "original (s)", "buffered (s)", "gain")
	for _, cutoff := range []string{"1992-06-01", "1993-06-01", "1995-06-17", "1998-09-02"} {
		q := fmt.Sprintf(`
			SELECT SUM(l_extendedprice * (1 - l_discount) * (1 + l_tax)),
			       AVG(l_quantity), COUNT(*)
			FROM lineitem WHERE l_shipdate <= DATE '%s'`, cutoff)
		prof, err := db.Profile(q)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-14s %14.4f %14.4f %11.1f%%\n",
			cutoff, prof.Original.ElapsedSec, prof.Buffered.ElapsedSec, prof.ImprovementPct)
	}

	// Buffer size sweep (§7.4): misses drop ∝ 1/size, so past a moderate
	// size the curve is flat — larger arrays only add data-cache pressure.
	const q1 = `
		SELECT SUM(l_extendedprice * (1 - l_discount) * (1 + l_tax)),
		       AVG(l_quantity), COUNT(*)
		FROM lineitem WHERE l_shipdate <= DATE '1998-09-02'`
	fmt.Printf("\n%-12s %14s %12s\n", "buffer size", "buffered (s)", "gain")
	for _, size := range []int{1, 8, 64, 256, 1024, 8192, 65536} {
		prof, err := db.Profile(q1, bufferdb.WithBufferSize(size))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-12d %14.4f %11.1f%%\n", size, prof.Buffered.ElapsedSec, prof.ImprovementPct)
	}
}
