// Join methods: the paper's §7.5 experiment — the same two-table join run
// as a nested-loop join, a hash join, and a merge join, each original vs
// refined. Buffer placement differs per method (the paper's Figures 15–17):
// the nested-loop inner index lookup is never buffered (one row per
// rescan), the hash build is blocking so buffers go above the scans, and
// the sort feeding the merge join is never wrapped.
//
//	go run ./examples/join_methods
package main

import (
	"context"
	"fmt"
	"log"

	"bufferdb"
)

const query3 = `
SELECT SUM(o_totalprice), COUNT(*), AVG(l_discount)
FROM lineitem, orders
WHERE l_orderkey = o_orderkey AND l_shipdate <= DATE '1995-06-17'`

func main() {
	db, err := bufferdb.OpenTPCH(0.01, bufferdb.Options{})
	if err != nil {
		log.Fatal(err)
	}

	ctx := context.Background()
	for _, method := range []string{"nestloop", "hash", "merge"} {
		opt := bufferdb.WithForceJoin(method)
		an, err := db.ExplainAnalyze(ctx, query3, opt)
		if err != nil {
			log.Fatal(err)
		}
		prof, err := db.Profile(query3, opt)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("=== %s join ===\n", method)
		fmt.Print(an.Table())
		fmt.Printf("buffers inserted: %d\n", prof.BuffersInserted)
		fmt.Printf("L1I misses: %d → %d, elapsed %.4fs → %.4fs (%.1f%% better)\n\n",
			prof.Original.L1IMisses, prof.Buffered.L1IMisses,
			prof.Original.ElapsedSec, prof.Buffered.ElapsedSec, prof.ImprovementPct)
	}

	// Profile checked each method's refined answer against its original;
	// Query serves the same answer with the planner's own join choice.
	res, err := db.Query(ctx, query3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("result:", res.Rows[0])
}
