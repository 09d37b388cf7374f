package bufferdb_test

import (
	"context"
	"fmt"
	"log"

	"bufferdb"
)

// Example demonstrates opening a database and running an aggregate query.
func Example() {
	db, err := bufferdb.OpenTPCH(0.002, bufferdb.Options{})
	if err != nil {
		log.Fatal(err)
	}
	res, err := db.Query(context.Background(), `
		SELECT l_returnflag, COUNT(*) AS n
		FROM lineitem
		GROUP BY l_returnflag
		ORDER BY l_returnflag`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.Columns)
	for _, row := range res.Rows {
		fmt.Println(row...)
	}
	// Output:
	// [l_returnflag n]
	// A 3203
	// N 5532
	// R 3191
}

// ExampleDB_Explain shows the refinement pass inserting a buffer operator
// into the paper's Query 1 plan.
func ExampleDB_Explain() {
	db, err := bufferdb.OpenTPCH(0.002, bufferdb.Options{})
	if err != nil {
		log.Fatal(err)
	}
	_, refined, err := db.Explain(`
		SELECT SUM(l_extendedprice), AVG(l_quantity), COUNT(*)
		FROM lineitem
		WHERE l_shipdate <= DATE '1998-09-02'`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(refined)
	// Output:
	// Project(sum(l_extendedprice), avg(l_quantity), count(*))  (rows≈1)
	//   Aggregate(SUM(lineitem.l_extendedprice), AVG(lineitem.l_quantity), COUNT(*))  (rows≈1)
	//     Buffer(size=1024)  (rows≈11926)
	//       SeqScan(lineitem, filter=(lineitem.l_shipdate <= '1998-09-02'))  (rows≈11926)
}
