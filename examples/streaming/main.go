// Streaming: the context-aware streaming API — consume a large result row
// by row with QueryStream, and cancel a query mid-stream.
//
//	go run ./examples/streaming
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"time"

	"bufferdb"
)

func main() {
	db, err := bufferdb.OpenTPCH(0.02, bufferdb.Options{})
	if err != nil {
		log.Fatal(err)
	}

	query := `
		SELECT l_orderkey, l_extendedprice * (1 - l_discount) * (1 + l_tax) AS charge
		FROM lineitem
		WHERE l_shipdate <= DATE '1998-09-02'`

	// Stream the result with QueryStream. The context cancels the query:
	// here we give it a generous deadline; pass a short one to see the
	// stream end early with an error wrapping context.DeadlineExceeded.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	rows, err := db.QueryStream(ctx, query)
	if err != nil {
		log.Fatal(err)
	}
	defer rows.Close()

	var total float64
	n := 0
	for rows.Next() {
		var key int64
		var charge float64
		if err := rows.Scan(&key, &charge); err != nil {
			log.Fatal(err)
		}
		total += charge
		n++
	}
	if err := rows.Err(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("streamed %d rows, total charge %.2f\n", n, total)

	// Cancelling the context stops a running query: the stream ends early
	// and Err wraps context.Canceled.
	cctx, stop := context.WithCancel(context.Background())
	rows, err = db.QueryStream(cctx, query)
	if err != nil {
		log.Fatal(err)
	}
	defer rows.Close()
	n = 0
	for rows.Next() {
		if n++; n == 1000 {
			stop()
		}
	}
	fmt.Printf("cancelled at row 1000; stream ended after %d rows, error wraps context.Canceled: %v\n",
		n, errors.Is(rows.Err(), context.Canceled))
}
