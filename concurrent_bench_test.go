package bufferdb

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// BenchmarkConcurrentThroughput measures queries/sec served by one DB at
// 1, 4 and 16 client goroutines — the inter-query scaling metric for the
// concurrency-first redesign. Each op is one full Query (plan, refine,
// execute, materialize) of a mixed statement.
func BenchmarkConcurrentThroughput(b *testing.B) {
	db, err := OpenTPCH(0.002, Options{})
	if err != nil {
		b.Fatal(err)
	}
	// Warm the lazy per-table stats outside the timed region.
	if _, err := db.Query(context.Background(), concurrentQueries[0]); err != nil {
		b.Fatal(err)
	}
	for _, clients := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			var next atomic.Int64
			var wg sync.WaitGroup
			per := b.N / clients
			if per == 0 {
				per = 1
			}
			b.ResetTimer()
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < per; i++ {
						q := concurrentQueries[int(next.Add(1))%len(concurrentQueries)]
						if _, err := db.Query(context.Background(), q); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			ops := float64(clients * per)
			b.ReportMetric(ops/b.Elapsed().Seconds(), "queries/sec")
		})
	}
}
