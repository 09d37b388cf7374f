package server_test

import (
	"context"
	"runtime"
	"testing"

	"bufferdb"
	"bufferdb/internal/client"
	"bufferdb/internal/server"
)

// benchQuery has enough plan surface (join + aggregate) that planning cost
// is visible next to execution at benchmark scale.
const benchQuery = `SELECT l_returnflag, COUNT(*), SUM(l_extendedprice) FROM lineitem, orders
 WHERE l_orderkey = o_orderkey AND l_quantity > 10 GROUP BY l_returnflag ORDER BY l_returnflag`

func benchHarness(b *testing.B, cfg server.Config) string {
	db := newDB(b, bufferdb.Options{})
	cfg.DB = db
	_, addr := startServer(b, cfg)
	return addr
}

// BenchmarkServerThroughput measures end-to-end queries/sec through the
// full network path — wire encoding, session dispatch, admission, engine,
// row streaming — with one client connection per worker.
func BenchmarkServerThroughput(b *testing.B) {
	addr := benchHarness(b, server.Config{})
	c := dial(b, addr, client.Config{MaxConns: runtime.GOMAXPROCS(0)})
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := c.QueryAll(context.Background(), benchQuery); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPreparedVsAdHoc isolates what the server's result cache buys:
// without it every request (a prepared statement's executions too) binds
// the database's plan template and executes; with it a repeated result is
// replayed without executing.
func BenchmarkPreparedVsAdHoc(b *testing.B) {
	b.Run("adhoc", func(b *testing.B) {
		addr := benchHarness(b, server.Config{})
		c := dial(b, addr, client.Config{MaxConns: 1})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.QueryAll(context.Background(), benchQuery); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("result-cached", func(b *testing.B) {
		addr := benchHarness(b, server.Config{ResultCacheBytes: 8 << 20})
		c := dial(b, addr, client.Config{MaxConns: 1})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.QueryAll(context.Background(), benchQuery); err != nil {
				b.Fatal(err)
			}
		}
	})
}
