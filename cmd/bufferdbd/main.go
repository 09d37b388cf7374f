// Command bufferdbd is the bufferdb network daemon: it generates (or
// loads) a TPC-H database, applies the resource-governor limits from its
// flags, and serves the internal/wire protocol on a TCP listener until
// SIGINT/SIGTERM, when it drains gracefully. A sidecar HTTP listener
// exposes the process metrics registry and liveness/readiness probes.
//
// Usage:
//
//	bufferdbd -listen :7687 -http :7688 -scale 0.1 \
//	    -max-concurrent 8 -max-queued 64 -memory-limit 268435456
//
// A hash-sharded deployment runs N shard daemons plus one coordinator:
//
//	bufferdbd -listen :7701 -scale 0.1 -shard-index 0 -shard-count 3
//	bufferdbd -listen :7702 -scale 0.1 -shard-index 1 -shard-count 3
//	bufferdbd -listen :7703 -scale 0.1 -shard-index 2 -shard-count 3
//	bufferdbd -listen :7687 -shards localhost:7701,localhost:7702,localhost:7703
//
// -shards switches the process into coordinator mode: it loads no data,
// scatters queries to the listed shard daemons (which must share one
// -shard-count and -seed), gathers their partial streams, and serves the
// same wire protocol — clients and the CLI connect to either tier
// unchanged. The two modes differ only in what the server's sessions run
// against (a resident database or a coordinator) and in what /readyz
// reports; listener, sidecar, signal handling and drain are one path. A
// flag that has no effect in the selected mode (-data-dir on a
// coordinator, -breaker-cooldown on a data node) is an error, not a no-op.
//
// -replication (default 2) replicates each hash slice across that many
// nodes: shard daemon j additionally loads the rf-1 slices preceding its
// own, and the coordinator routes every scatter leg to a healthy replica,
// failing legs over mid-stream when a node dies. Per-node circuit breakers
// (-breaker-threshold consecutive transport failures open one;
// -breaker-cooldown later a single probe query tests recovery) keep dead
// nodes out of the routing until they answer again. Pass the same
// -replication to the shard daemons and the coordinator.
//
// Sidecar endpoints:
//
//	/metrics   Prometheus text-format dump of the metrics registry
//	           (per-shard health/latency counters in coordinator mode)
//	/healthz   liveness: 200 once the process is up
//	/readyz    readiness: 200 after the database is loaded and the
//	           listener is accepting; 503 during startup and drain.
//	           In coordinator mode the body reflects fleet health:
//	           "ready" (all replicas healthy), "warn: ..." (200 — every
//	           slice reachable but redundancy degraded), or 503 "fail:
//	           ..." (some slice has no healthy replica)
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"bufferdb"
	"bufferdb/internal/dist"
	"bufferdb/internal/server"
	"bufferdb/internal/shard"
)

// drainBudget is how long a graceful shutdown waits for sessions to finish
// before force-closing their connections.
const drainBudget = 10 * time.Second

// Flags outside these two sets configure the resident database and its
// caches, so they apply to data nodes only.
var (
	// sharedFlags apply in both modes.
	sharedFlags = map[string]bool{
		"listen": true, "http": true, "memory-limit": true, "replication": true,
	}
	// coordFlags apply to a coordinator only.
	coordFlags = map[string]bool{
		"shards": true, "breaker-threshold": true, "breaker-cooldown": true,
	}
)

// checkFlags rejects every explicitly set flag the selected mode would
// silently ignore.
func checkFlags(coordinator bool) error {
	var bad []string
	flag.Visit(func(f *flag.Flag) {
		if !sharedFlags[f.Name] && coordFlags[f.Name] != coordinator {
			bad = append(bad, "-"+f.Name)
		}
	})
	if len(bad) == 0 {
		return nil
	}
	if coordinator {
		return fmt.Errorf("%s: data-node only, no effect in coordinator mode (-shards)", strings.Join(bad, ", "))
	}
	return fmt.Errorf("%s: coordinator only, no effect without -shards", strings.Join(bad, ", "))
}

// mode is everything the two modes do differently; serve does the rest.
type mode struct {
	// cfg carries what the sessions run against: DB (+Slices and cache
	// sizes) on a data node, Backend on a coordinator.
	cfg server.Config
	// health feeds /readyz once the listener accepts: "pass", "warn"
	// (serving, detail says what is degraded) or "fail" (503).
	health func() (status, detail string)
	// tracked reports the bytes still charged at exit; a clean drain
	// leaves 0.
	tracked func() int64
	// closers run after the drain, in order.
	closers []func() error
}

func main() {
	var (
		listen    = flag.String("listen", ":7687", "wire-protocol listen address")
		httpAddr  = flag.String("http", "", "sidecar HTTP listen address for /metrics, /healthz, /readyz (empty = no sidecar)")
		scale     = flag.Float64("scale", 0.01, "TPC-H scale factor")
		seed      = flag.Uint64("seed", 0, "TPC-H generation seed (0 = default)")
		memLimit  = flag.Int64("memory-limit", 0, "process-wide tracked-memory cap in bytes (0 = unlimited)")
		maxConc   = flag.Int("max-concurrent", 0, "admission: max concurrently executing queries (0 = unlimited)")
		maxQueued = flag.Int("max-queued", 0, "admission: max queries queued for a slot")
		admWait   = flag.Duration("admission-wait", 0, "admission: max time a query queues before shedding (0 = caller's context)")
		resCache  = flag.Int64("result-cache", 0, "result-reuse cache budget in encoded bytes (0 disables)")
		reuse     = flag.Bool("reuse-cache", false, "semantic reuse cache: recycle hash-join builds and aggregate tables across queries (bufferdb_reuse_* metrics)")
		reuseMB   = flag.Int64("reuse-max-bytes", 0, "semantic reuse-cache budget in bytes (0 = default 64 MiB; needs -reuse-cache)")
		dataDir   = flag.String("data-dir", "", "persistent data directory: load it if populated, else generate TPC-H there; enables INSERT (empty = in-memory)")
		poolBytes = flag.Int64("pool-bytes", 0, "buffer-pool residency cap in bytes (0 = default 4 MiB; needs -data-dir)")
		shards    = flag.String("shards", "", "comma-separated shard addresses; non-empty switches to coordinator mode (no local data)")
		shardIdx  = flag.Int("shard-index", 0, "this shard's index in a hash-partitioned deployment (needs -shard-count)")
		shardCnt  = flag.Int("shard-count", 0, "total shard count; >1 loads only this node's hash slice of the sharded tables")
		repl      = flag.Int("replication", 2, "replication factor for sharded deployments: each slice lives on this many nodes (clamped to the node count; 1 disables replication; ignored unless sharded)")
		brkThresh = flag.Int("breaker-threshold", 0, "coordinator: consecutive transport failures that open a node's circuit breaker (0 = default 3)")
		brkCool   = flag.Duration("breaker-cooldown", 0, "coordinator: how long an open breaker rejects a node before probing it again (0 = default 5s)")
	)
	flag.Parse()
	logger := log.New(os.Stderr, "bufferdbd: ", log.LstdFlags)
	if err := checkFlags(*shards != ""); err != nil {
		logger.Fatalf("flags: %v", err)
	}

	var m mode
	if *shards != "" {
		m = coordinatorMode(logger, *shards, dist.Config{
			MemoryLimit:      *memLimit,
			Replication:      *repl,
			BreakerThreshold: *brkThresh,
			BreakerCooldown:  *brkCool,
		})
	} else {
		m = dataNodeMode(logger, *scale, *repl, bufferdb.Options{
			Seed:          *seed,
			MemoryLimit:   *memLimit,
			DataDir:       *dataDir,
			PoolBytes:     *poolBytes,
			ShardIndex:    *shardIdx,
			ShardCount:    *shardCnt,
			ReuseCache:    *reuse,
			ReuseMaxBytes: *reuseMB,
			Admission: bufferdb.AdmissionConfig{
				MaxConcurrent: *maxConc,
				MaxQueued:     *maxQueued,
				WaitTimeout:   *admWait,
			},
		})
		m.cfg.ResultCacheBytes = *resCache
	}
	m.cfg.Logf = logger.Printf
	serve(logger, *listen, *httpAddr, m)
}

// dataNodeMode loads (or generates) this node's data: one database, or on
// a replicated shard node one per hosted slice.
func dataNodeMode(logger *log.Logger, scale float64, replication int, opts bufferdb.Options) mode {
	start := time.Now()
	rf := 1
	if opts.ShardCount > 1 {
		rf = shard.ClampRF(replication, opts.ShardCount)
	}
	var (
		db      *bufferdb.DB
		slices  map[int]*bufferdb.DB
		hosted  []int
		openErr error
	)
	if rf > 1 {
		// Replicated deployment: this node hosts its primary slice plus the
		// rf-1 preceding ones, each as its own database. The default DB is
		// the primary, so unaddressed (legacy) requests keep their meaning.
		hosted = shard.Slices(opts.ShardIndex, opts.ShardCount, rf)
		slices, openErr = bufferdb.OpenTPCHReplicas(scale, opts, hosted)
		if openErr == nil {
			db = slices[opts.ShardIndex]
		}
	} else {
		db, openErr = bufferdb.OpenTPCH(scale, opts)
	}
	if openErr != nil {
		logger.Fatalf("open: %v", openErr)
	}
	desc := "in-memory"
	if opts.DataDir != "" {
		desc = "persistent at " + opts.DataDir
	}
	if rf > 1 {
		desc += fmt.Sprintf(", node %d/%d hosting slices %v (rf %d)", opts.ShardIndex, opts.ShardCount, hosted, rf)
	} else if opts.ShardCount > 1 {
		desc += fmt.Sprintf(", shard %d/%d", opts.ShardIndex, opts.ShardCount)
	}
	logger.Printf("TPC-H SF %g loaded in %v, %s (tables: %v)", scale, time.Since(start).Round(time.Millisecond), desc, db.Tables())

	// Checkpoint and close the persistent tier (a no-op for in-memory
	// databases) so a clean shutdown never needs WAL replay on reboot and
	// the buffer pool's residency charge drains before the exit gauge.
	// Closing the primary twice (it is also slices[ShardIndex]) is harmless.
	closers := []func() error{db.Close}
	for _, sdb := range slices {
		closers = append(closers, sdb.Close)
	}
	return mode{
		cfg:    server.Config{DB: db, Slices: slices, Info: fmt.Sprintf("bufferdbd sf=%g", scale)},
		health: func() (string, string) { return "pass", "" },
		// The hosted slices share one memory tracker, so the primary's
		// count is the node's.
		tracked: db.TrackedBytes,
		closers: closers,
	}
}

// coordinatorMode loads no data: the sessions run against a
// dist.Coordinator over the listed shards.
func coordinatorMode(logger *log.Logger, shards string, cfg dist.Config) mode {
	for _, a := range strings.Split(shards, ",") {
		if a = strings.TrimSpace(a); a != "" {
			cfg.Shards = append(cfg.Shards, a)
		}
	}
	co, err := dist.Open(cfg)
	if err != nil {
		logger.Fatalf("coordinator: %v", err)
	}
	logger.Printf("coordinator over %d shards (rf %d): %s",
		len(cfg.Shards), shard.ClampRF(cfg.Replication, len(cfg.Shards)), strings.Join(cfg.Shards, ", "))
	return mode{
		cfg: server.Config{Backend: co, Info: fmt.Sprintf("bufferdb-coordinator shards=%d", len(cfg.Shards))},
		// Fleet health, as the breakers see it: a slice with no healthy
		// replica fails readiness (queries over it fail), lost redundancy
		// stays ready but says so.
		health: func() (string, string) {
			h := co.Health()
			return h.Status, h.Detail
		},
		tracked: co.TrackedBytes,
		closers: []func() error{co.Close},
	}
}

// serve is the one boot path: wire listener, HTTP sidecar, signal wait,
// drain, close.
func serve(logger *log.Logger, listen, httpAddr string, m mode) {
	srv, err := server.New(m.cfg)
	if err != nil {
		logger.Fatalf("server: %v", err)
	}
	l, err := net.Listen("tcp", listen)
	if err != nil {
		logger.Fatalf("listen: %v", err)
	}

	// ready flips on once the wire listener accepts and off when the drain
	// starts, so orchestrators stop routing before connections die.
	var ready atomic.Bool
	var httpSrv *http.Server
	if httpAddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4")
			if err := bufferdb.WriteMetrics(w); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
		})
		mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
			fmt.Fprintln(w, "ok")
		})
		mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
			if !ready.Load() {
				http.Error(w, "not ready", http.StatusServiceUnavailable)
				return
			}
			switch status, detail := m.health(); status {
			case "fail":
				http.Error(w, "fail: "+detail, http.StatusServiceUnavailable)
			case "warn":
				fmt.Fprintf(w, "warn: %s\n", detail)
			default:
				fmt.Fprintln(w, "ready")
			}
		})
		httpSrv = &http.Server{Addr: httpAddr, Handler: mux}
		go func() {
			if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				logger.Fatalf("http sidecar: %v", err)
			}
		}()
		logger.Printf("sidecar http on %s (/metrics /healthz /readyz)", httpAddr)
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(l) }()
	ready.Store(true)
	logger.Printf("serving wire protocol on %s (%s)", l.Addr(), m.cfg.Info)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		logger.Printf("received %v, draining (budget %v)", s, drainBudget)
	case err := <-serveErr:
		logger.Fatalf("serve: %v", err)
	}

	ready.Store(false)
	ctx, cancel := context.WithTimeout(context.Background(), drainBudget)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		logger.Printf("shutdown: %v", err)
	}
	if err := <-serveErr; err != nil && err != server.ErrServerClosed {
		logger.Printf("serve: %v", err)
	}
	if httpSrv != nil {
		_ = httpSrv.Shutdown(context.Background())
	}
	for _, closeFn := range m.closers {
		if err := closeFn(); err != nil {
			logger.Printf("close: %v", err)
		}
	}
	logger.Printf("bye (tracked bytes at exit: %d)", m.tracked())
}
