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
// same wire protocol to clients. The two modes differ only in what the
// server's sessions run against (a resident database or a coordinator) and
// in what /readyz reports. A flag that would have no effect is an error,
// not a no-op: -data-dir on a coordinator, -breaker-cooldown on a data
// node, -shard-index on an unsharded node, -pool-bytes without -data-dir,
// -max-queued or -admission-wait without -max-concurrent.
//
// Every shard daemon hosts a slice set: its own slice (-shard-index, which
// must lie in [0, -shard-count)) plus, at -replication rf (default 2), the
// rf-1 slices preceding it. A shard node holds no -data-dir: the persistent
// tier is single-node. The coordinator addresses each scatter leg to its
// slice and routes it to a healthy replica, failing legs over mid-stream
// when a node dies. Per-node circuit breakers (-breaker-threshold
// consecutive transport failures open one; -breaker-cooldown later a single
// probe query tests recovery) keep dead nodes out of the routing until they
// answer again. Pass the same -replication to the shard daemons and the
// coordinator.
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

// The flags are package variables, so a test can parse them into its own set.
var (
	listen    = flag.String("listen", ":7687", "wire-protocol listen address")
	httpAddr  = flag.String("http", "", "sidecar HTTP listen address for /metrics, /healthz, /readyz (empty = no sidecar)")
	scale     = flag.Float64("scale", 0.01, "TPC-H scale factor")
	seed      = flag.Uint64("seed", 0, "TPC-H generation seed (0 = default)")
	memLimit  = flag.Int64("memory-limit", 0, "process-wide tracked-memory cap in bytes (0 = unlimited)")
	maxConc   = flag.Int("max-concurrent", 0, "admission: max concurrently executing queries (0 = unlimited)")
	maxQueued = flag.Int("max-queued", 0, "admission: max queries queued for a slot")
	admWait   = flag.Duration("admission-wait", 0, "admission: max time a query queues before shedding (0 = caller's context)")
	resCache  = flag.Int64("result-cache", 0, "result-reuse cache budget in bytes, each entry charged its encoded result, key and a fixed overhead (0 disables)")
	reuse     = flag.Bool("reuse-cache", false, "semantic reuse cache (64 MiB): recycle hash-join builds and aggregate tables across queries (bufferdb_reuse_* metrics)")
	dataDir   = flag.String("data-dir", "", "persistent data directory: load it if populated, else generate TPC-H there; enables INSERT (empty = in-memory)")
	poolBytes = flag.Int64("pool-bytes", 0, "buffer-pool residency cap in bytes (0 = default 4 MiB; needs -data-dir)")
	shards    = flag.String("shards", "", "comma-separated shard addresses; non-empty switches to coordinator mode (no local data)")
	shardIdx  = flag.Int("shard-index", 0, "this shard's index in a hash-partitioned deployment (needs -shard-count > 1)")
	shardCnt  = flag.Int("shard-count", 0, "total shard count; >1 loads only this node's hash slice of the sharded tables")
	repl      = flag.Int("replication", 2, "replication factor for sharded deployments: each slice lives on this many nodes (clamped to the node count; 1 disables replication; needs -shard-count > 1 or -shards)")
	brkThresh = flag.Int("breaker-threshold", 0, "coordinator: consecutive transport failures that open a node's circuit breaker (0 = default 3)")
	brkCool   = flag.Duration("breaker-cooldown", 0, "coordinator: how long an open breaker rejects a node before probing it again (0 = default 5s)")

	// Flags outside these two sets configure the resident database and its
	// caches, so they apply to data nodes only. sharedFlags apply in both
	// modes, coordFlags to a coordinator only.
	sharedFlags = map[string]bool{"listen": true, "http": true, "memory-limit": true, "replication": true}
	coordFlags  = map[string]bool{"shards": true, "breaker-threshold": true, "breaker-cooldown": true}
	// sliceFlags place a data node's slice set, so they need -shard-count > 1.
	sliceFlags = map[string]bool{"shard-index": true, "replication": true}
	// needs maps a flag to the flag it only acts through: the buffer pool
	// is the persistent tier's, and the queue and its wait are admission's.
	needs = map[string]string{"pool-bytes": "data-dir", "max-queued": "max-concurrent", "admission-wait": "max-concurrent"}
)

// checkFlags rejects every flag set in fs that the selected mode, or a
// flag it needs left at its default, would silently ignore.
func checkFlags(fs *flag.FlagSet, coordinator, sharded bool) error {
	var bad, unsharded, unmet []string
	fs.Visit(func(f *flag.Flag) {
		dep := fs.Lookup(needs[f.Name])
		switch {
		case !sharedFlags[f.Name] && coordFlags[f.Name] != coordinator:
			bad = append(bad, "-"+f.Name)
		case !coordinator && !sharded && sliceFlags[f.Name]:
			unsharded = append(unsharded, "-"+f.Name)
		case dep != nil && dep.Value.String() == dep.DefValue:
			unmet = append(unmet, "-"+f.Name+" needs -"+dep.Name)
		}
	})
	switch {
	case len(bad) > 0 && coordinator:
		return fmt.Errorf("%s: data-node only, no effect in coordinator mode (-shards)", strings.Join(bad, ", "))
	case len(bad) > 0:
		return fmt.Errorf("%s: coordinator only, no effect without -shards", strings.Join(bad, ", "))
	case len(unsharded) > 0:
		return fmt.Errorf("%s: shard node only, no effect without -shard-count > 1", strings.Join(unsharded, ", "))
	case len(unmet) > 0:
		return fmt.Errorf("%s: no effect otherwise", strings.Join(unmet, ", "))
	}
	return nil
}

// mode is everything the two modes do differently; serve does the rest.
type mode struct {
	// cfg carries what the sessions run against: DB (+Slices and cache
	// sizes) on a data node, Backend on a coordinator.
	cfg server.Config
	// health feeds /readyz once the listener accepts: "pass", "warn"
	// (serving, detail says what is degraded) or "fail" (503).
	health func() (status, detail string)
	// tracked reports the bytes still charged at exit (0 after a clean drain).
	tracked func() int64
	// closers run after the drain, in order.
	closers []func() error
}

func main() {
	flag.Parse()
	logger := log.New(os.Stderr, "bufferdbd: ", log.LstdFlags)
	if err := checkFlags(flag.CommandLine, *shards != "", *shardCnt > 1); err != nil {
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
		m = dataNodeMode(logger, *scale, *shardIdx, *shardCnt, *repl, bufferdb.Options{
			Seed:        *seed,
			MemoryLimit: *memLimit,
			DataDir:     *dataDir,
			PoolBytes:   *poolBytes,
			ReuseCache:  *reuse,
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
// a shard node (count > 1) one per hosted slice — slice index plus the
// replication-1 preceding ones. The flags are checked before anything loads.
func dataNodeMode(logger *log.Logger, scale float64, index, count, replication int, opts bufferdb.Options) mode {
	start := time.Now()
	var (
		db     *bufferdb.DB
		slices map[int]*bufferdb.DB
		err    error
	)
	desc := "in-memory"
	if count > 1 {
		if opts.DataDir != "" {
			logger.Fatalf("flags: -data-dir: the persistent tier is single-node, incompatible with -shard-count %d", count)
		}
		if index < 0 || index >= count {
			logger.Fatalf("flags: -shard-index %d outside [0,%d) (-shard-count %d)", index, count, count)
		}
		// The default DB is the node's own slice, so unaddressed requests
		// read it.
		rf := shard.ClampRF(replication, count)
		hosted := shard.Slices(index, count, rf)
		if slices, err = bufferdb.OpenTPCHReplicas(scale, opts, count, hosted); err == nil {
			db = slices[index]
		}
		desc += fmt.Sprintf(", node %d/%d hosting slices %v (rf %d)", index, count, hosted, rf)
	} else {
		db, err = bufferdb.OpenTPCH(scale, opts)
		if opts.DataDir != "" {
			desc = "persistent at " + opts.DataDir
		}
	}
	if err != nil {
		logger.Fatalf("open: %v", err)
	}
	logger.Printf("TPC-H SF %g loaded in %v, %s (tables: %v)", scale, time.Since(start).Round(time.Millisecond), desc, db.Tables())

	// Checkpoint and close the persistent tier (a no-op in memory), so a
	// clean shutdown needs no WAL replay on reboot and the pool's charge
	// drains before the exit gauge. Closing the primary twice is harmless.
	closers := []func() error{db.Close}
	for _, sdb := range slices {
		closers = append(closers, sdb.Close)
	}
	return mode{
		cfg:    server.Config{DB: db, Slices: slices, Info: fmt.Sprintf("bufferdbd sf=%g", scale)},
		health: func() (string, string) { return "pass", "" },
		// The slices share one memory tracker: the primary's count is the node's.
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
