// Package dist is bufferdb's scatter-gather tier: a coordinator that plans
// distributed queries over hash-sharded bufferdbd nodes and merges their
// partial streams locally. It is the paper's buffering discipline applied
// one level up — shards produce long runs of partial results, the
// coordinator gathers partition-ordered streams through exec.Exchange, and
// the final aggregate/sort/limit runs locally on the merged stream.
//
// Planning is source-to-source in both phases: the coordinator parses the
// query with the engine's own parser, decides distributability against the
// shard map, rewrites aggregates into shard-local partials (COUNT→SUM,
// AVG→SUM+COUNT), renders the rewritten AST back to SQL, and ships it to
// every shard over the wire protocol with the caller's deadline and memory
// budget forwarded intact. The gather is a second
// SELECT over the legs' stream, read as one table — the original select
// list over merged partials, with its ORDER BY and LIMIT — planned by the
// same analyzer that plans a single node's query. A query touching only
// replicated tables is a one-leg scatter: its original text runs on one
// node, picked round-robin, with the same failover every leg has.
//
// Failure semantics: a shard that cannot be reached or dies mid-stream
// surfaces as a *ShardError wrapping bufferdb.ErrShardUnavailable; closing
// the coordinator cursor cancels the sibling shard streams (each remote
// scan's Cancel frame frees the shard's admission slot and tracked memory).
// Engine sentinels a shard reports — busy, deadline, memory budget — pass
// through the ShardError's unwrap chain, so errors.Is works at the
// coordinator exactly as it does against one node.
package dist

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"bufferdb"
	"bufferdb/internal/client"
	"bufferdb/internal/exec"
	"bufferdb/internal/shard"
	"bufferdb/internal/storage"
	"bufferdb/internal/tpch"
	"bufferdb/internal/wire"
)

// Config configures a Coordinator. Shards is the only required field.
type Config struct {
	// Shards lists the bufferdbd shard addresses, in shard-index order:
	// Shards[i] must hold slice i-of-len(Shards) under shard.DefaultTPCH().
	// The coordinator plans against tpch.SchemaCatalog().
	Shards []string

	// MemoryLimit caps the coordinator-side tracked allocations of all
	// concurrently merging queries (exchange queues, final aggregates and
	// sorts). 0 disables the cap but keeps tracking, so TrackedBytes still
	// audits to zero when idle.
	MemoryLimit int64

	// Replication is the replication factor the fleet was loaded with:
	// slice s lives on nodes (s+r) mod N for r in [0,Replication), so every
	// node hosts Replication slices and every slice survives Replication-1
	// node losses. 0 or 1 hosts each slice on its own node alone (no
	// failover); values above len(Shards) clamp down.
	Replication int

	// BreakerThreshold is the consecutive-transport-failure count that
	// opens a node's circuit breaker. 0 selects 3; values below 1 clamp
	// to 1.
	BreakerThreshold int

	// BreakerCooldown is how long an open breaker rejects a node before
	// admitting a half-open probe. 0 selects 5s.
	BreakerCooldown time.Duration
}

// Coordinator plans and executes distributed queries over a fixed set of
// shards. Safe for concurrent use.
type Coordinator struct {
	cfg      Config
	shards   []*client.Client
	cat      *storage.Catalog
	smap     shard.Map
	mem      *exec.MemTracker
	slices   []leg         // the scatter's legs: slice s on its replicas
	breakers []*breaker    // one per node, indexed like shards
	rr       atomic.Uint64 // round-robin cursor for replicated-only legs
}

// Open connects to every shard. The dial is lazy per the client's pool —
// Open validates the configuration, not reachability; the first query
// surfaces unreachable shards as ShardErrors.
func Open(cfg Config) (*Coordinator, error) {
	if len(cfg.Shards) == 0 {
		return nil, errors.New("dist: Config.Shards is required")
	}
	threshold := cfg.BreakerThreshold
	if threshold == 0 {
		threshold = 3
	}
	c := &Coordinator{
		cfg:  cfg,
		cat:  tpch.SchemaCatalog(),
		smap: shard.DefaultTPCH(),
		mem:  exec.NewMemTracker("coordinator", cfg.MemoryLimit, nil),
	}
	rf := shard.ClampRF(cfg.Replication, len(cfg.Shards))
	for i, addr := range cfg.Shards {
		cl, err := client.Dial(addr, client.Config{})
		if err != nil {
			c.Close()
			return nil, &ShardError{Shard: i, Addr: addr, Err: err}
		}
		c.shards = append(c.shards, cl)
		c.breakers = append(c.breakers, newBreaker(threshold, cfg.BreakerCooldown))
		c.slices = append(c.slices, leg{slice: i, nodes: shard.Replicas(i, len(cfg.Shards), rf)})
	}
	return c, nil
}

// Close releases every shard pool.
func (c *Coordinator) Close() error {
	var first error
	for _, cl := range c.shards {
		if err := cl.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// TrackedBytes reports the coordinator-side bytes currently charged by
// merging queries. Idle coordinators report 0 — anything else is a leak.
func (c *Coordinator) TrackedBytes() int64 { return c.mem.Bytes() }

// Query plans and starts a distributed query. Options forward to the
// shards unchanged — per-shard deadline, memory budget, result-cache
// opt-out — while the coordinator's merge runs on the local Volcano
// pipeline.
func (c *Coordinator) Query(ctx context.Context, sqlText string, opts ...client.Option) (*Rows, error) {
	p, err := c.plan(sqlText)
	if err != nil {
		metricPlanRejected().Inc()
		return nil, err
	}
	if p.legs[0].slice < 0 {
		metricSingleShard().Inc()
	} else {
		metricScatter().Inc()
	}
	r := &Rows{co: c, plan: p, opts: opts, baseCtx: ctx}
	if err := r.start(); err != nil {
		return nil, err
	}
	return r, nil
}

// Failover backoff between successive node attempts of one leg: capped
// exponential, so a flapping fleet is not hammered but a clean kill -9
// fails over in milliseconds.
const (
	failoverBackoff    = 2 * time.Millisecond
	failoverMaxBackoff = 250 * time.Millisecond
)

// reach is the coordinator's one routing loop, shared by query legs and
// catalog reads. It walks l's candidate nodes through the breakers and
// calls attempt on each node route admits until one succeeds, backing off
// between failures. A transport failure fails over to the next candidate;
// any other error means the node answered and ends the walk. exclude is a
// node that already failed this leg (-1 for none); one walk visits each
// candidate at most once.
func (c *Coordinator) reach(ctx context.Context, l leg, exclude int, attempt func(node int) error) (node int, probe bool, err error) {
	tried := map[int]bool{}
	if exclude >= 0 {
		tried[exclude] = true
	}
	backoff := failoverBackoff
	var lastErr error
	lastNode := exclude
	for {
		node, probe, ok := c.route(l.nodes, tried)
		if !ok {
			if lastErr == nil {
				lastErr = errors.New("dist: every candidate node is already tried or behind an open circuit breaker")
			}
			if lastNode < 0 {
				lastNode = l.nodes[0]
			}
			return -1, false, c.nodeErr(l.slice, lastNode, lastErr)
		}
		err := attempt(node)
		if err == nil {
			c.breakerSuccess(node, probe)
			return node, probe, nil
		}
		if !client.IsTransport(err) || ctx.Err() != nil {
			// The node answered (or we were canceled): not a node-health
			// event, and not worth another candidate.
			c.breakerSuccess(node, probe)
			return -1, false, c.nodeErr(l.slice, node, err)
		}
		c.breakerFailure(node, probe)
		metricFailovers(c.cfg.Shards[node]).Inc()
		tried[node] = true
		lastErr, lastNode = err, node
		if !sleepCtx(ctx, backoff) {
			return -1, false, c.nodeErr(l.slice, node, ctx.Err())
		}
		backoff = min(2*backoff, failoverMaxBackoff)
	}
}

// sleepCtx sleeps d unless ctx is done first; reports whether it slept.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// route picks the candidate node to serve one leg, honoring the breakers:
// a half-open node with a free probe slot is preferred (recovery needs
// traffic to happen at all), then the first closed node in candidate
// order. tried holds nodes this leg already failed on. ok=false means
// every candidate is open or already tried — the leg is unavailable.
func (c *Coordinator) route(nodes []int, tried map[int]bool) (node int, probe, ok bool) {
	closedNode := -1
	for _, n := range nodes {
		if tried[n] {
			continue
		}
		allowed, isProbe := c.breakers[n].allow()
		if !allowed {
			continue
		}
		if isProbe {
			return n, true, true
		}
		if closedNode < 0 {
			closedNode = n
		}
	}
	if closedNode < 0 {
		return -1, false, false
	}
	return closedNode, false, true
}

// breakerSuccess records a request that proved node alive and refreshes
// the exported state gauge. A successful probe counts as a recovery.
func (c *Coordinator) breakerSuccess(node int, probe bool) {
	if probe {
		metricProbes(c.cfg.Shards[node], "recovered").Inc()
	}
	c.breakers[node].success(probe)
	metricBreakerState(c.cfg.Shards[node]).Set(float64(c.breakers[node].snapshot()))
}

// breakerFailure records a transport failure against node, counting the
// trip when this failure opened the circuit.
func (c *Coordinator) breakerFailure(node int, probe bool) {
	addr := c.cfg.Shards[node]
	if probe {
		metricProbes(addr, "failed").Inc()
	}
	if c.breakers[node].failure(probe) {
		metricBreakerTrips(addr).Inc()
	}
	metricBreakerState(addr).Set(float64(c.breakers[node].snapshot()))
}

// Health summarizes fleet availability from the breakers' point of view.
type Health struct {
	// Status is "pass" (every replica of every slice closed), "warn"
	// (every slice has a closed replica but some redundancy is lost), or
	// "fail" (some slice has no closed replica — queries over it fail).
	Status string
	// Detail names the degraded or down slices and their breaker states.
	Detail string
}

// Health reports fleet health for the /readyz sidecar. Breakers change
// state only under traffic, so a dead node degrades health after the first
// failed queries, not at the instant it dies.
func (c *Coordinator) Health() Health {
	n := len(c.shards)
	var degraded, down []string
	for s := 0; s < n; s++ {
		closed := 0
		reps := c.slices[s].nodes
		for _, node := range reps {
			if c.breakers[node].snapshot() == breakerClosed {
				closed++
			}
		}
		switch {
		case closed == 0:
			down = append(down, fmt.Sprintf("slice %d (replicas %v all open)", s, reps))
		case closed < len(reps):
			degraded = append(degraded, fmt.Sprintf("slice %d (%d/%d replicas closed)", s, closed, len(reps)))
		}
	}
	switch {
	case len(down) > 0:
		return Health{Status: "fail", Detail: strings.Join(append(down, degraded...), "; ")}
	case len(degraded) > 0:
		return Health{Status: "warn", Detail: strings.Join(degraded, "; ")}
	default:
		return Health{Status: "pass"}
	}
}

// nodeErr attributes a failure to one (slice, node) pair in its typed
// form: ShardError.Shard names the hash slice (what the query lost), Addr
// names the node that failed (where it was lost); with replication they
// differ. An unaddressed leg read the node's primary slice, so its slice is
// the node's. Transport-class failures (the shard is gone, the dial failed,
// the stream broke) wrap bufferdb.ErrShardUnavailable; a ServerError keeps
// its own sentinel chain (busy, deadline, budget) so engine errors pass
// through untranslated.
func (c *Coordinator) nodeErr(slice, node int, err error) error {
	if err == nil {
		return nil
	}
	var se *ShardError
	if errors.As(err, &se) {
		return err
	}
	if slice < 0 {
		slice = node
	}
	addr := c.cfg.Shards[node]
	metricShardErrors(addr).Inc()
	return &ShardError{Shard: slice, Addr: addr, Err: err}
}

// rescatterError asks the coordinator cursor to restart the whole scatter:
// a non-replayable leg (shard-side aggregation streams groups in
// nondeterministic order) lost its node after emitting rows, so leg-local
// replay cannot line up with what the merge already consumed. The restart
// is transparent exactly when nothing surfaced past the merge barrier —
// which the blocking merge above such legs guarantees.
type rescatterError struct {
	cause error // the *ShardError that triggered the restart
}

func (e *rescatterError) Error() string {
	return fmt.Sprintf("dist: scatter must restart: %v", e.cause)
}

func (e *rescatterError) Unwrap() error { return e.cause }

// ShardError attributes a distributed-query failure to one shard.
type ShardError struct {
	Shard int
	Addr  string
	Err   error
}

// Error renders the shard attribution and the underlying failure.
func (e *ShardError) Error() string {
	return fmt.Sprintf("dist: shard %d (%s): %v", e.Shard, e.Addr, e.Err)
}

// Unwrap exposes the underlying error — and, for transport-class failures,
// bufferdb.ErrShardUnavailable — so errors.Is classifies shard loss while
// engine sentinels (busy, deadline, memory budget) pass through.
func (e *ShardError) Unwrap() []error {
	var srv *client.ServerError
	if errors.As(e.Err, &srv) {
		switch srv.Code {
		case wire.CodeQuery, wire.CodeBusy, wire.CodeDeadline, wire.CodeOOM,
			wire.CodePanic, wire.CodeCanceled:
			// The shard is alive and reported a query-level failure: keep
			// its own unwrap chain, don't claim unavailability.
			return []error{e.Err}
		}
	}
	if errors.Is(e.Err, context.Canceled) && !errors.Is(e.Err, context.DeadlineExceeded) {
		return []error{e.Err}
	}
	return []error{e.Err, bufferdb.ErrShardUnavailable}
}
