package dist

import (
	"context"
	"fmt"
	"sync"
	"time"

	"bufferdb/internal/client"
	"bufferdb/internal/codemodel"
	"bufferdb/internal/exec"
	"bufferdb/internal/storage"
)

// Failover backoff between successive replica attempts of one leg: capped
// exponential, so a flapping fleet is not hammered but a clean kill -9
// fails over in milliseconds.
const (
	failoverBackoff    = 2 * time.Millisecond
	failoverMaxBackoff = 250 * time.Millisecond
)

// remoteScan is an exec.Operator that streams one hash slice's share of a
// scattered statement from whichever replica is healthy. It is the leaf the
// coordinator's Exchange gathers: each exchange worker drives one
// remoteScan on its own goroutine, so slices stream concurrently while the
// merge consumes them in slice order.
//
// Availability: Open routes the leg through the breakers to a healthy
// replica; a transport failure at stream start or mid-stream fails the leg
// over to the next replica with capped exponential backoff. Legs are
// side-effect-free, so replay is always safe; replayable legs additionally
// have deterministic streams, so a mid-stream failover re-issues the leg
// and skips the rows already emitted. A non-replayable leg that already
// emitted rows surfaces a rescatterError instead, and the coordinator
// cursor restarts the whole scatter (safe while nothing surfaced past the
// blocking merge above such legs).
//
// Cancellation flows through the exec context's Ctx: the client cursor's
// watcher turns it into a Cancel frame, the shard frees its admission slot
// and tracked memory, and the blocked read returns. This is what lets the
// coordinator tear down sibling streams after one leg fails for good.
type remoteScan struct {
	co         *Coordinator
	slice      int
	sql        string
	opts       []client.Option
	schema     storage.Schema
	replayable bool

	rows    *client.Rows
	node    int   // node currently serving the leg
	probe   bool  // this stream is its breaker's half-open probe
	emitted int64 // rows this leg already handed to the merge
	hedgeWG sync.WaitGroup
	opened  time.Time
	first   bool // first row not yet seen (health latency)
}

func newRemoteScan(co *Coordinator, slice int, sqlText string, opts []client.Option, schema storage.Schema, replayable bool) *remoteScan {
	return &remoteScan{co: co, slice: slice, sql: sqlText, opts: opts, schema: schema, replayable: replayable}
}

// Open routes the leg to a healthy replica and starts its stream.
func (r *remoteScan) Open(ctx *exec.Context) error {
	r.opened = time.Now()
	r.first = true
	r.emitted = 0
	return r.connect(ctx, -1)
}

// connect starts the leg's stream on a healthy replica, failing over
// across replicas with capped exponential backoff. exclude is a node that
// just failed mid-stream (-1 for none); nodes that fail during this call
// join the exclusion set, so one pass visits each replica at most once.
func (r *remoteScan) connect(ctx *exec.Context, exclude int) error {
	tried := map[int]bool{}
	if exclude >= 0 {
		tried[exclude] = true
	}
	backoff := failoverBackoff
	var lastErr error
	lastNode := exclude
	for {
		node, probe, ok := r.co.route(r.slice, tried)
		if !ok {
			if lastErr == nil {
				lastErr = fmt.Errorf("dist: every replica of slice %d has an open circuit breaker", r.slice)
			}
			if lastNode < 0 {
				lastNode = r.slice
			}
			return r.co.nodeErr(r.slice, lastNode, lastErr)
		}
		rows, err := r.startNode(ctx, node)
		if err == nil {
			r.co.breakerSuccess(node, probe)
			// The leg's rows go to the merge exactly as decoded, so its shape
			// is settled here, once, against the header — which also catches
			// a replica that answers zero rows of the wrong arity.
			if got := len(rows.Columns()); got != len(r.schema) {
				_ = rows.Close()
				return r.co.nodeErr(r.slice, node, fmt.Errorf("dist: shard stream has %d columns, coordinator expected %d", got, len(r.schema)))
			}
			r.rows, r.node, r.probe = rows, node, probe
			return nil
		}
		if !client.IsTransport(err) || ctx.Ctx.Err() != nil {
			// The node answered (or we were canceled): not a node-health
			// event, and not worth a replica retry.
			r.co.breakerSuccess(node, probe)
			return r.co.nodeErr(r.slice, node, err)
		}
		r.co.breakerFailure(node, probe)
		metricFailovers(r.co.cfg.Shards[node]).Inc()
		tried[node] = true
		lastErr, lastNode = err, node
		if !sleepCtx(ctx.Ctx, backoff) {
			return r.co.nodeErr(r.slice, node, ctx.Ctx.Err())
		}
		if backoff *= 2; backoff > failoverMaxBackoff {
			backoff = failoverMaxBackoff
		}
	}
}

// legOpts is the option set shipped to one node: the caller's options plus
// slice addressing when the fleet is replicated (appended last, so it
// survives a WithQueryOpts in the caller's set).
func (r *remoteScan) legOpts() []client.Option {
	if r.co.rf <= 1 {
		return r.opts
	}
	return append(append([]client.Option{}, r.opts...), client.WithSlice(r.slice))
}

// startNode opens the leg's stream on one node, optionally hedged: if the
// node has not answered within HedgeDelay a second attempt goes out, and
// whichever stream opens first wins. The loser is canceled IMMEDIATELY and
// drained on its own goroutine — its head read aborts on the canceled
// context, so a wedged node cannot pin the pooled connection past the
// query (Close joins the drain).
func (r *remoteScan) startNode(ctx *exec.Context, node int) (*client.Rows, error) {
	cl := r.co.shards[node]
	addr := r.co.cfg.Shards[node]
	metricShardScans(addr).Inc()
	opts := r.legOpts()

	if r.co.cfg.HedgeDelay <= 0 {
		return cl.Query(ctx.Ctx, r.sql, opts...)
	}

	type attempt struct {
		rows *client.Rows
		err  error
	}
	type inflight struct {
		cancel context.CancelFunc
		ch     chan attempt
	}
	launch := func() *inflight {
		actx, cancel := context.WithCancel(ctx.Ctx)
		inf := &inflight{cancel: cancel, ch: make(chan attempt, 1)}
		go func() {
			rows, err := cl.Query(actx, r.sql, opts...)
			inf.ch <- attempt{rows, err}
		}()
		return inf
	}
	// abandon cancels a still-outstanding attempt and drains it off the hot
	// path; Close waits for the drain, so no stream leaks past the query.
	abandon := func(inf *inflight) {
		inf.cancel()
		r.hedgeWG.Add(1)
		go func() {
			defer r.hedgeWG.Done()
			if res := <-inf.ch; res.err == nil {
				_ = res.rows.Close()
			}
		}()
	}

	first := launch()
	timer := time.NewTimer(r.co.cfg.HedgeDelay)
	defer timer.Stop()
	select {
	case res := <-first.ch:
		if res.err != nil {
			first.cancel()
		}
		return res.rows, res.err
	case <-timer.C:
	}

	metricHedged(addr).Inc()
	second := launch()
	var win attempt
	var winInf, loser *inflight
	select {
	case res := <-first.ch:
		win, winInf, loser = res, first, second
	case res := <-second.ch:
		win, winInf, loser = res, second, first
	}
	if win.err == nil {
		abandon(loser)
		return win.rows, nil
	}
	// The settled attempt failed; fall back to the one still in flight.
	winInf.cancel()
	res := <-loser.ch
	if res.err == nil {
		return res.rows, nil
	}
	loser.cancel()
	return nil, win.err
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

// Next implements Operator: the leg's row is the client cursor's typed row,
// a sub-slice of its batch arena, handed to the merge as is. The arena is
// never rewritten, so the merge may hold the row as long as it likes (a row
// it retains pins its whole batch, at most BatchRows × columns values,
// uncharged). A mid-stream transport loss fails the leg over.
func (r *remoteScan) Next(ctx *exec.Context) (storage.Row, error) {
	for {
		if err := ctx.Canceled(); err != nil {
			return nil, err
		}
		if !r.rows.Next() {
			err := r.rows.Err()
			if err == nil {
				return nil, nil
			}
			if client.IsTransport(err) && ctx.Ctx.Err() == nil {
				r.co.breakerFailure(r.node, r.probe)
				metricFailovers(r.co.cfg.Shards[r.node]).Inc()
				if ferr := r.failover(ctx, err); ferr != nil {
					return nil, ferr
				}
				continue
			}
			return nil, r.co.nodeErr(r.slice, r.node, err)
		}
		if r.first {
			r.first = false
			metricShardFirstRow(r.co.cfg.Shards[r.node]).Observe(time.Since(r.opened).Seconds())
		}
		r.emitted++
		return r.rows.Values(), nil
	}
}

// failover moves a mid-stream leg to another replica. Replayable legs (or
// legs that have emitted nothing) reconnect and skip the rows already
// merged; a non-replayable leg with emitted rows escalates to a full
// scatter restart via rescatterError.
func (r *remoteScan) failover(ctx *exec.Context, cause error) error {
	_ = r.rows.Close()
	r.rows = nil
	failed := r.node
	if !r.replayable && r.emitted > 0 {
		return &rescatterError{cause: r.co.nodeErr(r.slice, failed, cause)}
	}
	exclude := failed
	for {
		if err := r.connect(ctx, exclude); err != nil {
			return err
		}
		replayErr := r.replay()
		if replayErr == nil {
			metricLegReplays(r.co.cfg.Shards[r.node]).Inc()
			return nil
		}
		if client.IsTransport(replayErr) && ctx.Ctx.Err() == nil {
			// Lost the replacement replica during replay too; exclude it
			// and keep going — the breakers bound how long this can loop.
			r.co.breakerFailure(r.node, r.probe)
			_ = r.rows.Close()
			r.rows = nil
			exclude = r.node
			continue
		}
		return r.co.nodeErr(r.slice, r.node, replayErr)
	}
}

// replay advances a freshly reconnected leg past the rows it already
// emitted. The stream is deterministic (replayable legs only), so the
// skipped prefix is byte-identical to what the merge consumed.
func (r *remoteScan) replay() error {
	for skipped := int64(0); skipped < r.emitted; skipped++ {
		if !r.rows.Next() {
			if err := r.rows.Err(); err != nil {
				return err
			}
			return fmt.Errorf("dist: replica stream of slice %d ended after %d rows while replaying %d already-emitted rows",
				r.slice, skipped, r.emitted)
		}
	}
	return nil
}

// Close tears the slice stream down (canceling it server-side when it is
// still mid-stream) and waits for any hedge loser to finish draining.
func (r *remoteScan) Close(ctx *exec.Context) error {
	var err error
	if r.rows != nil {
		err = r.rows.Close()
		r.rows = nil
		metricShardLatency(r.co.cfg.Shards[r.node]).Observe(time.Since(r.opened).Seconds())
	}
	r.hedgeWG.Wait()
	return err
}

func (r *remoteScan) Schema() storage.Schema    { return r.schema }
func (r *remoteScan) Children() []exec.Operator { return nil }
func (r *remoteScan) Name() string              { return "RemoteScan" }
func (r *remoteScan) Module() *codemodel.Module { return nil }
func (r *remoteScan) Blocking() bool            { return false }
