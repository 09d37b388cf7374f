package dist

import (
	"fmt"
	"time"

	"bufferdb/internal/client"
	"bufferdb/internal/exec"
	"bufferdb/internal/storage"
)

// remoteScan is an exec.Operator that streams one leg of a distributed
// statement — one hash slice's share, or a replicated-only query whole —
// from whichever candidate node is healthy. Under a scatter it is the leaf
// the coordinator's Exchange gathers: each exchange worker drives one
// remoteScan on its own goroutine, so slices stream concurrently while the
// merge consumes them in slice order. A one-leg plan runs it bare.
//
// Availability: Open routes the leg through the breakers to a healthy
// node; a transport failure at stream start or mid-stream fails the leg
// over to the next candidate with capped exponential backoff. Legs are
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
	co   *Coordinator
	plan *distPlan
	leg  leg
	opts []client.Option // the caller's options plus the leg's slice selector

	rows    *client.Rows
	node    int   // node currently serving the leg
	probe   bool  // this stream is its breaker's half-open probe
	emitted int64 // rows this leg already handed to the merge
	opened  time.Time
	first   bool // first row not yet seen (health latency)
}

// newRemoteScan builds one leg of p. The slice selector goes last, so it
// survives a WithQueryOpts in the caller's set.
func newRemoteScan(co *Coordinator, p *distPlan, l leg, opts []client.Option) *remoteScan {
	opts = append(opts[:len(opts):len(opts)], client.WithSlice(co.address(l.slice)))
	return &remoteScan{co: co, plan: p, leg: l, opts: opts}
}

// Open routes the leg to a healthy node and starts its stream.
func (r *remoteScan) Open(ctx *exec.Context) error {
	r.opened = time.Now()
	r.first = true
	r.emitted = 0
	return r.connect(ctx, -1)
}

// connect starts the leg's stream on a healthy candidate, skipping the rows
// already emitted, through the coordinator's one failover loop. exclude is
// a node that just failed mid-stream (-1 for none).
func (r *remoteScan) connect(ctx *exec.Context, exclude int) error {
	node, probe, err := r.co.reach(ctx.Ctx, r.leg, exclude, func(node int) error {
		metricShardScans(r.co.cfg.Shards[node]).Inc()
		rows, err := r.co.shards[node].Query(ctx.Ctx, r.plan.shardSQL, r.opts...)
		if err != nil {
			return err
		}
		// The leg's rows go to the merge exactly as decoded, so its shape
		// is settled here, once, against the header — which also catches
		// a node that answers zero rows of the wrong arity.
		if got, want := len(rows.Columns()), len(r.plan.shardSchema); got != want {
			err = fmt.Errorf("dist: shard stream has %d columns, coordinator expected %d", got, want)
		} else {
			err = r.replay(rows)
		}
		if err != nil {
			_ = rows.Close()
			return err
		}
		r.rows = rows
		return nil
	})
	if err != nil {
		return err
	}
	r.node, r.probe = node, probe
	return nil
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
				if ferr := r.failover(ctx, err); ferr != nil {
					return nil, ferr
				}
				continue
			}
			return nil, r.co.nodeErr(r.leg.slice, r.node, err)
		}
		if r.first {
			r.first = false
			metricShardFirstRow(r.co.cfg.Shards[r.node]).Observe(time.Since(r.opened).Seconds())
		}
		r.emitted++
		return r.rows.Values(), nil
	}
}

// failover moves a leg that lost its node mid-stream to another candidate.
// Replayable legs (or legs that have emitted nothing) reconnect and skip
// the rows already merged; a non-replayable leg with emitted rows escalates
// to a full scatter restart via rescatterError.
func (r *remoteScan) failover(ctx *exec.Context, cause error) error {
	failed := r.node
	r.co.breakerFailure(failed, r.probe)
	metricFailovers(r.co.cfg.Shards[failed]).Inc()
	_ = r.rows.Close()
	r.rows = nil
	if !r.plan.replayable && r.emitted > 0 {
		return &rescatterError{cause: r.co.nodeErr(r.leg.slice, failed, cause)}
	}
	if err := r.connect(ctx, failed); err != nil {
		return err
	}
	metricLegReplays(r.co.cfg.Shards[r.node]).Inc()
	return nil
}

// replay advances a freshly started stream past the rows the leg already
// emitted. Only replayable legs replay a non-empty prefix, and their
// streams are deterministic, so the skipped rows are byte-identical to
// what the merge consumed.
func (r *remoteScan) replay(rows *client.Rows) error {
	for skipped := int64(0); skipped < r.emitted; skipped++ {
		if !rows.Next() {
			if err := rows.Err(); err != nil {
				return err
			}
			return fmt.Errorf("dist: replayed stream ended after %d of %d already-emitted rows", skipped, r.emitted)
		}
	}
	return nil
}

// Close tears the leg's stream down, canceling it server-side when it is
// still mid-stream.
func (r *remoteScan) Close(ctx *exec.Context) error {
	if r.rows == nil {
		return nil
	}
	err := r.rows.Close()
	r.rows = nil
	metricShardLatency(r.co.cfg.Shards[r.node]).Observe(time.Since(r.opened).Seconds())
	return err
}

func (r *remoteScan) Schema() storage.Schema    { return r.plan.shardSchema }
func (r *remoteScan) Children() []exec.Operator { return nil }
func (r *remoteScan) Name() string              { return "RemoteScan" }
