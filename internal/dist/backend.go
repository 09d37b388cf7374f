package dist

import (
	"context"
	"fmt"
	"time"

	"bufferdb/internal/client"
	"bufferdb/internal/server"
	"bufferdb/internal/wire"
)

// The coordinator is a server.Backend: internal/server's session loop
// serves it with the same wire protocol bufferdbd shards speak, so the
// standard client — and therefore the CLI — talks to a sharded deployment
// exactly as it talks to one node. It brings no statement LRU and no
// result cache: the plans worth keeping live in the shards' own statement
// caches, and a cached result would need write epochs the coordinator
// cannot see — shards accept writes directly.
var _ server.Backend = (*Coordinator)(nil)

// QueryStream plans and starts one distributed statement, forwarding the
// client's wire options to the shards wholesale.
func (c *Coordinator) QueryStream(ctx context.Context, sqlText string, opts wire.QueryOpts) (server.Cursor, error) {
	rows, err := c.Query(ctx, sqlText, client.WithQueryOpts(opts))
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// Prepare plans now, so unparsable or non-distributable statements fail at
// Prepare as they do on a single node, and keeps only the text: each
// execution re-plans (the scatter plan is cheap; the expensive state lives
// in the shards' statement caches).
func (c *Coordinator) Prepare(sqlText string, opts wire.QueryOpts) (server.Prepared, error) {
	if _, err := c.plan(sqlText); err != nil {
		return nil, err
	}
	return preparedText{c, sqlText, opts}, nil
}

type preparedText struct {
	co   *Coordinator
	sql  string
	opts wire.QueryOpts
}

func (p preparedText) QueryStream(ctx context.Context) (server.Cursor, error) {
	return p.co.QueryStream(ctx, p.sql, p.opts)
}

// Tables reports the deployment-wide catalog, whatever slice was asked for
// (slices are the shards' vocabulary, not the coordinator's): sharded
// tables sum their row counts exactly once per slice, replicated tables
// report one copy's count. On a replicated fleet each slice is read from
// any reachable replica, so the catalog stays available through a node
// loss just like queries do.
func (c *Coordinator) Tables(ctx context.Context, _ int32) ([]wire.TableInfo, error) {
	ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()

	var out []wire.TableInfo
	index := map[string]int{}
	for slice := range c.shards {
		infos, err := c.sliceTables(ctx, slice)
		if err != nil {
			return nil, err
		}
		for _, ti := range infos {
			i, seen := index[ti.Name]
			if !seen {
				i = len(out)
				index[ti.Name] = i
				out = append(out, wire.TableInfo{Name: ti.Name})
			}
			if c.smap.Sharded(ti.Name) {
				out[i].Rows += ti.Rows
			} else if slice == 0 {
				out[i].Rows = ti.Rows
			}
		}
	}
	return out, nil
}

// sliceTables reads one slice's catalog from any healthy replica. An
// unreplicated fleet keeps the legacy path (default-DB Tables on the
// slice's own node, so pre-slice servers still answer); a replicated one
// addresses the slice explicitly and fails over across replicas, feeding
// the same breakers queries do.
func (c *Coordinator) sliceTables(ctx context.Context, slice int) ([]wire.TableInfo, error) {
	if c.rf <= 1 {
		infos, err := c.shards[slice].Tables(ctx)
		if err != nil {
			return nil, c.shardErr(slice, err)
		}
		return infos, nil
	}
	tried := map[int]bool{}
	var lastErr error
	lastNode := slice
	for {
		node, probe, ok := c.route(slice, tried)
		if !ok {
			if lastErr == nil {
				lastErr = fmt.Errorf("dist: every replica of slice %d has an open circuit breaker", slice)
			}
			return nil, c.nodeErr(slice, lastNode, lastErr)
		}
		infos, err := c.shards[node].TablesOf(ctx, slice)
		if err == nil {
			c.breakerSuccess(node, probe)
			return infos, nil
		}
		if !client.IsTransport(err) || ctx.Err() != nil {
			c.breakerSuccess(node, probe)
			return nil, c.nodeErr(slice, node, err)
		}
		c.breakerFailure(node, probe)
		metricFailovers(c.cfg.Shards[node]).Inc()
		tried[node] = true
		lastErr, lastNode = err, node
	}
}
