package dist

import (
	"context"
	"time"

	"bufferdb/internal/client"
	"bufferdb/internal/server"
	"bufferdb/internal/wire"
)

// The coordinator is a server.Backend: internal/server's session loop
// serves it with the same wire protocol bufferdbd shards speak, so the
// standard client — and therefore the CLI — talks to a sharded deployment
// exactly as it talks to one node. It brings no plan cache and no result
// cache: the plans worth keeping are the shards' own, in each shard
// database's plan cache (DESIGN.md §21), and a cached result would need
// write epochs the coordinator cannot see — shards accept writes directly.
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
	for slice, l := range c.slices {
		infos, err := c.sliceTables(ctx, l)
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

// sliceTables reads one slice's catalog from any healthy replica, through
// the same failover loop and breakers query legs use.
func (c *Coordinator) sliceTables(ctx context.Context, l leg) (infos []wire.TableInfo, err error) {
	_, _, err = c.reach(ctx, l, -1, func(node int) (err error) {
		infos, err = c.shards[node].TablesOf(ctx, l.slice)
		return err
	})
	return infos, err
}
