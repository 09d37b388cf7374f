package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"path/filepath"
	"runtime"
	"time"

	"bufferdb"
	"bufferdb/internal/client"
	"bufferdb/internal/codemodel"
	"bufferdb/internal/core"
	"bufferdb/internal/cpusim"
	"bufferdb/internal/exec"
	"bufferdb/internal/pager"
	"bufferdb/internal/plan"
	"bufferdb/internal/reuse"
	"bufferdb/internal/server"
	"bufferdb/internal/sql"
	"bufferdb/internal/storage"
	"bufferdb/internal/tpch"
	"bufferdb/internal/wire"
)

// perLayer are the single-layer metrics of a traced run. Timings are means
// per sampled op; a layer the workload does not have reads 0.
var perLayer = []metricDef{
	{name: "sql.parse_us", unit: "us", better: "lower"},
	{name: "sql.analyze_us", unit: "us", better: "lower"},
	{name: "plan.refine_us", unit: "us", better: "lower"},
	{name: "plan.reuse_us", unit: "us", better: "lower"},
	{name: "plan.compile_us", unit: "us", better: "lower"},
	{name: "plan.buffers_inserted", unit: "count", better: "higher"},
	{name: "exec.run_us", unit: "us", better: "lower"},
	{name: "exec.rows_per_s", unit: "1/s", better: "higher"},
	{name: "exec.alloc_kb_per_op", unit: "KB", better: "lower"},
	{name: "exec.allocs_per_op", unit: "count", better: "lower"},
	{name: "vec.run_us", unit: "us", better: "lower"},
	{name: "push.run_us", unit: "us", better: "lower"},
	{name: "wire.encode_us", unit: "us", better: "lower"},
	{name: "wire.decode_us", unit: "us", better: "lower"},
	{name: "wire.bytes_per_op", unit: "B", better: "lower"},
	{name: "bufferdb.query_us", unit: "us", better: "lower"},
	{name: "server.overhead_us", unit: "us", better: "lower"},
	{name: "server.result_hit_us", unit: "us", better: "lower"},
	{name: "server.stmt_hit_us", unit: "us", better: "lower"},
	{name: "reuse.hit_ratio", unit: "ratio", better: "higher"},
	{name: "reuse.evictions_per_op", unit: "count", better: "lower"},
	{name: "reuse.bytes_mb", unit: "MB", better: "lower"},
	{name: "server.result_cache_hit_ratio", unit: "ratio", better: "higher"},
	{name: "pager.scan_us_per_page", unit: "us", better: "lower"},
	{name: "pager.insert_us", unit: "us", better: "lower"},
	{name: "pager.recovery_s", unit: "s", better: "lower"},
	{name: "pager.hit_ratio", unit: "ratio", better: "higher"},
	{name: "pager.misses_per_op", unit: "count", better: "lower"},
	{name: "pager.evictions_per_op", unit: "count", better: "lower"},
	{name: "pager.dirty_writebacks_per_op", unit: "count", better: "lower"},
	{name: "pager.wal_bytes_per_row", unit: "B", better: "lower"},
	{name: "pager.disk_bytes_per_user_byte", unit: "ratio", better: "lower"},
	{name: "dist.coord_cpu_ms_per_op", unit: "ms", better: "lower"},
	{name: "dist.shard_cpu_ms_per_op", unit: "ms", better: "lower"},
	{name: "dist.hop_overhead_us", unit: "us", better: "lower"},
	{name: "dist.gather_rows_per_s", unit: "1/s", better: "higher"},
	{name: "dist.legs_per_op", unit: "count", better: "lower"},
	{name: "dist.failovers", unit: "count", better: "lower"},
	{name: "dist.rescatters", unit: "count", better: "lower"},
	{name: "tpch.generate_s", unit: "s", better: "lower"},
	{name: "cpusim.q1_l1i_misses_original", unit: "count", better: "lower"},
	{name: "cpusim.q1_l1i_misses_buffered", unit: "count", better: "lower"},
	{name: "cpusim.q1_cycles_original", unit: "count", better: "lower"},
	{name: "cpusim.q1_cycles_buffered", unit: "count", better: "lower"},
	{name: "host.calib_ms", unit: "ms", better: "lower"},
	{name: "trace.overhead_pct", unit: "%", better: "lower"},
}

// paperQuery1 is the paper's Figure 3 query, the one its headline L1I
// numbers are about.
const paperQuery1 = `
SELECT SUM(l_extendedprice * (1 - l_discount) * (1 + l_tax)) AS sum_charge,
       AVG(l_quantity) AS avg_qty,
       COUNT(*) AS count_order
FROM lineitem
WHERE l_shipdate <= DATE '1998-09-02'`

// layerEnv is the in-process copy of what a daemon holds, opened up so the
// harness can call each module directly: a catalog for the raw pipeline
// (parse → analyze → refine → reuse → compile → run), an embedded DB, and a
// loopback server over that DB.
type layerEnv struct {
	cat       *storage.Catalog
	cm        *codemodel.Catalog
	threshold float64
	// caches holds one reuse cache per engine, so each engine meets the cache
	// state a daemon running only that engine would; empty when the
	// workload's daemon runs without one.
	caches map[plan.Engine]*reuse.Cache
	store  *pager.Store // nil unless the workload is paged
	// db is the embedded DB; srv serves a second, identical DB, so that
	// neither path finds the other's intermediates in its reuse cache.
	db  *bufferdb.DB
	srv *server.Server
	cl  *client.Client
	tr  *tracer
	// userBytes is the logical size of the generated data, and lineitemRow
	// the mean size of one lineitem row.
	userBytes   int64
	lineitemRow float64
	generateS   float64
	closers     []func()
}

func (e *layerEnv) close() {
	for i := len(e.closers) - 1; i >= 0; i-- {
		e.closers[i]()
	}
}

// openLayerEnv builds the in-process stack with the same data, cache flags
// and storage tier as the workload's daemon.
func openLayerEnv(w workload, root string) (*layerEnv, error) {
	e := &layerEnv{cm: codemodel.NewCatalog(), tr: newTracer()}
	start := time.Now()
	gen, err := tpch.Generate(tpch.Config{ScaleFactor: scaleFactor})
	if err != nil {
		return nil, err
	}
	e.generateS = time.Since(start).Seconds()
	for _, t := range gen.Tables() {
		var bytes int64
		for _, r := range t.Rows() {
			for _, v := range r {
				// Eight bytes for a number or date, its length for a string:
				// the data, not the engine's 40-byte in-memory value.
				if v.Kind == storage.TypeString {
					bytes += int64(len(v.S))
				} else {
					bytes += 8
				}
			}
		}
		e.userBytes += bytes
		if t.Name() == "lineitem" {
			e.lineitemRow = float64(bytes) / float64(t.NumRows())
		}
	}
	cal, err := core.CalibrateThreshold(e.cm, cpusim.DefaultConfig(), 4096, []int{0, 16, 64, 256, 1024, 4096}, 0)
	if err != nil {
		return nil, err
	}
	e.threshold = cal.Threshold

	opts := bufferdb.Options{ReuseCache: w.fleet.caches}
	e.cat = gen
	if w.fleet.paged {
		// The raw pipeline scans its own paged store; the embedded DB loads a
		// second directory so neither sees the other's inserts.
		dir, err := scratchDir(root, "layers-")
		if err != nil {
			return nil, err
		}
		e.closers = append(e.closers, func() { removeScratch(dir) })
		if e.store, err = pager.Open(filepath.Join(dir, "raw"), pager.Options{PoolBytes: 2 << 20}); err != nil {
			e.close()
			return nil, err
		}
		e.closers = append(e.closers, func() { e.store.Close() })
		for _, t := range gen.Tables() {
			if _, err := e.store.CreateTable(t.Name(), t.Schema()); err != nil {
				e.close()
				return nil, err
			}
			if err := e.store.BulkLoad(t.Name(), t.Rows()); err != nil {
				e.close()
				return nil, err
			}
		}
		if err := e.store.Checkpoint(); err != nil {
			e.close()
			return nil, err
		}
		e.cat = storage.NewCatalog()
		for _, t := range e.store.Tables() {
			e.cat.MustAdd(t)
		}
		opts.DataDir, opts.PoolBytes = filepath.Join(dir, "embedded"), 2<<20
	}
	if w.fleet.caches {
		e.caches = map[plan.Engine]*reuse.Cache{}
		for _, engine := range plan.Engines() {
			c := reuse.New(bufferdb.DefaultReuseMaxBytes, reuse.NewEpochs(), nil)
			e.caches[engine] = c
			e.closers = append(e.closers, c.Close)
		}
	}

	if e.db, err = bufferdb.OpenTPCH(scaleFactor, opts); err != nil {
		e.close()
		return nil, err
	}
	e.closers = append(e.closers, func() { e.db.Close() })
	if opts.DataDir != "" {
		opts.DataDir = filepath.Join(filepath.Dir(opts.DataDir), "served")
	}
	srvDB, err := bufferdb.OpenTPCH(scaleFactor, opts)
	if err != nil {
		e.close()
		return nil, err
	}
	e.closers = append(e.closers, func() { srvDB.Close() })
	cfg := server.Config{DB: srvDB}
	if w.fleet.caches {
		cfg.ResultCacheBytes = 8 << 20
	}
	srv, err := server.New(cfg)
	if err != nil {
		e.close()
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		e.close()
		return nil, err
	}
	served := make(chan struct{})
	go func() {
		_ = srv.Serve(l) // returns ErrServerClosed at shutdown
		close(served)
	}()
	e.closers = append(e.closers, func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx) // best effort: the process is about to drop the server
		<-served
	})
	if e.cl, err = client.Dial(l.Addr().String(), client.Config{MaxConns: 1}); err != nil {
		e.close()
		return nil, err
	}
	e.closers = append(e.closers, func() { e.cl.Close() })
	return e, nil
}

// native converts an engine value to what a client cursor returns, exactly
// as the facade does.
func native(v storage.Value) any {
	switch v.Kind {
	case storage.TypeNull:
		return nil
	case storage.TypeBool:
		return v.Bool()
	case storage.TypeInt64:
		return v.I
	case storage.TypeFloat64:
		return v.F
	case storage.TypeString:
		return v.S
	case storage.TypeDate:
		return time.Unix(v.I*86400, 0).UTC()
	default:
		return v.String()
	}
}

// layerSums accumulates what the spans do not hold.
type layerSums struct {
	ops         int
	buffers     int
	rowsScanned float64
	allocBytes  uint64
	allocs      uint64
	wireBytes   int
}

// planFor runs the front end for one SELECT under spans and returns the
// refined plan, before reuse is applied.
func (e *layerEnv) planFor(id, root int, text string) (*plan.Node, error) {
	s := e.tr.begin(id, root, "sql.parse")
	stmt, err := sql.Parse(text)
	e.tr.end(s)
	if err != nil {
		return nil, err
	}
	s = e.tr.begin(id, root, "sql.analyze")
	p, err := sql.Analyze(stmt, e.cat, sql.Options{})
	e.tr.end(s)
	if err != nil {
		return nil, err
	}
	s = e.tr.begin(id, root, "plan.refine")
	p, _, err = plan.Refine(p, e.cm, plan.RefineOptions{CardinalityThreshold: e.threshold})
	e.tr.end(s)
	return p, err
}

// runEngine compiles a private copy of the refined plan for one engine,
// applying reuse as the facade would, and drains it under a span named
// after the engine. Only the default engine's front-end spans are recorded.
func (e *layerEnv) runEngine(id, root int, refined *plan.Node, engine plan.Engine, spanName string, sums *layerSums) (answer, [][]any, error) {
	p := plan.Clone(refined)
	first := engine == plan.EngineVolcano
	var releases []func()
	if cache := e.caches[engine]; cache != nil {
		s := -1
		if first {
			s = e.tr.begin(id, root, "plan.reuse")
		}
		plan.Fingerprint(p, cache.Epochs())
		p, releases = plan.ApplyReuse(p, cache)
		if first {
			e.tr.end(s)
		}
	}
	defer func() {
		for _, rel := range releases {
			rel()
		}
	}()
	s := -1
	if first {
		s = e.tr.begin(id, root, "plan.compile")
	}
	op, err := plan.Compile(p, nil, engine)
	if first {
		e.tr.end(s)
	}
	if err != nil {
		return answer{}, nil, err
	}
	if first {
		plan.Walk(p, func(n *plan.Node) {
			if len(n.Children) == 0 && n.Table != nil {
				sums.rowsScanned += float64(n.Table.NumRows())
			}
		})
	}

	var m0, m1 runtime.MemStats
	if first {
		runtime.ReadMemStats(&m0)
	}
	ectx := &exec.Context{Catalog: e.cat, Ctx: context.Background()}
	var rows []storage.Row
	s = e.tr.begin(id, root, spanName)
	err = exec.CallOpen(ectx, op)
	for err == nil {
		var r storage.Row
		if r, err = exec.CallNext(ectx, op); r == nil {
			break
		}
		rows = append(rows, r)
	}
	if cerr := exec.CallClose(ectx, op); err == nil {
		err = cerr
	}
	e.tr.end(s)
	if err != nil {
		return answer{}, nil, err
	}
	if first {
		runtime.ReadMemStats(&m1)
		sums.allocBytes += m1.TotalAlloc - m0.TotalAlloc
		sums.allocs += m1.Mallocs - m0.Mallocs
	}
	var a answer
	out := make([][]any, len(rows))
	for i, r := range rows {
		vals := make([]any, len(r))
		for j, v := range r {
			vals[j] = native(v)
		}
		out[i] = vals
		a.rows++
		a.sum += hashRow(vals)
	}
	return a, out, nil
}

// wireRoundTrip encodes a result as the server frames it (row batches of
// 256) and decodes it as the client does, each under its span.
func (e *layerEnv) wireRoundTrip(id, root int, rows [][]any, sums *layerSums) error {
	var buf bytes.Buffer
	s := e.tr.begin(id, root, "wire.encode")
	var b wire.Builder
	for at := 0; at < len(rows); at += 256 {
		end := min(at+256, len(rows))
		b.Reset()
		b.U32(uint32(end - at))
		for _, row := range rows[at:end] {
			for _, v := range row {
				if err := b.Value(v); err != nil {
					return err
				}
			}
		}
		if err := wire.WriteFrame(&buf, wire.TRowBatch, b.Bytes()); err != nil {
			return err
		}
	}
	e.tr.end(s)
	sums.wireBytes += buf.Len()

	s = e.tr.begin(id, root, "wire.decode")
	defer e.tr.end(s)
	for buf.Len() > 0 {
		_, payload, err := wire.ReadFrame(&buf)
		if err != nil {
			return err
		}
		rd := wire.NewReader(payload)
		for n := int(rd.U32()); n > 0; n-- {
			for range rows[0] {
				rd.Value()
			}
		}
		if err := rd.Err(); err != nil {
			return err
		}
	}
	return nil
}

// replay runs one sampled op through every layer and returns the answer the
// embedded DB gave. Every path — the three engines, the embedded DB and the
// loopback server — must give the same answer.
func (e *layerEnv) replay(id int, o op, sums *layerSums) (answer, error) {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	root := e.tr.begin(id, -1, "op")
	defer e.tr.end(root)
	sums.ops++
	text := o.sql

	var want answer
	if o.kind == kindInsert {
		s := e.tr.begin(id, root, "sql.parse")
		stmt, err := sql.ParseInsert(text)
		e.tr.end(s)
		if err != nil {
			return want, err
		}
		s = e.tr.begin(id, root, "sql.analyze")
		table, rows, err := sql.AnalyzeInsert(e.cat, stmt)
		e.tr.end(s)
		if err != nil {
			return want, err
		}
		s = e.tr.begin(id, root, "pager.insert")
		err = e.store.Insert(table, rows)
		e.tr.end(s)
		if err != nil {
			return want, err
		}
		want = answer{rows: 1, sum: hashRow([]any{int64(len(rows))})}
	} else {
		refined, err := e.planFor(id, root, text)
		if err != nil {
			return want, err
		}
		sums.buffers += plan.CountKind(refined, plan.KindBuffer)
		var rows [][]any
		if want, rows, err = e.runEngine(id, root, refined, plan.EngineVolcano, "exec.run", sums); err != nil {
			return want, err
		}
		for _, alt := range []struct {
			engine plan.Engine
			span   string
		}{{plan.EngineVec, "vec.run"}, {plan.EnginePush, "push.run"}} {
			got, _, err := e.runEngine(id, root, refined, alt.engine, alt.span, sums)
			if err != nil {
				return want, err
			}
			if got != want {
				return want, fmt.Errorf("%s answered %+v, volcano %+v", alt.span, got, want)
			}
		}
		if len(rows) > 0 {
			if err := e.wireRoundTrip(id, root, rows, sums); err != nil {
				return want, err
			}
		}
	}

	// The embedded DB and the loopback server take turns going first, so
	// that whatever favours the second (warm CPU caches) cancels in
	// server.overhead_us.
	embedded := func() (answer, error) {
		s := e.tr.begin(id, root, "bufferdb.query")
		defer e.tr.end(s)
		return embeddedQuery(ctx, e.db, text)
	}
	served := func() (answer, error) {
		s := e.tr.begin(id, root, "server.op")
		defer e.tr.end(s)
		return runQuery(ctx, func() (*client.Rows, error) { return e.cl.Query(ctx, text, client.WithoutResultCache()) }, nil)
	}
	paths := []func() (answer, error){embedded, served}
	if sums.ops%2 == 0 {
		paths[0], paths[1] = served, embedded
	}
	for _, path := range paths {
		got, err := path()
		if err != nil {
			return want, err
		}
		if got != want {
			return want, fmt.Errorf("embedded DB or loopback server answered %+v, raw pipeline %+v", got, want)
		}
	}
	return want, nil
}

// embeddedQuery drains DB.QueryStream into an answer.
func embeddedQuery(ctx context.Context, db *bufferdb.DB, text string) (answer, error) {
	rows, err := db.QueryStream(ctx, text)
	if err != nil {
		return answer{}, err
	}
	var a answer
	vals := make([]any, len(rows.Columns()))
	ptrs := make([]any, len(vals))
	for i := range vals {
		ptrs[i] = &vals[i]
	}
	for rows.Next() {
		if err := rows.Scan(ptrs...); err != nil {
			rows.Close()
			return a, err
		}
		a.rows++
		a.sum += hashRow(vals)
	}
	err = rows.Err()
	if cerr := rows.Close(); err == nil {
		err = cerr
	}
	return a, err
}
