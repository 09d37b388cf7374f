package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"bufferdb"
	"bufferdb/internal/client"
)

// traceLayers fills res.metrics with the per-layer numbers: scrape deltas of
// the served run just finished, then an in-process replay of a sample of the
// same schedule under spans.
func traceLayers(res *result, sess *session, timed runResult, before, after snapshot, recovery time.Duration, root string) error {
	w, m := sess.w, res.metrics
	ops := float64(len(timed.samples))
	front := len(after.metrics) - 1
	delta := func(daemon int, prefix string) float64 {
		return sumPrefix(after.metrics[daemon], prefix) - sumPrefix(before.metrics[daemon], prefix)
	}
	ratio := func(hits, misses float64) float64 {
		if hits+misses == 0 {
			return 0
		}
		return hits / (hits + misses)
	}

	// Scrape: the caches and the pager of the front daemon.
	m["reuse.hit_ratio"] = ratio(delta(front, "bufferdb_reuse_hits_total"), delta(front, "bufferdb_reuse_misses_total"))
	m["reuse.evictions_per_op"] = delta(front, "bufferdb_reuse_evictions_total") / ops
	m["reuse.bytes_mb"] = after.metrics[front]["bufferdb_reuse_bytes"] / (1 << 20)
	m["server.result_cache_hit_ratio"] = ratio(delta(front, "bufferdbd_result_cache_hits_total"), delta(front, "bufferdbd_result_cache_misses_total"))
	m["pager.hit_ratio"] = ratio(delta(front, "bufferdb_pager_hits_total"), delta(front, "bufferdb_pager_misses_total"))
	m["pager.misses_per_op"] = delta(front, "bufferdb_pager_misses_total") / ops
	m["pager.evictions_per_op"] = delta(front, "bufferdb_pager_evictions_total") / ops
	m["pager.dirty_writebacks_per_op"] = delta(front, "bufferdb_pager_dirty_writebacks_total") / ops
	m["pager.recovery_s"] = recovery.Seconds()

	// Scrape: the fleet's split of CPU and its scatter counters.
	if w.fleet.shards > 0 {
		m["dist.coord_cpu_ms_per_op"] = (after.cpuMS[front] - before.cpuMS[front]) / ops
		m["dist.shard_cpu_ms_per_op"] = (after.totalCPU()-before.totalCPU())/ops - m["dist.coord_cpu_ms_per_op"]
		m["dist.legs_per_op"] = delta(front, "bufferdb_coord_shard_scans_total") / ops
		m["dist.failovers"] = delta(front, "bufferdb_coord_failovers_total")
		m["dist.rescatters"] = delta(front, "bufferdb_coord_rescatters_total")
		var rows, ms float64
		for _, sm := range timed.samples {
			if w.classes[sm.class].name == "stream" && !sm.failed {
				rows += float64(sm.ans.rows)
				ms += sm.ms
			}
		}
		if ms > 0 {
			m["dist.gather_rows_per_s"] = rows / (ms / 1e3)
		}
		hop, err := hopOverhead(sess.fl)
		if err != nil {
			return err
		}
		m["dist.hop_overhead_us"] = hop
	}

	env, err := openLayerEnv(w, root)
	if err != nil {
		return err
	}
	defer env.close()
	m["tpch.generate_s"] = env.generateS
	if w.fleet.paged {
		inserted := float64(insertRows) * float64(sess.inserts)
		var timedInserts float64
		for _, sm := range timed.samples {
			if w.classes[sm.class].name == "insert" && !sm.failed {
				timedInserts++
			}
		}
		if timedInserts > 0 {
			m["pager.wal_bytes_per_row"] = delta(front, "bufferdb_pager_wal_bytes_total") / (insertRows * timedInserts)
		}
		m["pager.disk_bytes_per_user_byte"] = float64(after.diskBytes) / (float64(env.userBytes) + inserted*env.lineitemRow)
	}

	// The sample: traceBlocks whole blocks spread evenly over the timed
	// phase. What the daemon answered for a sampled op is checked against the
	// embedded DB.
	served := map[int]answer{}
	for _, sm := range timed.samples {
		if !sm.failed {
			served[sm.index] = sm.ans
		}
	}
	for i, q := range w.prime {
		if _, err := env.replay(-1-i, op{sql: q}, &layerSums{}); err != nil {
			return fmt.Errorf("prime %d: %w", i, err)
		}
	}
	env.tr = newTracer() // priming is not part of the sample
	var sums layerSums
	sched := newSchedule(w, res.seed)
	// A run shorter than the default has fewer blocks to choose from.
	timedBlocks := len(timed.samples) / blockLen
	traceBlocks := min(w.traceBlocks, timedBlocks)
	stride := timedBlocks / traceBlocks
	for b := 0; b < traceBlocks; b++ {
		first := w.warmup + b*stride*blockLen
		for i := first; i < first+blockLen; i++ {
			o := sched.at(i)
			if o.kind == kindPrepared {
				o.kind = kindQuery // in process, a prepared op is its text
			}
			want, err := env.replay(i, o, &sums)
			if err == nil {
				if got, ok := served[i]; ok && got != want {
					err = fmt.Errorf("daemon answered %+v, embedded DB %+v", got, want)
				}
			}
			if err != nil {
				res.failed++
				if res.firstErr == "" {
					res.firstErr = fmt.Sprintf("traced op %d (%s): %v", i, w.classes[o.class].name, err)
				}
			}
		}
	}
	total, _ := byName(env.tr.spans)
	n := float64(sums.ops)
	perOpUS := func(name string) float64 { return float64(total[name]) / 1e3 / n }
	for metric, name := range map[string]string{
		"sql.parse_us": "sql.parse", "sql.analyze_us": "sql.analyze", "plan.refine_us": "plan.refine",
		"plan.reuse_us": "plan.reuse", "plan.compile_us": "plan.compile", "exec.run_us": "exec.run",
		"vec.run_us": "vec.run", "push.run_us": "push.run", "wire.encode_us": "wire.encode",
		"wire.decode_us": "wire.decode", "bufferdb.query_us": "bufferdb.query",
	} {
		m[metric] = perOpUS(name)
	}
	m["server.overhead_us"] = serverOverheadUS(env.tr.spans)
	m["plan.buffers_inserted"] = float64(sums.buffers)
	if total["exec.run"] > 0 {
		m["exec.rows_per_s"] = sums.rowsScanned / (float64(total["exec.run"]) / 1e9)
	}
	m["exec.alloc_kb_per_op"] = float64(sums.allocBytes) / 1024 / n
	m["exec.allocs_per_op"] = float64(sums.allocs) / n
	m["wire.bytes_per_op"] = float64(sums.wireBytes) / n
	if w.fleet.paged {
		inserts := 0
		for _, s := range env.tr.spans {
			if s.Name == "pager.insert" {
				inserts++
			}
		}
		m["pager.insert_us"] = float64(total["pager.insert"]) / 1e3 / float64(inserts)
		if m["pager.scan_us_per_page"], err = env.scanPerPage(); err != nil {
			return err
		}
	}
	if w.fleet.caches {
		if err := env.cacheHits(m); err != nil {
			return err
		}
	}

	// Tracing overhead: what recording the sample's spans cost, against the
	// time the sample took. The recorder's price per span is measured here.
	probe := newTracer()
	const probes = 100_000
	start := time.Now()
	for i := 0; i < probes; i++ {
		probe.end(probe.begin(i, -1, "probe"))
	}
	perSpan := float64(time.Since(start).Nanoseconds()) / probes
	m["trace.overhead_pct"] = 100 * perSpan * float64(len(env.tr.spans)) / float64(total["op"])

	counts, err := cpusimCounts()
	if err != nil {
		return err
	}
	for name, v := range counts {
		m[name] = v
	}
	m["host.calib_ms"] = res.calibs[0]
	path, err := env.tr.write(root, w.name, res.seed)
	if err != nil {
		return err
	}
	fmt.Printf("trace: %d spans of %d sampled ops written to %s\n", len(env.tr.spans), sums.ops, path)
	return nil
}

// scanPerPage times one full scan of the paged lineitem heap through the raw
// pipeline and divides by the pages the pool served.
func (e *layerEnv) scanPerPage() (float64, error) {
	refined, err := e.planFor(-1, -1, "SELECT COUNT(*) FROM lineitem")
	if err != nil {
		return 0, err
	}
	before := e.store.PoolStats()
	start := time.Now()
	if _, _, err := e.runEngine(-1, -1, refined, 0, "pager.scan", &layerSums{}); err != nil {
		return 0, err
	}
	took := time.Since(start)
	after := e.store.PoolStats()
	pages := float64(after.Hits + after.Misses - before.Hits - before.Misses)
	return float64(took.Microseconds()) / pages, nil
}

// cacheHits measures the two serving-layer fast paths on the loopback
// server: a byte-identical repeat answered by the result cache, and an
// Execute of an already prepared statement.
func (e *layerEnv) cacheHits(m map[string]float64) error {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	const reps = 200
	var hit, stmt []float64
	for i := 0; i < dashboards; i++ {
		q := dashboard(i, "")
		st := e.cl.Prepare(q)
		for r := -1; r < reps/dashboards; r++ {
			t0 := time.Now()
			if _, err := runQuery(ctx, func() (*client.Rows, error) { return e.cl.Query(ctx, q) }, nil); err != nil {
				return err
			}
			t1 := time.Now()
			if _, err := runQuery(ctx, func() (*client.Rows, error) { return st.Query(ctx) }, nil); err != nil {
				return err
			}
			if r >= 0 { // the first round fills the caches
				hit = append(hit, float64(t1.Sub(t0).Nanoseconds())/1e3)
				stmt = append(stmt, float64(time.Since(t1).Nanoseconds())/1e3)
			}
		}
	}
	m["server.result_hit_us"], m["server.stmt_hit_us"] = median(hit), median(stmt)
	return nil
}

// hopOverhead is the median latency of a replicated-table lookup through the
// coordinator minus the same lookup sent straight to a shard: the price of
// the second wire hop and the coordinator's planning.
func hopOverhead(fl *fleet) (float64, error) {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	gen := lookup()
	var med [2]float64
	for k, d := range []*daemon{fl.front(), fl.daemons[0]} {
		cl, err := client.Dial(d.wire, client.Config{MaxConns: 1})
		if err != nil {
			return 0, err
		}
		var us []float64
		for i := 0; i < 300; i++ {
			o := gen(i, int64(1_000_000_000+i))
			t0 := time.Now()
			if _, err := runQuery(ctx, func() (*client.Rows, error) { return cl.Query(ctx, o.sql) }, nil); err != nil {
				cl.Close()
				return 0, err
			}
			us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
		}
		cl.Close()
		med[k] = median(us[50:]) // the first lookups pay calibration and dialing
	}
	return med[0] - med[1], nil
}

// serverOverheadUS is the median, over the sampled ops, of the op's time
// through the loopback server minus its time through the embedded DB. The
// difference is taken per op and the median over ops, because on a 100 ms
// scan the difference of two means is smaller than their noise.
func serverOverheadUS(spans []span) float64 {
	served, embedded := map[int]int64{}, map[int]int64{}
	for _, s := range spans {
		switch s.Name {
		case "server.op":
			served[s.TraceID] = s.End - s.Start
		case "bufferdb.query":
			embedded[s.TraceID] = s.End - s.Start
		}
	}
	var diffs []float64
	for id, d := range served {
		diffs = append(diffs, float64(d-embedded[id])/1e3)
	}
	return median(diffs)
}

// cpusimCounts profiles the paper's Query 1 at SF 0.01 on the simulated CPU,
// once per process: the four counts are the paper reproduction, repeat
// exactly whatever the workload, and are never compared with native time.
var cpusimCounts = sync.OnceValues(func() (map[string]float64, error) {
	db, err := bufferdb.OpenTPCH(0.01, bufferdb.Options{})
	if err != nil {
		return nil, err
	}
	defer db.Close()
	prof, err := db.Profile(paperQuery1)
	if err != nil {
		return nil, err
	}
	return map[string]float64{
		"cpusim.q1_l1i_misses_original": float64(prof.Original.L1IMisses),
		"cpusim.q1_l1i_misses_buffered": float64(prof.Buffered.L1IMisses),
		"cpusim.q1_cycles_original":     prof.Original.Cycles,
		"cpusim.q1_cycles_buffered":     prof.Buffered.Cycles,
	}, nil
})
