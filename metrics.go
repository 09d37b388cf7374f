package bufferdb

import (
	"io"

	"bufferdb/internal/obsv"
)

// The process-wide metrics every served query feeds. They keep the engine
// label of the scrape interface; a served query always runs Volcano, so
// the label is always "volcano":
//
//	bufferdb_queries_total{engine="volcano"}        queries started
//	bufferdb_query_errors_total{engine="volcano"}   queries that failed
//	bufferdb_rows_emitted_total{engine="volcano"}   rows handed to consumers
//	bufferdb_query_seconds{engine="volcano"}        wall-clock latency histogram
//
// The resource governor adds failure-class counters and two load gauges:
//
//	bufferdb_queries_rejected_total{engine="volcano"}  shed by admission control
//	bufferdb_queries_timeout_total{engine="volcano"}   deadline expiries
//	bufferdb_queries_oom_total{engine="volcano"}       memory-budget overruns
//	bufferdb_queries_panic_total{engine="volcano"}     contained operator panics
//	bufferdb_admitted_queries                          queries holding a slot now
//	bufferdb_mem_tracked_bytes                         bytes charged to MemoryLimit
//
// The block operator (internal/exec.BlockAggregate) counts its input rows by
// how their block was folded; redone/(folded+redone) is the guard-miss ratio:
//
//	bufferdb_block_rows_folded_total   rows of blocks the block kernels folded
//	bufferdb_block_rows_redone_total   rows of blocks redone by the row loop
//
// The served planning entry (DB.plan, behind Query, QueryStream and
// Prepare) counts how each statement was planned:
//
//	bufferdb_plan_cache_hits_total     bound from a cached plan template
//	bufferdb_plan_cache_misses_total   planned fresh
//
// Metrics cover Query, QueryStream and prepared statements alike — they all
// share the same execution path.

// metricQueries returns the started-queries counter.
func metricQueries() *obsv.Counter {
	return obsv.Default.Counter(`bufferdb_queries_total{engine="volcano"}`)
}

// metricErrors returns the failed-queries counter.
func metricErrors() *obsv.Counter {
	return obsv.Default.Counter(`bufferdb_query_errors_total{engine="volcano"}`)
}

// metricRows returns the emitted-rows counter.
func metricRows() *obsv.Counter {
	return obsv.Default.Counter(`bufferdb_rows_emitted_total{engine="volcano"}`)
}

// metricLatency returns the query-latency histogram.
func metricLatency() *obsv.Histogram {
	return obsv.Default.Histogram(`bufferdb_query_seconds{engine="volcano"}`, obsv.DefLatencyBounds)
}

// metricRejected counts queries shed by admission control.
func metricRejected() *obsv.Counter {
	return obsv.Default.Counter(`bufferdb_queries_rejected_total{engine="volcano"}`)
}

// metricTimeout counts queries that hit their deadline.
func metricTimeout() *obsv.Counter {
	return obsv.Default.Counter(`bufferdb_queries_timeout_total{engine="volcano"}`)
}

// metricOOM counts queries that overran a memory budget.
func metricOOM() *obsv.Counter {
	return obsv.Default.Counter(`bufferdb_queries_oom_total{engine="volcano"}`)
}

// metricPanic counts queries that failed on a contained operator panic.
func metricPanic() *obsv.Counter {
	return obsv.Default.Counter(`bufferdb_queries_panic_total{engine="volcano"}`)
}

// metricAdmitted gauges the queries currently holding an admission slot.
func metricAdmitted() *obsv.Gauge {
	return obsv.Default.Gauge(`bufferdb_admitted_queries`)
}

// metricTrackedBytes gauges the bytes charged against the database
// MemoryLimit; updated as each query settles.
func metricTrackedBytes() *obsv.Gauge {
	return obsv.Default.Gauge(`bufferdb_mem_tracked_bytes`)
}

// metricPlanCache counts served plans by how they were built.
func metricPlanCache(event string) *obsv.Counter {
	return obsv.Default.Counter("bufferdb_plan_cache_" + event + "_total")
}

// WriteMetrics renders the process-wide metrics registry in the Prometheus
// text exposition format. Hook it to an HTTP handler for scraping:
//
//	http.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
//	    _ = bufferdb.WriteMetrics(w)
//	})
func WriteMetrics(w io.Writer) error {
	return obsv.Default.WritePrometheus(w)
}
