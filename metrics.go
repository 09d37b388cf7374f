package bufferdb

import (
	"fmt"
	"io"

	"bufferdb/internal/obsv"
)

// The process-wide metrics every query feeds, labeled by engine:
//
//	bufferdb_queries_total{engine="volcano"}   queries started
//	bufferdb_query_errors_total{engine="..."}  queries that failed
//	bufferdb_rows_emitted_total{engine="..."}  rows handed to consumers
//	bufferdb_query_seconds{engine="..."}       wall-clock latency histogram
//
// The resource governor adds failure-class counters and two load gauges:
//
//	bufferdb_queries_rejected_total{engine="..."}  shed by admission control
//	bufferdb_queries_timeout_total{engine="..."}   deadline expiries
//	bufferdb_queries_oom_total{engine="..."}       memory-budget overruns
//	bufferdb_queries_panic_total{engine="..."}     contained operator panics
//	bufferdb_admitted_queries                      queries holding a slot now
//	bufferdb_mem_tracked_bytes                     bytes charged to MemoryLimit
//
// The block operator (internal/exec.BlockAggregate) counts its input rows by
// how their block was folded; redone/(folded+redone) is the guard-miss ratio:
//
//	bufferdb_block_rows_folded_total   rows of blocks the block kernels folded
//	bufferdb_block_rows_redone_total   rows of blocks redone by the row loop
//
// Metrics cover Query, QueryStream and prepared statements alike — they all
// share the same execution path.

// metricQueries returns the started-queries counter for an engine.
func metricQueries(e Engine) *obsv.Counter {
	return obsv.Default.Counter(fmt.Sprintf(`bufferdb_queries_total{engine=%q}`, engineLabel(e)))
}

// metricErrors returns the failed-queries counter for an engine.
func metricErrors(e Engine) *obsv.Counter {
	return obsv.Default.Counter(fmt.Sprintf(`bufferdb_query_errors_total{engine=%q}`, engineLabel(e)))
}

// metricRows returns the emitted-rows counter for an engine.
func metricRows(e Engine) *obsv.Counter {
	return obsv.Default.Counter(fmt.Sprintf(`bufferdb_rows_emitted_total{engine=%q}`, engineLabel(e)))
}

// metricLatency returns the query-latency histogram for an engine.
func metricLatency(e Engine) *obsv.Histogram {
	return obsv.Default.Histogram(fmt.Sprintf(`bufferdb_query_seconds{engine=%q}`, engineLabel(e)), obsv.DefLatencyBounds)
}

// metricRejected counts queries shed by admission control.
func metricRejected(e Engine) *obsv.Counter {
	return obsv.Default.Counter(fmt.Sprintf(`bufferdb_queries_rejected_total{engine=%q}`, engineLabel(e)))
}

// metricTimeout counts queries that hit their deadline.
func metricTimeout(e Engine) *obsv.Counter {
	return obsv.Default.Counter(fmt.Sprintf(`bufferdb_queries_timeout_total{engine=%q}`, engineLabel(e)))
}

// metricOOM counts queries that overran a memory budget.
func metricOOM(e Engine) *obsv.Counter {
	return obsv.Default.Counter(fmt.Sprintf(`bufferdb_queries_oom_total{engine=%q}`, engineLabel(e)))
}

// metricPanic counts queries that failed on a contained operator panic.
func metricPanic(e Engine) *obsv.Counter {
	return obsv.Default.Counter(fmt.Sprintf(`bufferdb_queries_panic_total{engine=%q}`, engineLabel(e)))
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

// engineLabel normalizes an engine name for metric labels.
func engineLabel(e Engine) string {
	if e == "" {
		return string(EngineVolcano)
	}
	return string(e)
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
