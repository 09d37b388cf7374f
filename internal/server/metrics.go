package server

import (
	"fmt"

	"bufferdb/internal/obsv"
	"bufferdb/internal/wire"
)

// The serving layer feeds the same process-wide registry the engine does,
// so one /metrics scrape shows the whole stack:
//
//	bufferdbd_connections_total            connections accepted
//	bufferdbd_connections_open             sessions live now
//	bufferdbd_queries_in_flight            statements executing now
//	bufferdbd_queries_total{source="..."}  adhoc | prepared | cached
//	bufferdbd_bytes_sent_total             result-stream payload bytes
//	bufferdbd_query_errors_total{code=".."} terminal error frames by class
//	bufferdbd_result_cache_{hits,misses,evictions,invalidations}_total
//	bufferdbd_result_cache_deferred_total  first-sighting misses, not stored
//	bufferdbd_result_cache_bytes           result-cache charges held now

func metricConnections() *obsv.Counter {
	return obsv.Default.Counter("bufferdbd_connections_total")
}

func metricConnsOpen() *obsv.Gauge {
	return obsv.Default.Gauge("bufferdbd_connections_open")
}

func metricInFlight() *obsv.Gauge {
	return obsv.Default.Gauge("bufferdbd_queries_in_flight")
}

// metricQueries counts served statements by source: "adhoc" (executed for
// a Query frame) or "cached" (replayed from the result cache).
func metricQueries(source string) *obsv.Counter {
	return obsv.Default.Counter(fmt.Sprintf("bufferdbd_queries_total{source=%q}", source))
}

func metricBytesSent() *obsv.Counter {
	return obsv.Default.Counter("bufferdbd_bytes_sent_total")
}

// metricQueryErrors counts terminal error frames by their stable code.
func metricQueryErrors(code wire.Code) *obsv.Counter {
	return obsv.Default.Counter(fmt.Sprintf("bufferdbd_query_errors_total{code=%q}", code.String()))
}
