package dist

import (
	"fmt"

	"bufferdb/internal/obsv"
)

// The coordinator feeds the same process-wide registry the engine and the
// serving layer do, so one /metrics scrape covers the whole deployment:
//
//	bufferdb_coord_queries_total{type="..."}        scatter | single | rejected
//	bufferdb_coord_shard_scans_total{shard=".."}    leg streams started, per node
//	bufferdb_coord_shard_errors_total{shard=".."}   failures attributed to a shard
//	bufferdb_coord_failovers_total{shard=".."}      legs failed over away from a node
//	bufferdb_coord_breaker_trips_total{shard=".."}  circuit-open transitions, per node
//	bufferdb_coord_breaker_state{shard=".."}        gauge: 0 closed, 1 open, 2 half-open
//	bufferdb_coord_probes_total{shard="..",outcome=".."}  half-open probes, recovered|failed
//	bufferdb_coord_leg_replays_total{shard=".."}    mid-stream legs replayed on a replica
//	bufferdb_coord_rescatters_total                 full scatter restarts
//	bufferdb_coord_shard_first_row_seconds{shard=".."}  open → first row (health)
//	bufferdb_coord_shard_stream_seconds{shard=".."}     open → close, per scan
//	bufferdb_coord_merge_close_seconds              scatter cursor teardown latency

// latencyBuckets spans sub-millisecond in-process shards through multi-second
// wide-area scatters.
var latencyBuckets = []float64{0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 30}

func metricScatter() *obsv.Counter {
	return obsv.Default.Counter(`bufferdb_coord_queries_total{type="scatter"}`)
}

func metricSingleShard() *obsv.Counter {
	return obsv.Default.Counter(`bufferdb_coord_queries_total{type="single"}`)
}

func metricPlanRejected() *obsv.Counter {
	return obsv.Default.Counter(`bufferdb_coord_queries_total{type="rejected"}`)
}

func metricShardScans(addr string) *obsv.Counter {
	return obsv.Default.Counter(fmt.Sprintf("bufferdb_coord_shard_scans_total{shard=%q}", addr))
}

func metricShardErrors(addr string) *obsv.Counter {
	return obsv.Default.Counter(fmt.Sprintf("bufferdb_coord_shard_errors_total{shard=%q}", addr))
}

func metricFailovers(addr string) *obsv.Counter {
	return obsv.Default.Counter(fmt.Sprintf("bufferdb_coord_failovers_total{shard=%q}", addr))
}

func metricBreakerTrips(addr string) *obsv.Counter {
	return obsv.Default.Counter(fmt.Sprintf("bufferdb_coord_breaker_trips_total{shard=%q}", addr))
}

// metricBreakerState mirrors one node's breaker position for dashboards:
// 0 closed, 1 open, 2 half-open.
func metricBreakerState(addr string) *obsv.Gauge {
	return obsv.Default.Gauge(fmt.Sprintf("bufferdb_coord_breaker_state{shard=%q}", addr))
}

func metricProbes(addr, outcome string) *obsv.Counter {
	return obsv.Default.Counter(
		fmt.Sprintf("bufferdb_coord_probes_total{shard=%q,outcome=%q}", addr, outcome))
}

func metricLegReplays(addr string) *obsv.Counter {
	return obsv.Default.Counter(fmt.Sprintf("bufferdb_coord_leg_replays_total{shard=%q}", addr))
}

func metricRescatters() *obsv.Counter {
	return obsv.Default.Counter("bufferdb_coord_rescatters_total")
}

// metricShardFirstRow is the per-shard health signal the sidecar exports:
// time from scan open to the first gathered row.
func metricShardFirstRow(addr string) *obsv.Histogram {
	return obsv.Default.Histogram(
		fmt.Sprintf("bufferdb_coord_shard_first_row_seconds{shard=%q}", addr), latencyBuckets)
}

func metricShardLatency(addr string) *obsv.Histogram {
	return obsv.Default.Histogram(
		fmt.Sprintf("bufferdb_coord_shard_stream_seconds{shard=%q}", addr), latencyBuckets)
}

func metricMergeClose() *obsv.Histogram {
	return obsv.Default.Histogram("bufferdb_coord_merge_close_seconds", latencyBuckets)
}
