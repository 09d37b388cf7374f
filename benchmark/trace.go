package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a module's public function. Spans of one op
// share its schedule index as trace id; parent is the id of the span that
// caused this one, or -1.
type span struct {
	TraceID int    `json:"trace_id"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. It is used from one
// goroutine: the traced replay is sequential by design.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(traceID, parent int, name string) int {
	t.spans = append(t.spans, span{TraceID: traceID, ID: len(t.spans), Parent: parent, Name: name,
		Start: time.Since(t.t0).Nanoseconds()})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) { t.spans[id].End = time.Since(t.t0).Nanoseconds() }

// selfTimes returns, per span id, the span's duration minus the durations of
// its direct children: the time spent in the layer itself.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for _, s := range spans {
		self[s.ID] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// byName sums span durations and self times per span name.
func byName(spans []span) (total, self map[string]int64) {
	total, self = map[string]int64{}, map[string]int64{}
	for i, st := range selfTimes(spans) {
		total[spans[i].Name] += spans[i].End - spans[i].Start
		self[spans[i].Name] += st
	}
	return total, self
}

// write stores the spans as JSON under the build directory.
func (t *tracer) write(root, workload string, seed uint64) (string, error) {
	path := filepath.Join(root, buildDir, "trace-"+workload+".json")
	b, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, t.spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}
