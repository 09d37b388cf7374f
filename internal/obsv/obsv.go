// Package obsv is a small, dependency-free metrics registry: monotonic
// counters, gauges and fixed-bucket histograms, safe for concurrent use,
// exportable in Prometheus text exposition format. Metric names follow the
// Prometheus convention and may carry inline labels, e.g.
// `queries_total{engine="volcano"}` — the registry treats the full string
// as the identity, which keeps lookup a single map read.
package obsv

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a metric that can go up and down.
type Gauge struct {
	bits atomic.Uint64 // float64 bits
}

// Set stores the gauge's value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add moves the gauge by delta (negative to decrease), atomically with
// respect to concurrent Add and Set calls.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the gauge's value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed upper-bound buckets, tracking
// the running sum and count like a Prometheus histogram. Observations are
// lock-free; readers see a consistent-enough view for monitoring.
type Histogram struct {
	bounds  []float64 // ascending upper bounds; +Inf is implicit
	buckets []atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64 // float64 bits, CAS-updated
}

// newHistogram builds a histogram over ascending upper bounds.
func newHistogram(bounds []float64) *Histogram {
	h := &Histogram{bounds: bounds, buckets: make([]atomic.Uint64, len(bounds)+1)}
	return h
}

// DefLatencyBounds are the default latency buckets in seconds.
var DefLatencyBounds = []float64{0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Registry holds named metrics. The zero value is unusable; use
// NewRegistry or the package-level Default.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Default is the process-wide registry the database feeds.
var Default = NewRegistry()

// Counter returns the named counter, creating it on first use. The name
// may carry inline labels: `queries_total{engine="vec"}`.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bucket
// bounds on first use (later calls ignore bounds).
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = newHistogram(bounds)
		r.histograms[name] = h
	}
	return h
}

// splitName separates `base{labels}` into base and the label block
// (including braces), for exposition formats that need them apart.
func splitName(name string) (base, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i], name[i:]
	}
	return name, ""
}

// labeledName merges extra label pairs into a possibly-labeled name:
// labeledName(`x_bucket`, `{engine="vec"}`, `le="0.5"`) →
// `x_bucket{engine="vec",le="0.5"}`.
func labeledName(base, labels, extra string) string {
	if labels == "" {
		return base + "{" + extra + "}"
	}
	return base + strings.TrimSuffix(labels, "}") + "," + extra + "}"
}

// WritePrometheus renders every metric in the Prometheus text exposition
// format, sorted by name for deterministic output.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	histograms := make(map[string]*Histogram, len(r.histograms))
	for k, v := range r.histograms {
		histograms[k] = v
	}
	r.mu.Unlock()

	names := make([]string, 0, len(counters))
	for name := range counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if _, err := fmt.Fprintf(w, "%s %d\n", name, counters[name].Value()); err != nil {
			return err
		}
	}

	names = names[:0]
	for name := range gauges {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if _, err := fmt.Fprintf(w, "%s %g\n", name, gauges[name].Value()); err != nil {
			return err
		}
	}

	names = names[:0]
	for name := range histograms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h := histograms[name]
		base, labels := splitName(name)
		cum := uint64(0)
		for i, bound := range h.bounds {
			cum += h.buckets[i].Load()
			le := fmt.Sprintf("le=%q", fmt.Sprintf("%g", bound))
			if _, err := fmt.Fprintf(w, "%s %d\n", labeledName(base+"_bucket", labels, le), cum); err != nil {
				return err
			}
		}
		cum += h.buckets[len(h.bounds)].Load()
		if _, err := fmt.Fprintf(w, "%s %d\n", labeledName(base+"_bucket", labels, `le="+Inf"`), cum); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s%s %g\n", base+"_sum", labels, h.Sum()); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s%s %d\n", base+"_count", labels, h.Count()); err != nil {
			return err
		}
	}
	return nil
}
