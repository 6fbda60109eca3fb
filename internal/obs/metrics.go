package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing integer metric.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by delta.
func (c *Counter) Add(delta int64) { c.v.Add(delta) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a settable float metric (last value wins).
type Gauge struct{ bits atomic.Uint64 }

// Set stores v as the gauge's current value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add atomically adds delta to the gauge — the in-flight/queue-depth
// idiom (Add(1) on entry, Add(-1) on exit) of the HTTP serving layer.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the gauge's current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// histBuckets are the upper bounds of the histogram's exponential
// buckets, sized for durations in seconds and counts alike: 1e-6 .. ~65s
// doubling, plus a +Inf overflow bucket.
var histBuckets = func() []float64 {
	var b []float64
	for v := 1e-6; v < 100; v *= 2 {
		b = append(b, v)
	}
	return b
}()

// Histogram aggregates observed float values: count, sum, min, max and
// exponential buckets.
type Histogram struct {
	mu      sync.Mutex
	count   int64
	sum     float64
	min     float64
	max     float64
	buckets []int64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.buckets == nil {
		h.buckets = make([]int64, len(histBuckets)+1)
	}
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	i := sort.SearchFloat64s(histBuckets, v)
	h.buckets[i]++
}

// Snapshot returns the histogram's aggregate statistics.
func (h *Histogram) Snapshot() (count int64, sum, min, max float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count, h.sum, h.min, h.max
}

// Bucket is one cumulative histogram bucket: the count of observations
// ≤ UpperBound. The last bucket's bound is +Inf, so its count equals the
// histogram's total count.
type Bucket struct {
	UpperBound float64
	Count      int64
}

// Buckets returns the cumulative bucket snapshot (Prometheus `le`
// semantics), always ending in the +Inf bucket. The bounds are the
// fixed exponential ladder every Histogram shares (1e-6 doubling to
// ~67, seconds-friendly), so quantiles are derivable offline from any
// dump that includes these lines.
func (h *Histogram) Buckets() []Bucket {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]Bucket, len(histBuckets)+1)
	var cum int64
	for i := range out {
		if h.buckets != nil {
			cum += h.buckets[i]
		}
		bound := math.Inf(1)
		if i < len(histBuckets) {
			bound = histBuckets[i]
		}
		out[i] = Bucket{UpperBound: bound, Count: cum}
	}
	return out
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) from the cumulative
// buckets, interpolating linearly inside the bucket that crosses the
// target rank — the same estimator Prometheus's histogram_quantile
// uses — and clamping to the observed [min, max] so the exponential
// bucket edges never report a value outside the data. Returns NaN for
// an empty histogram.
func (h *Histogram) Quantile(q float64) float64 {
	h.mu.Lock()
	count, min, max := h.count, h.min, h.max
	var buckets []int64
	if h.buckets != nil {
		buckets = append([]int64(nil), h.buckets...)
	}
	h.mu.Unlock()
	if count == 0 || math.IsNaN(q) {
		return math.NaN()
	}
	if q <= 0 {
		return min
	}
	if q >= 1 {
		return max
	}
	rank := q * float64(count)
	var cum int64
	for i, c := range buckets {
		if c == 0 {
			cum += c
			continue
		}
		if float64(cum+c) >= rank {
			lo := 0.0
			if i > 0 {
				lo = histBuckets[i-1]
			}
			hi := max
			if i < len(histBuckets) {
				hi = histBuckets[i]
			}
			// Position of the target rank inside this bucket.
			frac := (rank - float64(cum)) / float64(c)
			v := lo + (hi-lo)*frac
			return math.Min(math.Max(v, min), max)
		}
		cum += c
	}
	return max
}

// LabelPair is one rendered label of an info metric.
type LabelPair struct {
	Key   string
	Value string
}

// Registry is a set of named metrics. The zero value is not usable; use
// NewRegistry. All methods are safe for concurrent use.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	// stages maps a span's stage name to its mvpar_span_*_seconds
	// histogram (also held in hists); see StartSpan.
	stages map[string]*Histogram
	infos  map[string][]LabelPair
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
		stages:   map[string]*Histogram{},
		infos:    map[string][]LabelPair{},
	}
}

// SetInfo registers (or replaces) an info metric: the Prometheus
// `*_info` idiom of a constant-1 gauge whose labels carry identity —
// build version, Go version, model generation. Labels are stored in
// sorted key order so the exposition is stable across scrapes.
func (r *Registry) SetInfo(name string, labels map[string]string) {
	pairs := make([]LabelPair, 0, len(labels))
	for k, v := range labels {
		pairs = append(pairs, LabelPair{Key: k, Value: v})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].Key < pairs[j].Key })
	r.mu.Lock()
	if r.infos == nil {
		r.infos = map[string][]LabelPair{}
	}
	r.infos[name] = pairs
	r.mu.Unlock()
}

// Info returns the labels of a registered info metric (nil if absent).
func (r *Registry) Info(name string) []LabelPair {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]LabelPair(nil), r.infos[name]...)
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry every package-level helper
// operates on.
func Default() *Registry { return defaultRegistry }

// Counter returns (creating if needed) the named counter.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (creating if needed) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (creating if needed) the named histogram.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Reset drops every metric and span; tests use it for isolation.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counters = map[string]*Counter{}
	r.gauges = map[string]*Gauge{}
	r.hists = map[string]*Histogram{}
	r.stages = map[string]*Histogram{}
	r.infos = map[string][]LabelPair{}
}

// Dump writes every metric in a stable, sorted, expvar-style text form:
// one "name value" line per counter and gauge, and count/sum/min/max
// lines per histogram. Stage spans appear as their histograms,
// mvpar_span_<stage>_seconds_*.
func (r *Registry) Dump(w io.Writer) error {
	r.mu.Lock()
	var lines []string
	for name, c := range r.counters {
		lines = append(lines, fmt.Sprintf("%s %d", name, c.Value()))
	}
	for name, g := range r.gauges {
		lines = append(lines, fmt.Sprintf("%s %.6g", name, g.Value()))
	}
	for name, pairs := range r.infos {
		lines = append(lines, fmt.Sprintf("%s%s 1", name, renderLabels(pairs)))
	}
	for name, h := range r.hists {
		count, sum, min, max := h.Snapshot()
		lines = append(lines, fmt.Sprintf("%s_count %d", name, count))
		lines = append(lines, fmt.Sprintf("%s_sum %.6g", name, sum))
		if count > 0 {
			lines = append(lines, fmt.Sprintf("%s_min %.6g", name, min))
			lines = append(lines, fmt.Sprintf("%s_max %.6g", name, max))
			// Cumulative buckets (Prometheus le semantics), so quantiles
			// are derivable offline from the dump alone. Buckets the data
			// never reached are elided; a reader treats a missing bound as
			// "same cumulative count as the previous line".
			var prev int64
			for _, b := range h.Buckets() {
				if b.Count == prev {
					continue
				}
				prev = b.Count
				lines = append(lines, fmt.Sprintf("%s_bucket{le=%q} %d", name, formatLe(b.UpperBound), b.Count))
			}
		}
	}
	r.mu.Unlock()
	if len(lines) == 0 {
		return nil
	}
	sort.Strings(lines)
	_, err := io.WriteString(w, strings.Join(lines, "\n")+"\n")
	return err
}

// renderLabels renders info label pairs as a Prometheus label set.
func renderLabels(pairs []LabelPair) string {
	if len(pairs) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", p.Key, p.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// formatLe renders a bucket upper bound as a Prometheus le label value.
func formatLe(bound float64) string {
	if math.IsInf(bound, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(bound, 'g', -1, 64)
}

// DumpString returns Dump's output as a string.
func (r *Registry) DumpString() string {
	var b strings.Builder
	r.Dump(&b)
	return b.String()
}

// Package-level helpers on the default registry.

// GetCounter returns the named counter of the default registry.
func GetCounter(name string) *Counter { return defaultRegistry.Counter(name) }

// GetGauge returns the named gauge of the default registry.
func GetGauge(name string) *Gauge { return defaultRegistry.Gauge(name) }

// GetHistogram returns the named histogram of the default registry.
func GetHistogram(name string) *Histogram { return defaultRegistry.Histogram(name) }

// SetInfo registers an info metric on the default registry.
func SetInfo(name string, labels map[string]string) { defaultRegistry.SetInfo(name, labels) }

// Reset clears the default registry (tests only).
func Reset() { defaultRegistry.Reset() }

// Dump writes the default registry to w.
func Dump(w io.Writer) error { return defaultRegistry.Dump(w) }
