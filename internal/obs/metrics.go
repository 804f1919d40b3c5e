// Package obs is the engine's observability layer: hand-rolled,
// dependency-free metrics in the Prometheus text exposition format, plus
// per-query trace collection (trace.go) behind a 1-in-N sampler. It is the
// production window into a running dixqd that DESIGN.md §4.9 describes —
// the per-query analogue of EXPLAIN ANALYZE, aggregated across all traffic
// the way Figure 10 of the paper aggregates one run.
//
// The layer is built to be always-on-cheap: every hot-path record is one
// atomic add behind one atomic enabled-flag load, no labels are
// materialized per call (label children are interned once), and trace
// spans allocate only for the sampled fraction of queries.
// BenchmarkObsOverhead (internal/bench) holds the instrumented engine to
// within noise of the gated-off build on Q8/Q9/Q13.
//
// Concretely: a Registry owns named metrics and renders them on demand;
// Default is the process-wide registry that package server exposes at GET
// /metrics and cmd/dibench snapshots with -metricsdump. The engine layers
// (core executor, engine budget and spill runs) record into
// the process-wide metrics of obs.go directly — counters are monotonic, so
// concurrent evaluations compose by addition.
package obs

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// enabled gates every hot-path record. It exists so the overhead of the
// instrumentation itself can be measured differentially (see
// BenchmarkObsOverhead); production leaves it on.
var enabled atomic.Bool

func init() { enabled.Store(true) }

// SetEnabled turns hot-path recording on or off process-wide. Reads
// (Value, rendering) are unaffected.
func SetEnabled(on bool) { enabled.Store(on) }

// Enabled reports whether hot-path recording is on.
func Enabled() bool { return enabled.Load() }

// metric is anything a Registry can render.
type metric interface {
	// render appends the metric's full exposition block (HELP, TYPE,
	// samples) to b.
	render(b *strings.Builder)
	// metricName is the registered family name, for duplicate detection.
	metricName() string
}

// Counter is a monotonically increasing value.
type Counter struct {
	name, help string
	v          atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n; non-positive n and gated-off recording are no-ops.
func (c *Counter) Add(n int64) {
	if n <= 0 || !enabled.Load() {
		return
	}
	c.v.Add(uint64(n))
}

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

func (c *Counter) metricName() string { return c.name }

func (c *Counter) render(b *strings.Builder) {
	header(b, c.name, c.help, "counter")
	fmt.Fprintf(b, "%s %d\n", c.name, c.v.Load())
}

// Gauge is a value that can go up and down.
type Gauge struct {
	name, help string
	v          atomic.Int64
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Add adds n (may be negative); gated-off recording is a no-op.
func (g *Gauge) Add(n int64) {
	if !enabled.Load() {
		return
	}
	g.v.Add(n)
}

// Set replaces the value unconditionally (not gated: gauges that mirror
// configuration must stay correct even while recording is off).
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

func (g *Gauge) metricName() string { return g.name }

func (g *Gauge) render(b *strings.Builder) {
	header(b, g.name, g.help, "gauge")
	fmt.Fprintf(b, "%s %d\n", g.name, g.v.Load())
}

// DefLatencyBuckets are the histogram upper bounds used for query
// latency, in seconds — the standard Prometheus defaults, which span the
// microbenchmark-to-DNF range the XMark workloads produce.
var DefLatencyBuckets = []float64{.005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}

// Histogram observes durations into fixed buckets. Buckets are upper
// bounds in seconds; an implicit +Inf bucket catches the rest.
type Histogram struct {
	name, help string
	bounds     []float64
	counts     []atomic.Uint64 // len(bounds)+1; last is +Inf
	sumNS      atomic.Int64
	count      atomic.Uint64
}

// Observe records one duration; gated-off recording is a no-op.
func (h *Histogram) Observe(d time.Duration) {
	if !enabled.Load() {
		return
	}
	s := d.Seconds()
	i := 0
	for i < len(h.bounds) && s > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sumNS.Add(int64(d))
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

func (h *Histogram) metricName() string { return h.name }

func (h *Histogram) render(b *strings.Builder) {
	header(b, h.name, h.help, "histogram")
	var cum uint64
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(b, "%s_bucket{le=%q} %d\n", h.name, formatFloat(bound), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(b, "%s_bucket{le=\"+Inf\"} %d\n", h.name, cum)
	fmt.Fprintf(b, "%s_sum %s\n", h.name, formatFloat(float64(h.sumNS.Load())/1e9))
	fmt.Fprintf(b, "%s_count %d\n", h.name, h.count.Load())
}

// CounterVec is a family of counters distinguished by label values. The
// label sets in this system are small and closed (engines × outcomes), so
// children are interned in a map; callers on hot paths should hold on to
// the *Counter returned by With instead of re-resolving per event.
type CounterVec struct {
	name, help string
	labels     []string

	mu       sync.RWMutex
	children map[string]*vecChild
}

type vecChild struct {
	values []string
	c      Counter
}

// With returns the counter for the given label values (one per label name,
// in declaration order), creating it on first use.
func (v *CounterVec) With(values ...string) *Counter {
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("obs: %s takes %d label values, got %d", v.name, len(v.labels), len(values)))
	}
	key := strings.Join(values, "\xff")
	v.mu.RLock()
	ch, ok := v.children[key]
	v.mu.RUnlock()
	if ok {
		return &ch.c
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if ch, ok = v.children[key]; !ok {
		ch = &vecChild{values: append([]string(nil), values...)}
		v.children[key] = ch
	}
	return &ch.c
}

func (v *CounterVec) metricName() string { return v.name }

func (v *CounterVec) render(b *strings.Builder) {
	header(b, v.name, v.help, "counter")
	v.mu.RLock()
	keys := make([]string, 0, len(v.children))
	for k := range v.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		ch := v.children[k]
		b.WriteString(v.name)
		b.WriteByte('{')
		for i, name := range v.labels {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(name)
			b.WriteString(`="`)
			b.WriteString(escapeLabel(ch.values[i]))
			b.WriteByte('"')
		}
		fmt.Fprintf(b, "} %d\n", ch.c.Value())
	}
	v.mu.RUnlock()
}

// header writes the # HELP / # TYPE preamble of one metric family.
func header(b *strings.Builder, name, help, typ string) {
	b.WriteString("# HELP ")
	b.WriteString(name)
	b.WriteByte(' ')
	b.WriteString(escapeHelp(help))
	b.WriteString("\n# TYPE ")
	b.WriteString(name)
	b.WriteByte(' ')
	b.WriteString(typ)
	b.WriteByte('\n')
}

// escapeHelp escapes backslash and newline per the exposition format.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabel escapes backslash, quote and newline in a label value; the
// caller supplies the surrounding quotes.
func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

// formatFloat renders a float the way Prometheus clients do: shortest
// representation that round-trips.
func formatFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// Registry owns a set of metrics and renders them in registration order.
type Registry struct {
	mu      sync.Mutex
	metrics []metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// register adds a metric, panicking on a duplicate name (metric
// registration is static initialization; a clash is a programming error).
func (r *Registry) register(m metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, have := range r.metrics {
		if have.metricName() == m.metricName() {
			panic("obs: duplicate metric " + m.metricName())
		}
	}
	r.metrics = append(r.metrics, m)
}

// NewCounter registers a counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	c := &Counter{name: name, help: help}
	r.register(c)
	return c
}

// NewGauge registers a gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	g := &Gauge{name: name, help: help}
	r.register(g)
	return g
}

// NewHistogram registers a duration histogram with the given upper bounds
// in seconds (ascending; nil selects DefLatencyBuckets).
func (r *Registry) NewHistogram(name, help string, buckets []float64) *Histogram {
	if buckets == nil {
		buckets = DefLatencyBuckets
	}
	h := &Histogram{name: name, help: help, bounds: buckets}
	h.counts = make([]atomic.Uint64, len(buckets)+1)
	r.register(h)
	return h
}

// NewCounterVec registers a labeled counter family.
func (r *Registry) NewCounterVec(name, help string, labelNames ...string) *CounterVec {
	v := &CounterVec{name: name, help: help, labels: labelNames, children: map[string]*vecChild{}}
	r.register(v)
	return v
}

// Render returns the registry in the Prometheus text exposition format
// (version 0.0.4).
func (r *Registry) Render() string {
	var b strings.Builder
	r.mu.Lock()
	metrics := append([]metric(nil), r.metrics...)
	r.mu.Unlock()
	for _, m := range metrics {
		m.render(&b)
	}
	return b.String()
}

// WriteTo writes the rendered registry to w.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	n, err := io.WriteString(w, r.Render())
	return int64(n), err
}

// Handler serves the registry as a Prometheus scrape endpoint.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = r.WriteTo(w)
	})
}
