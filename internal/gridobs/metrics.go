// Package gridobs is the grid's observability layer: a dependency-free
// metrics registry with Prometheus text-format exposition.
//
// The registry deliberately implements the small subset of the
// Prometheus data model the grid needs — counters, gauges, histograms,
// with optional label vectors — rather than pulling in a client
// library: every type is race-safe, allocation happens only at
// registration or first label use, and WritePrometheus renders the
// standard text format (version 0.0.4) that any Prometheus-compatible
// scraper ingests.
package gridobs

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

// Registry holds metric families and renders them in Prometheus text
// format. The zero value is not usable; call NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string // registration order; exposition sorts anyway
	hooks    []func()
}

type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "untyped"
}

// family is one named metric family: a help string, a type, optional
// label names, and one child per distinct label-value tuple (the empty
// tuple for unlabeled metrics).
type family struct {
	name   string
	help   string
	kind   metricKind
	labels []string

	mu       sync.Mutex
	children map[string]child // key = joined label values
	fn       func() float64   // GaugeFunc only
	buckets  []float64        // histograms only
}

type child interface {
	// write appends this child's sample lines.
	write(w io.Writer, fam *family, labelValues []string)
	labelVals() []string
}

// register adds (or finds) a family, enforcing one kind per name.
func (r *Registry) register(name, help string, kind metricKind, labels []string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind {
			panic(fmt.Sprintf("gridobs: metric %q re-registered as %s (was %s)", name, kind, f.kind))
		}
		return f
	}
	f := &family{name: name, help: help, kind: kind, labels: labels, children: map[string]child{}}
	r.families[name] = f
	r.order = append(r.order, name)
	return f
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// OnCollect registers a hook run at the top of every WritePrometheus
// call (and Gather), outside the registry lock. Use it to refresh
// gauges that mirror external state — queue depths, liveness — so a
// scrape always sees current values without a background updater.
func (r *Registry) OnCollect(fn func()) {
	r.mu.Lock()
	r.hooks = append(r.hooks, fn)
	r.mu.Unlock()
}

// --- Counter ---

// Counter is a monotonically increasing float64. All methods are safe
// for concurrent use.
type Counter struct {
	bits atomic.Uint64
	vals []string
}

func (c *Counter) labelVals() []string { return c.vals }

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add adds v; negative deltas are ignored (counters only go up).
func (c *Counter) Add(v float64) {
	if v >= 0 {
		addFloat(&c.bits, v)
	}
}

// Value returns the current count.
func (c *Counter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

func (c *Counter) write(w io.Writer, fam *family, _ []string) {
	fmt.Fprintf(w, "%s%s %s\n", fam.name, formatLabels(fam.labels, c.vals), formatFloat(c.Value()))
}

// NewCounter registers (or returns the existing) unlabeled counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	return r.NewCounterVec(name, help).With()
}

// CounterVec is a counter family keyed by label values.
type CounterVec struct{ fam *family }

// NewCounterVec registers a counter family with the given label names.
func (r *Registry) NewCounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.register(name, help, kindCounter, labels)}
}

// With returns the counter for the given label values, creating it on
// first use. The number of values must match the registered labels.
func (v *CounterVec) With(values ...string) *Counter {
	return childFor(v.fam, values, func(vals []string) *Counter { return &Counter{vals: vals} })
}

// --- Gauge ---

// Gauge is an arbitrary float64 that can go up and down.
type Gauge struct {
	bits atomic.Uint64
	vals []string
}

func (g *Gauge) labelVals() []string { return g.vals }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds v (which may be negative).
func (g *Gauge) Add(v float64) { addFloat(&g.bits, v) }

// Inc adds 1.
func (g *Gauge) Inc() { g.Add(1) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

func (g *Gauge) write(w io.Writer, fam *family, _ []string) {
	fmt.Fprintf(w, "%s%s %s\n", fam.name, formatLabels(fam.labels, g.vals), formatFloat(g.Value()))
}

// NewGauge registers (or returns the existing) unlabeled gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	return r.NewGaugeVec(name, help).With()
}

// NewGaugeFunc registers a gauge whose value is computed at scrape
// time by fn. It cannot share a name with any other metric.
func (r *Registry) NewGaugeFunc(name, help string, fn func() float64) {
	f := r.register(name, help, kindGauge, nil)
	f.mu.Lock()
	f.fn = fn
	f.mu.Unlock()
}

// GaugeVec is a gauge family keyed by label values.
type GaugeVec struct{ fam *family }

// NewGaugeVec registers a gauge family with the given label names.
func (r *Registry) NewGaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{r.register(name, help, kindGauge, labels)}
}

// With returns the gauge for the given label values, creating it on
// first use.
func (v *GaugeVec) With(values ...string) *Gauge {
	return childFor(v.fam, values, func(vals []string) *Gauge { return &Gauge{vals: vals} })
}

// Reset drops every child, so stale label tuples (a finished job, a
// departed worker) disappear from the exposition. Typically called
// from an OnCollect hook before re-setting the live tuples.
func (v *GaugeVec) Reset() {
	v.fam.mu.Lock()
	v.fam.children = map[string]child{}
	v.fam.mu.Unlock()
}

// --- Histogram ---

// Histogram counts observations into cumulative buckets and tracks
// their sum, the Prometheus classic-histogram shape.
type Histogram struct {
	mu      sync.Mutex
	buckets []float64 // upper bounds, shared read-only with the family
	counts  []uint64  // one per bucket, non-cumulative internally
	sum     float64
	total   uint64
	vals    []string
}

func (h *Histogram) labelVals() []string { return h.vals }

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	h.sum += v
	h.total++
	for i, ub := range h.buckets {
		if v <= ub {
			h.counts[i]++
			break
		}
	}
	h.mu.Unlock()
}

// Count returns the number of observations so far.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.total
}

func (h *Histogram) write(w io.Writer, fam *family, _ []string) {
	h.mu.Lock()
	counts := append([]uint64(nil), h.counts...)
	sum, total := h.sum, h.total
	h.mu.Unlock()
	cum := uint64(0)
	for i, ub := range fam.buckets {
		cum += counts[i]
		fmt.Fprintf(w, "%s_bucket%s %d\n", fam.name,
			formatLabels(append(fam.labels, "le"), append(append([]string(nil), h.vals...), formatFloat(ub))), cum)
	}
	fmt.Fprintf(w, "%s_bucket%s %d\n", fam.name,
		formatLabels(append(fam.labels, "le"), append(append([]string(nil), h.vals...), "+Inf")), total)
	fmt.Fprintf(w, "%s_sum%s %s\n", fam.name, formatLabels(fam.labels, h.vals), formatFloat(sum))
	fmt.Fprintf(w, "%s_count%s %d\n", fam.name, formatLabels(fam.labels, h.vals), total)
}

// NewHistogram registers a histogram with the given bucket upper
// bounds (sorted ascending; the +Inf bucket is implicit).
func (r *Registry) NewHistogram(name, help string, buckets []float64) *Histogram {
	return r.NewHistogramVec(name, help, buckets).With()
}

// HistogramVec is a histogram family keyed by label values.
type HistogramVec struct{ fam *family }

// NewHistogramVec registers a histogram family.
func (r *Registry) NewHistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if len(buckets) == 0 {
		buckets = DefBuckets
	}
	if !sort.Float64sAreSorted(buckets) {
		panic(fmt.Sprintf("gridobs: histogram %q buckets are not sorted", name))
	}
	f := r.register(name, help, kindHistogram, labels)
	f.mu.Lock()
	if f.buckets == nil {
		f.buckets = append([]float64(nil), buckets...)
	}
	f.mu.Unlock()
	return &HistogramVec{f}
}

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	return childFor(v.fam, values, func(vals []string) *Histogram {
		return &Histogram{buckets: v.fam.buckets, counts: make([]uint64, len(v.fam.buckets)), vals: vals}
	})
}

// HistSnapshot is a point-in-time copy of one histogram's state:
// per-bucket (non-cumulative) counts aligned with the bucket upper
// bounds, plus the sum and total count.
type HistSnapshot struct {
	Buckets []float64 `json:"buckets,omitempty"`
	Counts  []uint64  `json:"counts,omitempty"`
	Sum     float64   `json:"sum"`
	Count   uint64    `json:"count"`
}

// Snapshot copies the histogram's current state.
func (h *Histogram) Snapshot() HistSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	return HistSnapshot{
		Buckets: h.buckets, // shared read-only with the family
		Counts:  append([]uint64(nil), h.counts...),
		Sum:     h.sum,
		Count:   h.total,
	}
}

// Each calls fn for every child histogram, with its label values.
func (v *HistogramVec) Each(fn func(values []string, h *Histogram)) {
	v.fam.mu.Lock()
	kids := make([]*Histogram, 0, len(v.fam.children))
	for _, c := range v.fam.children {
		kids = append(kids, c.(*Histogram))
	}
	v.fam.mu.Unlock()
	sort.Slice(kids, func(i, j int) bool { return joinKey(kids[i].vals) < joinKey(kids[j].vals) })
	for _, h := range kids {
		fn(h.vals, h)
	}
}

// DefBuckets are latency-shaped default buckets in seconds, from 1ms
// to ~100s — wide enough for both HTTP handling and task turnaround.
var DefBuckets = []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100}

// --- Exposition ---

// TextContentType is the Content-Type of the Prometheus text format.
const TextContentType = "text/plain; version=0.0.4; charset=utf-8"

// WritePrometheus runs the collect hooks and renders every family in
// the Prometheus text exposition format, families sorted by name and
// children sorted by label values.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.Lock()
	hooks := append([]func(){}, r.hooks...)
	r.mu.Unlock()
	for _, h := range hooks {
		h()
	}

	r.mu.Lock()
	names := append([]string(nil), r.order...)
	fams := make([]*family, len(names))
	for i, n := range names {
		fams[i] = r.families[n]
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	for _, f := range fams {
		f.mu.Lock()
		kids := make([]child, 0, len(f.children))
		for _, c := range f.children {
			kids = append(kids, c)
		}
		fn := f.fn
		f.mu.Unlock()
		sort.Slice(kids, func(i, j int) bool {
			return joinKey(kids[i].labelVals()) < joinKey(kids[j].labelVals())
		})
		if f.help != "" {
			fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		}
		fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind)
		if fn != nil {
			fmt.Fprintf(w, "%s %s\n", f.name, formatFloat(fn()))
			continue
		}
		for _, c := range kids {
			c.write(w, f, c.labelVals())
		}
	}
}

// --- helpers ---

// childFor returns f's child for the label values, made by mk from a
// copy of them on first use. The number of values must match f's labels.
func childFor[C child](f *family, values []string, mk func(vals []string) C) C {
	f.checkValues(values)
	f.mu.Lock()
	defer f.mu.Unlock()
	key := joinKey(values)
	if c, ok := f.children[key]; ok {
		return c.(C)
	}
	c := mk(append([]string(nil), values...))
	f.children[key] = c
	return c
}

// addFloat adds v to the float64 whose bits a holds.
func addFloat(a *atomic.Uint64, v float64) {
	for {
		old := a.Load()
		if a.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

func (f *family) checkValues(values []string) {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("gridobs: metric %q got %d label values, want %d (%v)",
			f.name, len(values), len(f.labels), f.labels))
	}
}

// joinKey builds a map key from label values; 0x1f never appears in
// sane label values and keeps distinct tuples distinct.
func joinKey(values []string) string { return strings.Join(values, "\x1f") }

func formatLabels(names, values []string) string {
	if len(names) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
