// Package telemetry is the pipeline-wide observability layer: a race-clean,
// allocation-light metrics registry (counters, gauges, bounded histograms,
// phase timers) with three sinks — a Prometheus-text / expvar / pprof HTTP
// endpoint, a Chrome trace-event writer for per-rank timelines, and a
// machine-readable run report that prints the paper's Table-2/3-style phase
// and load-balance breakdowns.
//
// Design (after ddtxn's stats/dlog split): instrumentation points update
// plain atomics and are safe to leave always-on; the sinks are opt-in and
// read the same atomics. Hot paths hold *Counter / *Histogram pointers
// obtained once at setup, so steady-state updates never touch the registry
// map or allocate.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one metric dimension (e.g. {Key: "rank", Value: "3"}).
type Label struct {
	Key, Value string
}

// Rank is shorthand for the per-rank label used throughout the pipeline.
func Rank(r int) Label { return Label{Key: "rank", Value: fmt.Sprint(r)} }

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic instantaneous value.
type Gauge struct{ v atomic.Int64 }

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the gauge by n.
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// SetMax raises the gauge to n if n is larger (high-water marks).
func (g *Gauge) SetMax(n int64) {
	for {
		cur := g.v.Load()
		if n <= cur || g.v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// FloatGauge is an atomic float64 value (ratios such as load skew).
type FloatGauge struct{ bits atomic.Uint64 }

// Set replaces the gauge value.
func (g *FloatGauge) Set(v float64) { g.bits.Store(floatBits(v)) }

// Value returns the current value.
func (g *FloatGauge) Value() float64 { return bitsFloat(g.bits.Load()) }

// Histogram is a bounded histogram over int64 observations: counts per
// bucket (upper-bound inclusive, last bucket unbounded) plus sum, count and
// max. All updates are atomic; Observe never allocates.
type Histogram struct {
	bounds []int64 // strictly increasing upper bounds; bucket i covers (bounds[i-1], bounds[i]]
	counts []atomic.Int64
	count  atomic.Int64
	sum    atomic.Int64
	max    atomic.Int64
}

// NewHistogram builds a standalone histogram (not registered anywhere) with
// the given strictly increasing upper bounds. An implicit +Inf bucket is
// always appended.
func NewHistogram(bounds []int64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("telemetry: histogram bounds not increasing at %d", i))
		}
	}
	b := append([]int64(nil), bounds...)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// ExpBounds returns n exponentially growing bounds start, start*factor, ….
func ExpBounds(start int64, factor float64, n int) []int64 {
	out := make([]int64, 0, n)
	v := float64(start)
	last := int64(0)
	for i := 0; i < n; i++ {
		b := int64(v)
		if b <= last {
			b = last + 1
		}
		out = append(out, b)
		last = b
		v *= factor
	}
	return out
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observations.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Max returns the largest observation (0 before any observation).
func (h *Histogram) Max() int64 { return h.max.Load() }

// Mean returns the mean observation (0 before any observation).
func (h *Histogram) Mean() float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// Buckets returns (upper bound, count) pairs; the final pair has bound
// math.MaxInt64 standing in for +Inf. Counts are non-cumulative.
func (h *Histogram) Buckets() ([]int64, []int64) {
	bounds := make([]int64, len(h.counts))
	counts := make([]int64, len(h.counts))
	copy(bounds, h.bounds)
	bounds[len(bounds)-1] = int64(^uint64(0) >> 1)
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return bounds, counts
}

// Quantile returns an upper-bound estimate of the q-quantile (q in [0,1]).
func (h *Histogram) Quantile(q float64) int64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	target := int64(q * float64(total))
	if target < 1 {
		target = 1
	}
	var acc int64
	for i := range h.counts {
		acc += h.counts[i].Load()
		if acc >= target {
			if i < len(h.bounds) {
				return h.bounds[i]
			}
			return h.Max()
		}
	}
	return h.Max()
}

type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindFloatGauge
	kindHistogram
)

// metricEntry is one registered metric instance (family + label set).
type metricEntry struct {
	family string
	labels string // rendered `k1="v1",k2="v2"`, sorted by key; "" when unlabeled
	kind   metricKind
	c      *Counter
	g      *Gauge
	f      *FloatGauge
	h      *Histogram
}

// Registry holds named metrics. Get-or-create accessors are safe for
// concurrent use; hot paths should call them once and keep the returned
// pointer.
type Registry struct {
	mu      sync.Mutex
	entries map[string]*metricEntry
	help    map[string]string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: map[string]*metricEntry{}, help: map[string]string{}}
}

// Help attaches a Prometheus HELP string to a metric family.
func (r *Registry) Help(family, text string) {
	r.mu.Lock()
	r.help[family] = text
	r.mu.Unlock()
}

func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
	}
	return b.String()
}

func metricKey(family, labels string) string {
	if labels == "" {
		return family
	}
	return family + "{" + labels + "}"
}

// get returns the entry for (family, labels), creating it with mk on first
// use. A family must keep one kind; a kind clash panics (programming error).
func (r *Registry) get(family string, kind metricKind, labels []Label, mk func(*metricEntry)) *metricEntry {
	if family == "" {
		panic("telemetry: empty metric family")
	}
	key := metricKey(family, renderLabels(labels))
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.entries[key]; ok {
		if e.kind != kind {
			panic(fmt.Sprintf("telemetry: metric %s re-registered with a different kind", key))
		}
		return e
	}
	e := &metricEntry{family: family, labels: renderLabels(labels), kind: kind}
	mk(e)
	r.entries[key] = e
	return e
}

// Counter returns the counter for the family and labels, creating it on
// first use.
func (r *Registry) Counter(family string, labels ...Label) *Counter {
	return r.get(family, kindCounter, labels, func(e *metricEntry) { e.c = &Counter{} }).c
}

// Gauge returns the gauge for the family and labels.
func (r *Registry) Gauge(family string, labels ...Label) *Gauge {
	return r.get(family, kindGauge, labels, func(e *metricEntry) { e.g = &Gauge{} }).g
}

// FloatGauge returns the float gauge for the family and labels.
func (r *Registry) FloatGauge(family string, labels ...Label) *FloatGauge {
	return r.get(family, kindFloatGauge, labels, func(e *metricEntry) { e.f = &FloatGauge{} }).f
}

// Histogram returns the histogram for the family and labels, creating it
// with the given bounds on first use (later calls ignore bounds).
func (r *Registry) Histogram(family string, bounds []int64, labels ...Label) *Histogram {
	return r.get(family, kindHistogram, labels, func(e *metricEntry) { e.h = NewHistogram(bounds) }).h
}

// sortedEntries snapshots the entries ordered by (family, labels) for
// deterministic export.
func (r *Registry) sortedEntries() []*metricEntry {
	r.mu.Lock()
	out := make([]*metricEntry, 0, len(r.entries))
	for _, e := range r.entries {
		out = append(out, e)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].family != out[j].family {
			return out[i].family < out[j].family
		}
		return out[i].labels < out[j].labels
	})
	return out
}

// Snapshot flattens every metric to name → value. Histograms contribute
// _count, _sum and _max pseudo-series. Keys carry rendered labels.
func (r *Registry) Snapshot() map[string]float64 {
	out := map[string]float64{}
	for _, e := range r.sortedEntries() {
		key := metricKey(e.family, e.labels)
		switch e.kind {
		case kindCounter:
			out[key] = float64(e.c.Value())
		case kindGauge:
			out[key] = float64(e.g.Value())
		case kindFloatGauge:
			out[key] = e.f.Value()
		case kindHistogram:
			out[metricKey(e.family+"_count", e.labels)] = float64(e.h.Count())
			out[metricKey(e.family+"_sum", e.labels)] = float64(e.h.Sum())
			out[metricKey(e.family+"_max", e.labels)] = float64(e.h.Max())
		}
	}
	return out
}

func floatBits(v float64) uint64 { return math.Float64bits(v) }
func bitsFloat(b uint64) float64 { return math.Float64frombits(b) }
