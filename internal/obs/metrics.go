// Package obs is the repo's dependency-free observability kit: a metrics
// registry (atomic counters, gauges, and lock-striped histograms) with
// Prometheus text-format exposition, plus a per-request Trace that records
// span timings as a job descends from the HTTP handler through the job
// manager and coloring session into the solver's supersteps.
//
// The package deliberately has no third-party dependencies and no
// knowledge of the service layer: the service registers its live
// histograms, publishes each stats field under the family its metric tag
// names at scrape time, and the solver records spans through a Trace it
// finds on the request context. Everything here is safe for concurrent use.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Labels name one metric within a family, e.g. {"endpoint": "/v1/estimate"}.
// Label order does not matter; exposition renders them sorted by name so
// the same set always produces the same series key.
type Labels map[string]string

// render produces the canonical `{k="v",...}` suffix ("" for no labels).
// The result doubles as the dedup key inside a family.
func (l Labels) render() string {
	if len(l) == 0 {
		return ""
	}
	keys := make([]string, 0, len(l))
	for k := range l {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l[k]))
		b.WriteString(`"`)
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabelValue applies the Prometheus text-format escapes: backslash,
// double quote, and newline are the only characters that need it.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

type metricKind uint8

const (
	counterKind metricKind = iota
	gaugeKind
	histogramKind
)

func (k metricKind) String() string {
	switch k {
	case counterKind:
		return "counter"
	case gaugeKind:
		return "gauge"
	default:
		return "histogram"
	}
}

// A family is one exposition block: a name, help text, a type, and every
// labeled series registered under it. Series are kept in first-creation
// order so repeated scrapes emit stable output.
type family struct {
	name string
	help string
	kind metricKind

	mu      sync.Mutex
	order   []string
	metrics map[string]any // label key → *Counter | *Gauge | *Histogram
}

// Registry owns an ordered set of metric families. The zero value is not
// usable; call NewRegistry. Family and series registration is idempotent:
// asking for an existing (name, labels) pair returns the same handle, so
// hot paths may re-resolve series without double registration — though
// they should cache the handle and skip the map lookups entirely.
type Registry struct {
	mu     sync.Mutex
	order  []*family
	byName map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

func (r *Registry) family(name, help string, kind metricKind) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.byName[name]; ok {
		if f.kind != kind {
			panic(fmt.Sprintf("obs: metric %q registered as both %s and %s", name, f.kind, kind))
		}
		return f
	}
	f := &family{name: name, help: help, kind: kind, metrics: make(map[string]any)}
	r.byName[name] = f
	r.order = append(r.order, f)
	return f
}

// series resolves (or creates) the labeled series inside f, using mk to
// build a fresh metric on first sight.
func (f *family) series(labels Labels, mk func(labelKey string) any) any {
	key := labels.render()
	f.mu.Lock()
	defer f.mu.Unlock()
	if m, ok := f.metrics[key]; ok {
		return m
	}
	m := mk(key)
	f.metrics[key] = m
	f.order = append(f.order, key)
	return m
}

// Counter registers (or fetches) a monotonically increasing counter.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	f := r.family(name, help, counterKind)
	return f.series(labels, func(k string) any { return &Counter{labels: k} }).(*Counter)
}

// Gauge registers (or fetches) a settable float gauge.
func (r *Registry) Gauge(name, help string, labels Labels) *Gauge {
	f := r.family(name, help, gaugeKind)
	return f.series(labels, func(k string) any { return &Gauge{labels: k} }).(*Gauge)
}

// Histogram registers (or fetches) a fixed-bucket histogram with the
// given upper bounds (strictly increasing; a +Inf bucket is implicit).
// Bounds are fixed at first registration: later calls with different
// bounds for the same family panic, since mixing bucket layouts inside
// one family would make the exposition unmergeable.
func (r *Registry) Histogram(name, help string, bounds []float64, labels Labels) *Histogram {
	f := r.family(name, help, histogramKind)
	h := f.series(labels, func(k string) any { return newHistogram(k, bounds) }).(*Histogram)
	if len(h.bounds) != len(bounds) {
		panic(fmt.Sprintf("obs: histogram %q re-registered with different bounds", name))
	}
	for i, b := range bounds {
		if h.bounds[i] != b {
			panic(fmt.Sprintf("obs: histogram %q re-registered with different bounds", name))
		}
	}
	return h
}

// A Counter is a monotonically increasing uint64. Set exists only for
// bridged counters — series whose authoritative cumulative value lives
// elsewhere (the service's stats snapshot) and is copied in at scrape
// time; hot-path code should use Inc/Add.
type Counter struct {
	labels string
	v      atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Set overwrites the value with an externally tracked cumulative total.
func (c *Counter) Set(n uint64) { c.v.Store(n) }

// Value returns the current total.
func (c *Counter) Value() uint64 { return c.v.Load() }

// A Gauge is a settable float64 (stored as atomic bits).
type Gauge struct {
	labels string
	bits   atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }
