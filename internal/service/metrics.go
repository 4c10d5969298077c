package service

import (
	"fmt"
	"maps"
	"reflect"
	"strconv"
	"strings"
	"sync"

	"repro/internal/coloring"
	"repro/internal/obs"
)

// Metric family names. The request and trial latency families are the
// contract the load generator and smoke test scrape for; renaming them is
// a wire-format change. Every other family is named by a Stats field's
// metric tag, after metricPrefix.
const (
	metricPrefix         = "subgraph_"
	metricRequestsTotal  = "subgraph_requests_total"
	metricRequestSeconds = "subgraph_request_seconds"
	metricTrialSeconds   = "subgraph_trial_seconds"
	metricPhaseSeconds   = "subgraph_phase_seconds"
	metricQueueWait      = "subgraph_queue_wait_seconds"
	metricSSEFlush       = "subgraph_sse_flush_seconds"
)

// Trace span names recorded by the service layer itself (the solver's
// phase names live in core). queueWait and the cache spans are serial
// sections of a job's timeline; sseFlush is a sink-only observation (the
// stream outlives the job, so it must not count against its wall time).
const (
	spanQueueWait   = "queueWait"
	spanCacheLookup = "cacheLookup"
	spanCacheStore  = "cacheStore"
	spanCacheReplay = "cacheReplay"
)

// metricsRecorder owns the service's obs.Registry and caches the series
// handles the hot paths touch, so recording a request or a solver phase
// is two map lookups under a small mutex at worst and usually none (the
// handle cache hits). Cumulative counters that already live in the
// layers' own stats structs (cache hits, lock waits, engine load…) are
// not double-tracked: at scrape time bridge walks the Stats snapshot and
// publishes each field under the family its metric tag names, so
// /metrics and /v1/stats can never disagree.
type metricsRecorder struct {
	reg *obs.Registry

	queueWait *obs.Histogram
	sseFlush  *obs.Histogram

	mu       sync.Mutex
	requests map[requestKey]*obs.Counter
	requestH map[string]*obs.Histogram
	trialH   map[string]*obs.Histogram
	phaseH   map[phaseKey]*obs.Histogram
}

type requestKey struct {
	endpoint string
	code     int
}

type phaseKey struct {
	phase   string
	backend string
}

// phaseBuckets resolve single supersteps on small graphs: they start at
// 10µs where the request-level buckets start at 100µs.
func phaseBuckets() []float64 { return obs.ExponentialBuckets(1e-5, 2, 18) }

func newMetricsRecorder() *metricsRecorder {
	reg := obs.NewRegistry()
	m := &metricsRecorder{
		reg: reg,
		queueWait: reg.Histogram(metricQueueWait,
			"Time jobs spent queued before a worker picked their flight up.",
			obs.DefSecondsBuckets(), nil),
		sseFlush: reg.Histogram(metricSSEFlush,
			"Per-event write+flush time of the SSE progress fan-out.",
			phaseBuckets(), nil),
		requests: make(map[requestKey]*obs.Counter),
		requestH: make(map[string]*obs.Histogram),
		trialH:   make(map[string]*obs.Histogram),
		phaseH:   make(map[phaseKey]*obs.Histogram),
	}
	return m
}

// observeRequest records one finished HTTP request.
func (m *metricsRecorder) observeRequest(endpoint string, code int, seconds float64) {
	m.mu.Lock()
	rk := requestKey{endpoint: endpoint, code: code}
	c, ok := m.requests[rk]
	if !ok {
		c = m.reg.Counter(metricRequestsTotal,
			"HTTP requests served, by route pattern and status code.",
			obs.Labels{"endpoint": endpoint, "code": strconv.Itoa(code)})
		m.requests[rk] = c
	}
	h, ok := m.requestH[endpoint]
	if !ok {
		h = m.reg.Histogram(metricRequestSeconds,
			"HTTP request latency, by route pattern.",
			obs.DefSecondsBuckets(), obs.Labels{"endpoint": endpoint})
		m.requestH[endpoint] = h
	}
	m.mu.Unlock()
	c.Inc()
	h.Observe(seconds)
}

func (m *metricsRecorder) trialHist(backend string) *obs.Histogram {
	m.mu.Lock()
	defer m.mu.Unlock()
	h, ok := m.trialH[backend]
	if !ok {
		h = m.reg.Histogram(metricTrialSeconds,
			"Per-trial solve time (one colorful count), by execution backend.",
			obs.DefSecondsBuckets(), obs.Labels{"backend": backend})
		m.trialH[backend] = h
	}
	return h
}

func (m *metricsRecorder) phaseHist(phase, backend string) *obs.Histogram {
	m.mu.Lock()
	defer m.mu.Unlock()
	pk := phaseKey{phase: phase, backend: backend}
	h, ok := m.phaseH[pk]
	if !ok {
		h = m.reg.Histogram(metricPhaseSeconds,
			"Per-span solver and service phase time (path/cycle/per-vertex joins, table merges, cache lookup/store), by phase and backend.",
			phaseBuckets(), obs.Labels{"phase": phase, "backend": backend})
		m.phaseH[pk] = h
	}
	return h
}

// traceSink returns the per-flight trace sink: every span and observation
// a job records — from the HTTP layer down to individual solver
// supersteps — lands in the aggregate histograms live, so /metrics
// reflects a long job while it runs, not only after it finishes.
func (m *metricsRecorder) traceSink(backend string) func(name string, seconds float64) {
	return func(name string, seconds float64) {
		switch name {
		case coloring.TrialMeasurement:
			m.trialHist(backend).Observe(seconds)
		case spanQueueWait:
			m.queueWait.Observe(seconds)
		default:
			m.phaseHist(name, backend).Observe(seconds)
		}
	}
}

// LatencySummary is the /v1/stats rendering of one latency histogram:
// count, mean, and interpolated p50/p95/p99 in milliseconds.
type LatencySummary struct {
	Count  uint64  `json:"count"`
	MeanMs float64 `json:"meanMs"`
	P50Ms  float64 `json:"p50Ms"`
	P95Ms  float64 `json:"p95Ms"`
	P99Ms  float64 `json:"p99Ms"`
}

// summaries renders one map of latency histograms, requestH or trialH, for
// /v1/stats.
func (m *metricsRecorder) summaries(hs map[string]*obs.Histogram) map[string]LatencySummary {
	m.mu.Lock()
	hs = maps.Clone(hs)
	m.mu.Unlock()
	out := make(map[string]LatencySummary, len(hs))
	for k, h := range hs {
		s := h.Snapshot()
		out[k] = LatencySummary{Count: s.Count, MeanMs: s.Mean() * 1e3,
			P50Ms: s.Quantile(0.50) * 1e3, P95Ms: s.Quantile(0.95) * 1e3, P99Ms: s.Quantile(0.99) * 1e3}
	}
	return out
}

// bridge publishes a Stats snapshot as scrape-time series, so /metrics is
// the same snapshot /v1/stats serves, walked. The stats structs stay the
// single source of truth: each numeric or bool field names its family in
// its metric tag (prefixed with subgraph_ here), and a name ending in
// _total is a counter, any other a gauge.
func (m *metricsRecorder) bridge(st Stats) { m.walk(reflect.ValueOf(st), nil) }

// walk publishes every tagged leaf under v. A leaf is a number, a bool
// (0/1) or a []string (its length); a ",ms" flag turns milliseconds into
// seconds. It descends into structs, non-nil pointers and slices, and a
// tag in braces is a label on what it encloses: {k=v} on a struct field is
// a constant label, {k} on a map field labels each value with its key, and
// {k} on a scalar field labels the fields of its struct that follow it
// with its value. metric:"-" leaves a field out.
func (m *metricsRecorder) walk(v reflect.Value, labels obs.Labels) {
	switch v.Kind() {
	case reflect.Pointer: // a nil one's Elem is the zero Value: nothing to walk
		m.walk(v.Elem(), labels)
	case reflect.Slice:
		for i := range v.Len() {
			m.walk(v.Index(i), labels)
		}
	case reflect.Struct:
		t := v.Type()
		for i := range t.NumField() {
			f, fv := t.Field(i), v.Field(i)
			switch name, ms := strings.CutSuffix(f.Tag.Get("metric"), ",ms"); {
			case name == "-":
			case name == "":
				m.walk(fv, labels)
			case name[0] != '{':
				m.set(metricPrefix+name, f.Tag.Get("help"), labels, fv, ms)
			default:
				key, val, constant := strings.Cut(name[1:len(name)-1], "=")
				switch {
				case constant:
					m.walk(fv, withLabel(labels, key, val))
				case fv.Kind() == reflect.Map:
					for it := fv.MapRange(); it.Next(); {
						m.walk(it.Value(), withLabel(labels, key, it.Key().String()))
					}
				default:
					labels = withLabel(labels, key, fmt.Sprint(fv))
				}
			}
		}
	}
}

// set publishes one leaf's value as the series labels of family name.
func (m *metricsRecorder) set(name, help string, labels obs.Labels, v reflect.Value, ms bool) {
	var n uint64
	var x float64
	switch {
	case v.Kind() == reflect.Bool:
		if v.Bool() {
			n, x = 1, 1
		}
	case v.Kind() == reflect.Slice:
		n, x = uint64(v.Len()), float64(v.Len())
	case v.CanInt():
		n, x = uint64(v.Int()), float64(v.Int())
	case v.CanUint():
		n, x = v.Uint(), float64(v.Uint())
	case v.CanFloat():
		n, x = uint64(v.Float()), v.Float()
	}
	if ms {
		x /= 1e3
	}
	if strings.HasSuffix(name, "_total") {
		m.reg.Counter(name, help, labels).Set(n)
	} else {
		m.reg.Gauge(name, help, labels).Set(x)
	}
}

// withLabel returns labels plus k=v, leaving labels as they were.
func withLabel(labels obs.Labels, k, v string) obs.Labels {
	out := obs.Labels{k: v}
	maps.Copy(out, labels)
	return out
}
