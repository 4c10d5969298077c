// Command sgload is a closed-loop load generator for sgserve: a fixed
// number of workers each issue one /v1/estimate request at a time against
// a seeded mix of graphs, queries, and coloring seeds, and the run ends in
// a machine-readable JSON report (throughput, latency percentiles, cache
// hit and coalesce rates, and the server's own lock-wait counters).
// The workload is deterministic given its flags, so reports of the same
// mix are comparable across commits.
//
// The cache-hit ratio is a first-class knob because it decides what is
// being measured: at -hit-ratio 1 every request after warmup is pure
// serving-layer work (registry acquire, cache lookup, job bookkeeping),
// while at 0 every request runs the solver and the report measures
// estimation throughput.
//
//	sgload -addr 127.0.0.1:8080 -c 32 -duration 10s -hit-ratio 0.9 -out report.json
//
// A target hit ratio h is achieved by drawing, with probability h, a
// coloring seed from a small hot set (cached after first touch) and
// otherwise a fresh never-seen seed (a guaranteed miss).
//
// Against a cluster (sgserve -peers), -endpoints round-robins every
// request across the replicas and the report grows a cluster section:
// per-endpoint throughput plus the cluster-wide forward and cache-hit
// rates, which is how to measure serving-tier scaling.
//
//	sgload -endpoints 127.0.0.1:8081,127.0.0.1:8082,127.0.0.1:8083 -c 32 -duration 10s
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	subgraph "repro"
)

type config struct {
	Addr string `json:"addr"`
	// Endpoints is the cluster mode: a comma-separated replica list the
	// workers round-robin over per request, so the load (and the hot key
	// set) spreads across every entry point the way a real client-side
	// balancer would spread it. Empty means single-server mode on Addr.
	Endpoints string  `json:"endpoints,omitempty"`
	Workers   int     `json:"workers"`
	Duration  string  `json:"duration"`
	Warmup    string  `json:"warmup"`
	Graphs    int     `json:"graphs"`
	GraphN    int     `json:"graphN"`
	Alpha     float64 `json:"alpha"`
	Queries   string  `json:"queries"`
	Trials    int     `json:"trials"`
	Ranks     int     `json:"ranks"`
	Backend   string  `json:"backend,omitempty"`
	HitRatio  float64 `json:"hitRatio"`
	HotSeeds  int     `json:"hotSeeds"`
	Seed      int64   `json:"seed"`
	Label     string  `json:"label,omitempty"`

	// Precision-targeted traffic. RelErr > 0 sends every request with a
	// precision object instead of a fixed trial count; PrecisionMix mixes
	// tiers ("relErr:weight,..." — a 0 relErr tier sends fixed-trial
	// requests), modeling clients with different accuracy needs sharing
	// one trial cache.
	RelErr       float64 `json:"relErr,omitempty"`
	Confidence   float64 `json:"confidence,omitempty"`
	PrecisionMix string  `json:"precisionMix,omitempty"`
	MaxTrials    int     `json:"maxTrials,omitempty"`
}

// tier is one precision class of the workload mix; cum is the cumulative
// probability used when drawing.
type tier struct {
	relErr float64
	cum    float64
}

// name labels the tier in the per-tier latency breakdown.
func (t tier) name() string {
	if t.relErr <= 0 {
		return "fixed"
	}
	return fmt.Sprintf("relErr=%g", t.relErr)
}

// parseMix turns "0:0.4,0.1:0.3,0.02:0.3" into cumulative tiers. Weights
// are normalized; a single -relerr run is the one-tier special case.
func parseMix(cfg *config) ([]tier, error) {
	raw := cfg.PrecisionMix
	if raw == "" {
		if cfg.RelErr > 0 {
			return []tier{{relErr: cfg.RelErr, cum: 1}}, nil
		}
		return nil, nil
	}
	var tiers []tier
	var total float64
	for _, part := range strings.Split(raw, ",") {
		re, weight, ok := strings.Cut(strings.TrimSpace(part), ":")
		if !ok {
			return nil, fmt.Errorf("bad -precision-mix entry %q (want relErr:weight)", part)
		}
		var t tier
		if _, err := fmt.Sscanf(re, "%g", &t.relErr); err != nil {
			return nil, fmt.Errorf("bad relErr in -precision-mix entry %q: %v", part, err)
		}
		var w float64
		if _, err := fmt.Sscanf(weight, "%g", &w); err != nil || w <= 0 {
			return nil, fmt.Errorf("bad weight in -precision-mix entry %q", part)
		}
		total += w
		t.cum = total
		tiers = append(tiers, t)
	}
	for i := range tiers {
		tiers[i].cum /= total
	}
	return tiers, nil
}

// latencySummary is the percentile rollup of observed request latencies.
type latencySummary struct {
	MeanMS float64 `json:"meanMs"`
	P50MS  float64 `json:"p50Ms"`
	P95MS  float64 `json:"p95Ms"`
	P99MS  float64 `json:"p99Ms"`
	MaxMS  float64 `json:"maxMs"`
}

// clusterClientStats is the report's cluster-mode section (-endpoints):
// per-endpoint client throughput plus the cluster-wide forward and
// cache-hit rates aggregated from every replica's /v1/stats: the numbers
// that prove (or refute) serving-tier scaling.
type clusterClientStats struct {
	Endpoints []endpointReport `json:"endpoints"`
	// ForwardRate is forwards / client requests across the cluster: the
	// fraction of requests that cost an extra proxy hop. With E replicas
	// and uniform entry choice it converges to (E-1)/E.
	ForwardRate float64 `json:"forwardRate"`
	// CacheHitRate aggregates the replicas' own cache counters; in a
	// healthy cluster it matches the client-observed rate because every
	// key has exactly one home doing its caching.
	CacheHitRate    float64 `json:"cacheHitRate"`
	Forwards        uint64  `json:"forwards"`
	ForwardErrors   uint64  `json:"forwardErrors"`
	LocalFallbacks  uint64  `json:"localFallbacks"`
	ForwardedServed uint64  `json:"forwardedServed"`
}

// endpointReport is one replica's share of a cluster-mode run.
type endpointReport struct {
	Addr          string  `json:"addr"`
	Requests      uint64  `json:"requests"`
	ThroughputRPS float64 `json:"throughputRps"`
	// ServerEstimates is the replica's own /v1/estimate count over its
	// lifetime (entry + forwarded-in requests), from its /v1/stats.
	ServerEstimates uint64 `json:"serverEstimates"`
	Forwards        uint64 `json:"forwards"`
	ForwardedServed uint64 `json:"forwardedServed"`
	LocalFallbacks  uint64 `json:"localFallbacks"`
}

// metricsCheck cross-checks the server's own request accounting against
// the client's: the delta of subgraph_requests_total{endpoint="/v1/estimate"}
// across the measured window (scraped from /metrics before and after)
// must equal the requests this process actually issued. A mismatch means
// either the exposition or the load loop is miscounting — both are bugs
// worth failing a benchmark read over. In cluster mode the scrape sums
// every endpoint and subtracts the forwarded-request delta: a proxied
// estimate is counted by both its entry replica and its home, but the
// client issued it once.
type metricsCheck struct {
	ServerRequests uint64 `json:"serverRequests"`
	ClientRequests uint64 `json:"clientRequests"`
	Match          bool   `json:"match"`
}

// report is the machine-readable output, in one flat document.
type report struct {
	Label         string         `json:"label,omitempty"`
	Config        config         `json:"config"`
	Requests      uint64         `json:"requests"`
	Errors        uint64         `json:"errors"`
	DurationSec   float64        `json:"durationSec"`
	ThroughputRPS float64        `json:"throughputRps"`
	Latency       latencySummary `json:"latencyMs"`
	CacheHits     uint64         `json:"cacheHits"`
	CacheMisses   uint64         `json:"cacheMisses"`
	CacheHitRate  float64        `json:"cacheHitRate"`
	CoalesceRate  float64        `json:"coalesceRate"`
	// TrialsSaved and ExtendedRate summarize the precision economy of the
	// run: trials the server's adaptive stops skipped versus the requests'
	// worst-case bounds, and the share of cache lookups that found a
	// reusable-but-short entry and extended it instead of recomputing.
	TrialsSaved  uint64  `json:"trialsSaved,omitempty"`
	ExtendedRate float64 `json:"extendedRate,omitempty"`
	// Server is the server's own /v1/stats document at the end of the run,
	// so a report is self-describing about what the server did.
	Server subgraph.ServiceStats `json:"server"`
	// LatencyByTier breaks the client-observed latency out per precision
	// tier of the mix ("fixed" for fixed-trial requests): the tiers share
	// one trial cache, so their relative percentiles show what a tight
	// accuracy target costs over a loose one.
	LatencyByTier map[string]latencySummary `json:"latencyByTierMs,omitempty"`
	// Metrics is the server-vs-client request-count cross-check scraped
	// from /metrics (nil when the scrape failed).
	Metrics *metricsCheck `json:"metricsCheck,omitempty"`
	// Cluster is the multi-endpoint rollup (nil outside -endpoints runs):
	// per-replica throughput and cluster-wide forward/cache-hit rates.
	Cluster *clusterClientStats `json:"cluster,omitempty"`
}

// worker is one closed-loop client: it owns a private RNG (derived from
// the global seed and its index, so runs are reproducible at any
// concurrency) and issues requests back to back until the deadline.
type worker struct {
	rng    *rand.Rand
	client *http.Client
	// bases is the endpoint set; single-server runs have one entry.
	// Cluster runs pick one per request off the shared round-robin
	// counter, so every replica sees an equal slice of the identical mix.
	bases     []string
	rr        *atomic.Uint64
	cfg       *config
	graphs    []string
	queries   []string
	hot       []int64
	tiers     []tier // precision mix; empty = fixed-trial requests only
	durations []time.Duration
	tierDur   map[string][]time.Duration // per-tier latency (mix runs only)

	requests uint64
	errors   uint64
	hits     uint64
	misses   uint64
	// perEndpoint counts measured requests by bases index.
	perEndpoint []uint64
}

// coldSeed hands out never-repeating coloring seeds far above the hot
// range, so a "miss" request can never collide with a hot key or another
// cold one.
var coldSeed atomic.Int64

func (w *worker) run(deadline time.Time, record bool) {
	for time.Now().Before(deadline) {
		seed := w.hot[w.rng.Intn(len(w.hot))]
		if w.rng.Float64() >= w.cfg.HitRatio {
			seed = 1_000_000 + coldSeed.Add(1)
		}
		req := map[string]any{
			"graph":  w.graphs[w.rng.Intn(len(w.graphs))],
			"query":  w.queries[w.rng.Intn(len(w.queries))],
			"trials": w.cfg.Trials,
			"ranks":  w.cfg.Ranks,
			"seed":   seed,
		}
		if w.cfg.Backend != "" {
			req["backend"] = w.cfg.Backend
		}
		tierName := ""
		if len(w.tiers) > 0 {
			// Draw this request's precision tier. Tiers share graph, query,
			// and seed streams, so a tight tier extends the trials a loose
			// tier (or the fixed-trial tier) already cached.
			draw := w.rng.Float64()
			picked := w.tiers[len(w.tiers)-1]
			for _, t := range w.tiers {
				if draw < t.cum {
					picked = t
					break
				}
			}
			tierName = picked.name()
			if picked.relErr > 0 {
				prec := map[string]any{"relErr": picked.relErr}
				if w.cfg.Confidence > 0 {
					prec["confidence"] = w.cfg.Confidence
				}
				if w.cfg.MaxTrials > 0 {
					prec["maxTrials"] = w.cfg.MaxTrials
				}
				req["precision"] = prec
			}
		}
		body, err := json.Marshal(req)
		if err != nil {
			log.Fatalf("sgload: marshal: %v", err)
		}
		idx := 0
		if len(w.bases) > 1 {
			idx = int(w.rr.Add(1) % uint64(len(w.bases)))
		}
		start := time.Now()
		resp, err := w.client.Post(w.bases[idx]+"/v1/estimate", "application/json", bytes.NewReader(body))
		elapsed := time.Since(start)
		if !record {
			if err == nil {
				drain(resp)
			}
			continue
		}
		w.requests++
		w.perEndpoint[idx]++
		if err != nil {
			w.errors++
			continue
		}
		if resp.StatusCode != http.StatusOK {
			w.errors++
		} else {
			w.durations = append(w.durations, elapsed)
			if tierName != "" {
				if w.tierDur == nil {
					w.tierDur = make(map[string][]time.Duration)
				}
				w.tierDur[tierName] = append(w.tierDur[tierName], elapsed)
			}
			if resp.Header.Get("X-Cache") == "HIT" {
				w.hits++
			} else {
				w.misses++
			}
		}
		drain(resp)
	}
}

func drain(resp *http.Response) {
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // connection reuse is best effort
	resp.Body.Close()
}

func main() {
	var cfg config
	flag.StringVar(&cfg.Addr, "addr", "127.0.0.1:8080", "sgserve address (host:port)")
	flag.StringVar(&cfg.Endpoints, "endpoints", "", "comma-separated cluster replica addresses, round-robined per request (overrides -addr)")
	flag.IntVar(&cfg.Workers, "c", 32, "concurrent closed-loop workers")
	duration := flag.Duration("duration", 10*time.Second, "measured run length")
	warmup := flag.Duration("warmup", time.Second, "unmeasured warmup before the run")
	flag.IntVar(&cfg.Graphs, "graphs", 4, "power-law graphs to register and spread load across")
	flag.IntVar(&cfg.GraphN, "graph-n", 1000, "vertices per generated graph")
	flag.Float64Var(&cfg.Alpha, "alpha", 1.6, "power-law exponent of the generated graphs")
	flag.StringVar(&cfg.Queries, "queries", "path3,cycle4,star4,glet1", "comma-separated query mix")
	flag.IntVar(&cfg.Trials, "trials", 1, "trials per estimate")
	flag.IntVar(&cfg.Ranks, "ranks", 1, "engine ranks (sim) or workers (parallel) per estimate")
	flag.StringVar(&cfg.Backend, "backend", "", "execution backend sent with every request: sim, parallel, or dist (empty = server default)")
	flag.Float64Var(&cfg.HitRatio, "hit-ratio", 0.9, "target cache-hit ratio in [0,1]")
	flag.IntVar(&cfg.HotSeeds, "hot", 64, "size of the hot key set backing the hit ratio")
	flag.Int64Var(&cfg.Seed, "seed", 1, "workload RNG seed (equal seeds replay the same mix)")
	flag.StringVar(&cfg.Label, "label", "", "label recorded in the report (e.g. parent/change)")
	flag.Float64Var(&cfg.RelErr, "relerr", 0, "send every request with this precision target instead of fixed trials")
	flag.Float64Var(&cfg.Confidence, "confidence", 0, "confidence level sent with precision requests (0 = server default 0.95)")
	flag.StringVar(&cfg.PrecisionMix, "precision-mix", "", "mixed precision tiers, e.g. '0:0.4,0.1:0.3,0.02:0.3' (relErr:weight; relErr 0 = fixed-trial tier)")
	flag.IntVar(&cfg.MaxTrials, "max-trials", 0, "maxTrials sent with precision requests (0 = server default)")
	out := flag.String("out", "", "write the JSON report here (default stdout)")
	flag.Parse()
	cfg.Duration = duration.String()
	cfg.Warmup = warmup.String()
	if cfg.HitRatio < 0 || cfg.HitRatio > 1 {
		log.Fatalf("sgload: -hit-ratio %g outside [0,1]", cfg.HitRatio)
	}
	if cfg.Workers <= 0 || cfg.Graphs <= 0 || cfg.HotSeeds <= 0 {
		log.Fatal("sgload: -c, -graphs, and -hot must be positive")
	}
	tiers, err := parseMix(&cfg)
	if err != nil {
		log.Fatalf("sgload: %v", err)
	}

	bases := []string{"http://" + cfg.Addr}
	if cfg.Endpoints != "" {
		bases = bases[:0]
		for _, a := range strings.Split(cfg.Endpoints, ",") {
			if a = strings.TrimSpace(a); a != "" {
				bases = append(bases, "http://"+a)
			}
		}
		if len(bases) == 0 {
			log.Fatal("sgload: -endpoints has no addresses")
		}
	}
	client := &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        (cfg.Workers + 4) * len(bases),
			MaxIdleConnsPerHost: cfg.Workers + 4,
		},
	}

	for _, base := range bases {
		waitHealthy(client, base)
	}

	// Register the graph mix on every endpoint: cluster replicas route by
	// trial key but load graphs locally, so each needs the specs.
	// Re-registering is free, so a shared server (or a retry) is harmless.
	graphs := make([]string, cfg.Graphs)
	for i := range graphs {
		graphs[i] = fmt.Sprintf("load%d", i)
		spec := map[string]any{"powerlaw": cfg.GraphN, "alpha": cfg.Alpha, "seed": 100 + i, "name": graphs[i]}
		body, err := json.Marshal(spec)
		if err != nil {
			log.Fatalf("sgload: marshal: %v", err)
		}
		for _, base := range bases {
			resp, err := client.Post(base+"/v1/graphs", "application/json", bytes.NewReader(body))
			if err != nil {
				log.Fatalf("sgload: register %s at %s: %v", graphs[i], base, err)
			}
			if resp.StatusCode != http.StatusOK {
				b, _ := io.ReadAll(resp.Body)
				log.Fatalf("sgload: register %s at %s: %d: %s", graphs[i], base, resp.StatusCode, b)
			}
			drain(resp)
		}
	}

	queries := strings.Split(cfg.Queries, ",")
	for i := range queries {
		queries[i] = strings.TrimSpace(queries[i])
	}
	hot := make([]int64, cfg.HotSeeds)
	for i := range hot {
		hot[i] = int64(i + 1)
	}

	var rr atomic.Uint64
	workers := make([]*worker, cfg.Workers)
	for i := range workers {
		workers[i] = &worker{
			rng:         rand.New(rand.NewSource(cfg.Seed + int64(i)*7919)),
			client:      client,
			bases:       bases,
			rr:          &rr,
			cfg:         &cfg,
			graphs:      graphs,
			queries:     queries,
			hot:         hot,
			tiers:       tiers,
			durations:   make([]time.Duration, 0, 1<<16),
			perEndpoint: make([]uint64, len(bases)),
		}
	}

	runPhase := func(d time.Duration, record bool) time.Duration {
		start := time.Now()
		deadline := start.Add(d)
		var wg sync.WaitGroup
		for _, w := range workers {
			wg.Add(1)
			go func(w *worker) {
				defer wg.Done()
				w.run(deadline, record)
			}(w)
		}
		wg.Wait()
		return time.Since(start)
	}
	if *warmup > 0 {
		log.Printf("sgload: warming up for %s", warmup)
		runPhase(*warmup, false)
	}
	// Scrape /metrics at the two quiet points bracketing the measured
	// window (workers quiesced, nothing in flight), so the server-side
	// request-count delta is attributable to exactly the measured phase.
	before, fwdBefore, beforeErr := scrapeEstimateRequests(client, bases)
	log.Printf("sgload: measuring %d workers for %s against %d endpoint(s)", cfg.Workers, duration, len(bases))
	measured := runPhase(*duration, true)
	after, fwdAfter, afterErr := scrapeEstimateRequests(client, bases)

	rep := summarize(&cfg, workers, measured)
	rep.Server = fetchServerStats(client, bases[0])
	if len(bases) > 1 {
		rep.Cluster = clusterRollup(client, bases, workers, rep.DurationSec)
	}
	if beforeErr != nil || afterErr != nil {
		log.Printf("sgload: metrics scrape failed (before: %v, after: %v) — skipping cross-check", beforeErr, afterErr)
	} else {
		// Forwarded estimates are counted by entry and home both; the
		// forwarded-served delta removes the double count.
		serverReqs := (after - before) - (fwdAfter - fwdBefore)
		rep.Metrics = &metricsCheck{
			ServerRequests: serverReqs,
			ClientRequests: rep.Requests,
			Match:          serverReqs == rep.Requests,
		}
		if !rep.Metrics.Match {
			log.Printf("sgload: WARNING: server counted %d /v1/estimate requests in the measured window, client issued %d",
				rep.Metrics.ServerRequests, rep.Metrics.ClientRequests)
		}
	}
	if rep.Server.Jobs.Submitted > 0 {
		rep.CoalesceRate = float64(rep.Server.Jobs.Coalesced) / float64(rep.Server.Jobs.Submitted)
	}
	rep.TrialsSaved = rep.Server.Precision.TrialsSaved
	if n := rep.Server.Cache.Hits + rep.Server.Cache.Misses; n > 0 {
		rep.ExtendedRate = float64(rep.Server.Cache.Extended) / float64(n)
	}

	var sink io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatalf("sgload: %v", err)
		}
		defer f.Close()
		sink = f
	}
	enc := json.NewEncoder(sink)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		log.Fatalf("sgload: write report: %v", err)
	}
	log.Printf("sgload: %d requests in %.2fs = %.1f req/s (p50 %.2fms, p99 %.2fms, hit rate %.3f, errors %d)",
		rep.Requests, rep.DurationSec, rep.ThroughputRPS,
		rep.Latency.P50MS, rep.Latency.P99MS, rep.CacheHitRate, rep.Errors)
	if rep.Cluster != nil {
		for _, ep := range rep.Cluster.Endpoints {
			log.Printf("sgload:   endpoint %s: %d requests = %.1f req/s (forwards %d, forwarded-in %d, fallbacks %d)",
				ep.Addr, ep.Requests, ep.ThroughputRPS, ep.Forwards, ep.ForwardedServed, ep.LocalFallbacks)
		}
		log.Printf("sgload: cluster: forward rate %.3f, server-side hit rate %.3f",
			rep.Cluster.ForwardRate, rep.Cluster.CacheHitRate)
	}
	if p := rep.Server.Precision; p.Requests > 0 {
		log.Printf("sgload: precision: %d targeted requests, %d early stops, %d trials saved, cache extended %d (rate %.3f)",
			p.Requests, p.EarlyStops, p.TrialsSaved, rep.Server.Cache.Extended, rep.ExtendedRate)
	}
	if rep.Errors > rep.Requests/10 {
		log.Fatalf("sgload: error rate %.1f%% exceeds 10%% — not a valid benchmark run",
			100*float64(rep.Errors)/float64(rep.Requests))
	}
}

// waitHealthy polls /healthz so sgload can be started alongside sgserve.
func waitHealthy(client *http.Client, base string) {
	for i := 0; i < 100; i++ {
		resp, err := client.Get(base + "/healthz")
		if err == nil {
			drain(resp)
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(100 * time.Millisecond)
	}
	log.Fatalf("sgload: server at %s never became healthy", base)
}

// summarizeDurations sorts (in place) and rolls one latency population up
// into mean/p50/p95/p99/max milliseconds.
func summarizeDurations(all []time.Duration) latencySummary {
	if len(all) == 0 {
		return latencySummary{}
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	var sum time.Duration
	for _, d := range all {
		sum += d
	}
	ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
	quantile := func(q float64) time.Duration {
		i := int(q * float64(len(all)-1))
		return all[i]
	}
	return latencySummary{
		MeanMS: ms(sum / time.Duration(len(all))),
		P50MS:  ms(quantile(0.50)),
		P95MS:  ms(quantile(0.95)),
		P99MS:  ms(quantile(0.99)),
		MaxMS:  ms(all[len(all)-1]),
	}
}

func summarize(cfg *config, workers []*worker, measured time.Duration) report {
	rep := report{Label: cfg.Label, Config: *cfg, DurationSec: measured.Seconds()}
	var all []time.Duration
	byTier := make(map[string][]time.Duration)
	for _, w := range workers {
		rep.Requests += w.requests
		rep.Errors += w.errors
		rep.CacheHits += w.hits
		rep.CacheMisses += w.misses
		all = append(all, w.durations...)
		for name, ds := range w.tierDur {
			byTier[name] = append(byTier[name], ds...)
		}
	}
	if rep.DurationSec > 0 {
		rep.ThroughputRPS = float64(rep.Requests-rep.Errors) / rep.DurationSec
	}
	if n := rep.CacheHits + rep.CacheMisses; n > 0 {
		rep.CacheHitRate = float64(rep.CacheHits) / float64(n)
	}
	rep.Latency = summarizeDurations(all)
	if len(byTier) > 0 {
		rep.LatencyByTier = make(map[string]latencySummary, len(byTier))
		for name, ds := range byTier {
			rep.LatencyByTier[name] = summarizeDurations(ds)
		}
	}
	return rep
}

// scrapeEstimateRequests fetches every endpoint's /metrics and sums two
// families: the subgraph_requests_total series whose endpoint label is
// /v1/estimate (across all status codes), and the label-less
// subgraph_cluster_forwarded_served_total counter (0 outside cluster
// mode) the caller needs to un-double-count proxied requests. Counter
// values are non-negative integers rendered as floats, so ParseFloat +
// uint64 truncation is exact. A missing series reads as 0 — legitimate
// before the first estimate request (families are created lazily); a
// series missing after the run shows up as a Match failure instead.
func scrapeEstimateRequests(client *http.Client, bases []string) (estimates, forwardedServed uint64, err error) {
	for _, base := range bases {
		e, f, err := scrapeOneEndpoint(client, base)
		if err != nil {
			return 0, 0, err
		}
		estimates += e
		forwardedServed += f
	}
	return estimates, forwardedServed, nil
}

func scrapeOneEndpoint(client *http.Client, base string) (estimates, forwardedServed uint64, err error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, 0, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	var total, forwarded float64
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "subgraph_cluster_forwarded_served_total "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				return 0, 0, fmt.Errorf("bad sample value in %q: %v", line, err)
			}
			forwarded += v
			continue
		}
		rest, ok := strings.CutPrefix(line, "subgraph_requests_total{")
		if !ok {
			continue
		}
		end := strings.IndexByte(rest, '}')
		if end < 0 {
			return 0, 0, fmt.Errorf("unterminated label block in %q", line)
		}
		if !strings.Contains(rest[:end], `endpoint="/v1/estimate"`) {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rest[end+1:]), 64)
		if err != nil {
			return 0, 0, fmt.Errorf("bad sample value in %q: %v", line, err)
		}
		total += v
	}
	if err := sc.Err(); err != nil {
		return 0, 0, err
	}
	return uint64(total), uint64(forwarded), nil
}

// clusterRollup assembles the report's cluster section: each replica's
// share of the measured requests (the shared round-robin makes these
// near-equal by construction — the interesting number is the rate, which
// shows whether added replicas added capacity) plus the cluster-wide
// forward and cache-hit rates from the replicas' own counters.
func clusterRollup(client *http.Client, bases []string, workers []*worker, durationSec float64) *clusterClientStats {
	cl := &clusterClientStats{}
	var reqTotal, hits, misses uint64
	for i, base := range bases {
		var reqs uint64
		for _, w := range workers {
			reqs += w.perEndpoint[i]
		}
		reqTotal += reqs
		st := fetchServerStats(client, base)
		ep := endpointReport{
			Addr:            strings.TrimPrefix(base, "http://"),
			Requests:        reqs,
			ServerEstimates: st.Estimates,
		}
		if durationSec > 0 {
			ep.ThroughputRPS = float64(reqs) / durationSec
		}
		if c := st.Cluster; c != nil {
			ep.Forwards = c.Forwards
			ep.ForwardedServed = c.ForwardedServed
			ep.LocalFallbacks = c.LocalFallbacks
			cl.Forwards += c.Forwards
			cl.ForwardErrors += c.ForwardErrors
			cl.LocalFallbacks += c.LocalFallbacks
			cl.ForwardedServed += c.ForwardedServed
		}
		hits += st.Cache.Hits
		misses += st.Cache.Misses
		cl.Endpoints = append(cl.Endpoints, ep)
	}
	if reqTotal > 0 {
		cl.ForwardRate = float64(cl.Forwards) / float64(reqTotal)
	}
	if n := hits + misses; n > 0 {
		cl.CacheHitRate = float64(hits) / float64(n)
	}
	return cl
}

// fetchServerStats embeds the server's own view of the run; the coalesce
// rate is derived from it (coalescing happens server-side, invisibly to
// one client).
func fetchServerStats(client *http.Client, base string) subgraph.ServiceStats {
	var st subgraph.ServiceStats
	resp, err := client.Get(base + "/v1/stats")
	if err != nil {
		log.Printf("sgload: stats fetch failed: %v", err)
		return st
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		log.Printf("sgload: stats decode failed: %v", err)
	}
	return st
}
