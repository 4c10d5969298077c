package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/coloring"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/query"
	"repro/internal/service"
)

// The serving mix is the one BENCH_pr3–pr10 used (scripts/bench.sh), so
// the old trajectory stays comparable: four 1000-vertex power-law graphs
// with the generator seeds cmd/sgload registers, two cheap queries, eight
// hot colouring seeds, the parallel backend with one rank per job.
const (
	serveGraphs  = 4
	serveGraphN  = 1000
	serveAlpha   = 1.6
	serveHot     = 8
	serveClients = 2 // closed loop: each client waits for its reply
	serveWorkers = 2 // scheduler workers: the box has 2 cores
	// The window is cut into slices of sliceSec; each yields a rate and a
	// median latency. Noise on a shared host is one-sided — a busy neighbour
	// only ever slows a slice — so a run reports the quietest tenth of its
	// slices, pooled (README.md, "Quiet slices"). The whole-window figures,
	// stalls and all, go into the traced ledger as service.window_*.
	sliceSec   = 0.25
	quietShare = 0.1
	// minSlices keeps a -smoke window (a fraction of a second) sliced.
	minSlices  = 8
	missTrials = 3
	// sampleEvery is how often a serve-miss response is kept for
	// recomputation after the window.
	sampleEvery = 64
)

var serveQueries = []string{"path3", "cycle4"}

var quiet = slog.New(slog.NewTextHandler(io.Discard, nil))

func graphName(i int) string { return fmt.Sprintf("load%d", i) }

// server is one in-process replica: a service mounted through its own
// Handler on a real loopback listener, as cmd/sgserve mounts it.
type server struct {
	svc    *service.Service
	http   *http.Server
	base   string
	served chan error
}

// startServer boots a service on ln, registers the graph mix and starts
// serving. walDir, when non-empty, turns the durable log on.
func startServer(ln net.Listener, walDir string, cl *cluster.Cluster) (*server, error) {
	svc, err := service.Open(service.Options{
		Workers:    serveWorkers,
		Backend:    "parallel",
		Logger:     quiet,
		Cluster:    cl,
		Durability: service.DurabilityOptions{Dir: walDir, Fsync: "interval"},
	})
	if err != nil {
		return nil, err
	}
	for i := 0; i < serveGraphs; i++ {
		spec := service.GraphSpec{Name: graphName(i), PowerLawN: serveGraphN, Alpha: serveAlpha, Seed: int64(100 + i)}
		if _, err := svc.AddGraph(spec); err != nil {
			svc.Close()
			return nil, err
		}
	}
	s := &server{
		svc:    svc,
		http:   &http.Server{Handler: svc.Handler(), ErrorLog: slog.NewLogLogger(quiet.Handler(), slog.LevelError)},
		base:   "http://" + ln.Addr().String(),
		served: make(chan error, 1),
	}
	go func() { s.served <- s.http.Serve(ln) }()
	return s, nil
}

// stop closes the listener and every connection, waits for the serve
// loop to end, then closes the service (which flushes its log).
func (s *server) stop() {
	s.http.Close()
	<-s.served
	s.svc.Close()
}

func listen() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }

func newClient() *http.Client {
	return &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: serveClients},
	}
}

// A servingKey is one request of the mix.
type servingKey struct {
	graph, query string
	seed         int64
}

func (k servingKey) body(trials int) []byte {
	b, err := json.Marshal(service.EstimateRequest{Graph: k.graph, Query: k.query, Trials: trials, Ranks: 1, Seed: k.seed})
	if err != nil {
		panic(err) // a struct of strings and ints always marshals
	}
	return b
}

// post sends one estimate request and returns the body and cache header.
func post(c *http.Client, base string, body []byte) (resp []byte, hdr http.Header, err error) {
	r, err := c.Post(base+"/v1/estimate", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	defer r.Body.Close()
	resp, err = io.ReadAll(r.Body)
	if err != nil {
		return nil, nil, err
	}
	if r.StatusCode != http.StatusOK {
		return nil, nil, fmt.Errorf("HTTP %d: %s", r.StatusCode, bytes.TrimSpace(resp))
	}
	return resp, r.Header, nil
}

// direct computes what the service must have answered: the same seeded
// trials through coloring.RunContext on the registry's own graph.
func direct(svc *service.Service, k servingKey, trials int) (coloring.Estimate, error) {
	h, ok := svc.Registry().Acquire(k.graph)
	if !ok {
		return coloring.Estimate{}, fmt.Errorf("graph %s is not registered", k.graph)
	}
	defer h.Release()
	return coloring.RunContext(context.Background(), h.Graph(), query.MustByName(k.query), coloring.Options{
		Core: core.Options{Backend: "parallel", Workers: 1}, Trials: trials, Seed: k.seed,
	})
}

// sameEstimate checks a response body against a direct run.
func sameEstimate(body []byte, want coloring.Estimate) error {
	var got coloring.Estimate
	if err := json.Unmarshal(body, &got); err != nil {
		return err
	}
	if !slices.Equal(got.Counts, want.Counts) || got.Matches != want.Matches {
		return fmt.Errorf("served counts %v matches %v, direct run %v / %v", got.Counts, got.Matches, want.Counts, want.Matches)
	}
	return nil
}

// servingEnv is what set-up hands to the measured loop.
type servingEnv struct {
	srv    *server
	client *http.Client
	walDir string
	keys   []servingKey
	// bodies holds each warm key's verified response: a later hit must
	// replay it byte for byte.
	bodies map[servingKey][]byte
	// cold hands out colouring seeds no request has used: far above the
	// hot range, offset by -seed so equal seeds replay equal streams.
	cold atomic.Int64
}

func (e *servingEnv) stop() {
	e.client.CloseIdleConnections()
	e.srv.stop()
}

// servingSetup boots the server and warms one key per graph × query × hot
// seed: the first request must miss, the second must hit with identical
// bytes, and both must equal a direct coloring run.
func servingSetup(walDir string, cfg config, rec *recorder) (*servingEnv, error) {
	trials := 1
	env := &servingEnv{client: newClient(), walDir: walDir, bodies: map[servingKey][]byte{}}
	env.cold.Store(1<<40 + cfg.seed<<24)
	if walDir != "" {
		trials = missTrials
		if err := os.RemoveAll(walDir); err != nil { // an earlier round's log
			return nil, err
		}
	}
	ln, err := listen()
	if err != nil {
		return nil, err
	}
	if env.srv, err = startServer(ln, env.walDir, nil); err != nil {
		ln.Close()
		return nil, err
	}
	hot := rand.New(rand.NewSource(cfg.seed)).Perm(1 << 16)[:serveHot]
	if cfg.smoke {
		hot = hot[:2]
	}
	for g := 0; g < serveGraphs; g++ {
		for _, q := range serveQueries {
			for _, h := range hot {
				env.keys = append(env.keys, servingKey{graph: graphName(g), query: q, seed: int64(h + 1)})
			}
		}
	}
	for _, k := range env.keys {
		want, err := direct(env.srv.svc, k, trials)
		if err != nil {
			env.stop()
			return nil, err
		}
		for _, wantCache := range []string{"MISS", "HIT"} {
			rec.attempted++
			body, hdr, err := post(env.client, env.srv.base, k.body(trials))
			switch {
			case err != nil:
				rec.fail("warm-up %v: %v", k, err)
			case hdr.Get("X-Cache") != wantCache:
				rec.fail("warm-up %v: X-Cache %q, want %s", k, hdr.Get("X-Cache"), wantCache)
			case wantCache == "HIT" && !bytes.Equal(body, env.bodies[k]):
				rec.fail("warm-up %v: hit body differs from the miss body", k)
			default:
				if err := sameEstimate(body, want); err != nil {
					rec.fail("warm-up %v: %v", k, err)
				}
				env.bodies[k] = body
			}
		}
	}
	return env, nil
}

// A sample is a serve-miss response kept for recomputation.
type sample struct {
	key  servingKey
	body []byte
}

// client is one closed-loop caller.
type client struct {
	rng     *rand.Rand
	lat     []float64 // ms, one per answered request, in order
	first   []int     // first[s] indexes lat at the first request begun in slice s or later
	failed  []string
	samples []sample
}

// loop issues requests back to back until the window's slices are used up.
// Every response is checked: status, cache header, and — on hits — the
// exact bytes. In a traced run odd slices record no spans: the pair prices
// the span recording.
func (c *client) loop(env *servingEnv, miss bool, start time.Time, sliceDur time.Duration, slices int, tr *tracer, opBase int) {
	trials, wantCache := 1, "HIT"
	if miss {
		trials, wantCache = missTrials, "MISS"
	}
	for n := 0; ; n++ {
		begin := time.Now()
		slice := int(begin.Sub(start) / sliceDur)
		for len(c.first) <= min(slice, slices) {
			c.first = append(c.first, len(c.lat))
		}
		if slice >= slices {
			return
		}
		sliceTr := tr
		if slice%2 == 1 {
			sliceTr = nil
		}
		k := env.keys[c.rng.Intn(len(env.keys))]
		if miss {
			k.seed = env.cold.Add(1)
		}
		body := k.body(trials)
		op := opBase + n
		reqSpan := sliceTr.start("request", 0, op)
		postSpan := sliceTr.start("http.Post /v1/estimate", reqSpan, op)
		begin = time.Now()
		resp, hdr, err := post(env.client, env.srv.base, body)
		d := time.Since(begin)
		sliceTr.end(postSpan)
		switch {
		case err != nil:
			c.failed = append(c.failed, fmt.Sprintf("%v: %v", k, err))
		case hdr.Get("X-Cache") != wantCache:
			c.failed = append(c.failed, fmt.Sprintf("%v: X-Cache %q, want %s", k, hdr.Get("X-Cache"), wantCache))
		case !miss && !bytes.Equal(resp, env.bodies[k]):
			c.failed = append(c.failed, fmt.Sprintf("%v: hit body differs from the verified one", k))
		default:
			c.lat = append(c.lat, d.Seconds()*1e3)
			if miss && n%sampleEvery == 0 {
				c.samples = append(c.samples, sample{k, resp})
			}
		}
		sliceTr.end(reqSpan)
	}
}

// window is what the measured window of a serving workload produced.
type window struct {
	requests int
	seconds  float64   // slices × slice length
	rates    []float64 // per slice: requests/s
	p50Ms    []float64 // per slice: median latency
	latMs    []float64 // traced runs: every request of the window, sorted
	rssMB    float64   // VmHWM right after the last request
	quietOps float64   // requests/s over the quiet slices
	quietP50 float64   // median latency of the quiet slices' requests
	lagMax   int       // deepest WAL append queue seen during a traced window
	samples  []sample
}

// runWindow drives the closed loop for cfg.seconds and sorts what the
// clients measured into slices.
func runWindow(env *servingEnv, miss bool, cfg config, rec *recorder, tr *tracer) (window, error) {
	slices := int(cfg.seconds / sliceSec)
	sliceDur := time.Duration(sliceSec * float64(time.Second))
	if slices < minSlices {
		slices = minSlices
		sliceDur = time.Duration(cfg.seconds / minSlices * float64(time.Second))
	}
	clients := make([]*client, serveClients)
	for i := range clients {
		clients[i] = &client{rng: rand.New(rand.NewSource(cfg.seed + int64(i)*7919))}
	}
	var lag chan int
	done := make(chan struct{})
	if tr != nil && env.walDir != "" {
		lag = make(chan int, 1)
		go func() { lag <- watchLag(env.srv.svc, done) }()
	}
	start := time.Now()
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.loop(env, miss, start, sliceDur, slices, tr, i<<24)
		}()
	}
	wg.Wait()
	close(done)

	w := window{seconds: float64(slices) * sliceDur.Seconds()}
	var err error
	if w.rssMB, err = peakRSSMB(); err != nil { // before the bookkeeping below adds to it
		return w, err
	}
	if lag != nil {
		w.lagMax = <-lag
	}
	for _, c := range clients {
		w.requests += len(c.lat)
		w.samples = append(w.samples, c.samples...)
		rec.attempted += len(c.lat) + len(c.failed)
		for _, f := range c.failed {
			rec.fail("%s", f)
		}
	}
	// inSlice appends slice s's latencies, from every client, to buf.
	inSlice := func(buf []float64, s int) []float64 {
		for _, c := range clients {
			buf = append(buf, c.lat[c.first[s]:c.first[s+1]]...)
		}
		return buf
	}
	var buf []float64
	order := make([]int, slices)
	for s := range order {
		order[s] = s
		buf = inSlice(buf[:0], s)
		sort.Float64s(buf)
		w.rates = append(w.rates, float64(len(buf))/sliceDur.Seconds())
		w.p50Ms = append(w.p50Ms, percentile(buf, 50))
	}
	// The quiet slices are the ones that got the most requests through.
	sort.SliceStable(order, func(a, b int) bool { return w.rates[order[a]] > w.rates[order[b]] })
	quiet := order[:max(1, int(quietShare*float64(slices)))]
	buf = buf[:0]
	for _, s := range quiet {
		buf = inSlice(buf, s)
	}
	sort.Float64s(buf)
	w.quietOps = float64(len(buf)) / (float64(len(quiet)) * sliceDur.Seconds())
	w.quietP50 = percentile(buf, 50)
	if tr != nil { // the whole window, for service.window_*
		for s := range slices {
			w.latMs = inSlice(w.latMs, s)
		}
		sort.Float64s(w.latMs)
	}
	return w, nil
}

// watchLag polls the durable log's append-queue depth until done closes
// and returns the deepest it saw.
func watchLag(svc *service.Service, done <-chan struct{}) int {
	deepest := 0
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-done:
			return deepest
		case <-tick.C:
			if d := svc.Stats().Durable; d != nil {
				deepest = max(deepest, d.Lag)
			}
		}
	}
}

// servingWorkload returns the run function of serve-hit or serve-miss.
func servingWorkload(miss bool) func(config, *recorder, *tracer) error {
	return func(cfg config, rec *recorder, tr *tracer) error {
		// Planning the mix's queries is cold only once per process, so it is
		// timed here, ahead of the first boot, and counted into that round.
		planBegin := time.Now()
		for _, name := range serveQueries {
			if _, err := core.PickPlan(query.MustByName(name)); err != nil {
				return err
			}
		}
		pickPlan := time.Since(planBegin)

		var env *servingEnv
		walDir := ""
		if miss {
			walDir = filepath.Join(outDir, fmt.Sprintf("wal-%d", os.Getpid()))
		}
		defer func() {
			if env != nil {
				env.stop()
			}
			if walDir != "" {
				os.RemoveAll(walDir)
			}
		}()
		var setupS []float64
		for range setupRounds(cfg) {
			if env != nil {
				env.stop()
			}
			begin := time.Now()
			var err error
			if env, err = servingSetup(walDir, cfg, rec); err != nil {
				return err
			}
			setupS = append(setupS, time.Since(begin).Seconds())
		}
		setupS[0] += pickPlan.Seconds()
		rec.set("setup_s", median(setupS))
		rec.samples("setup_s", setupS)

		before, statsFrom := readProc(), env.srv.svc.Stats()
		w, err := runWindow(env, miss, cfg, rec, tr)
		if err != nil {
			return err
		}
		after, statsTo := readProc(), env.srv.svc.Stats()
		if w.requests == 0 {
			return fmt.Errorf("no request succeeded")
		}
		// The correctness gate for misses: the kept responses, recomputed.
		for _, s := range w.samples {
			rec.attempted++
			want, err := direct(env.srv.svc, s.key, missTrials)
			if err != nil {
				return err
			}
			if err := sameEstimate(s.body, want); err != nil {
				rec.fail("%v: %v", s.key, err)
			}
		}
		rec.set("ops_per_s", w.quietOps)
		rec.set("op_p50_ms", w.quietP50)
		rec.samples("ops_per_s", w.rates)
		rec.samples("op_p50_ms", w.p50Ms)
		rec.set("peak_rss_mb", w.rssMB)
		if !cfg.trace {
			return nil
		}

		rec.set("service.window_ops_per_s", float64(w.requests)/w.seconds)
		rec.set("service.window_p50_ms", percentile(w.latMs, 50))
		rec.set("service.window_p99_ms", percentile(w.latMs, 99))
		var traced, plain []float64 // even slices recorded spans, odd ones none
		for r, p50 := range w.p50Ms {
			if r%2 == 0 {
				traced = append(traced, p50)
			} else {
				plain = append(plain, p50)
			}
		}
		rec.set("obs.trace_overhead_pct", 100*(median(traced)/median(plain)-1))
		rec.set("durable.queue_lag_max", float64(w.lagMax))
		rec.set("core.pickplan_cold_ms", pickPlan.Seconds()*1e3)
		procMetrics(rec, before, after, w.requests)
		statsMetrics(rec, statsFrom, statsTo, w.requests)
		jobTraceMetrics(env.srv.svc, rec)

		// The layer probes run on the mix's first graph (same generator
		// call the registry made for it) and its costlier query.
		var g *graph.Graph
		rec.set("gen.build_s", tr.probe("gen.PowerLawGraph", func() {
			g = gen.PowerLawGraph(graphName(0), serveGraphN, serveAlpha, rand.New(rand.NewSource(100)))
		}).Seconds())
		q := query.MustByName("cycle4")
		if err := probeSmallSolve(g, q, cfg, rec, tr); err != nil {
			return err
		}
		probeGraphLayers(g, q, rec, tr)
		probeTable(g, q.K, cfg, rec, tr)
		probeEngine(g.N(), cfg, rec, tr)
		probeService(env, cfg, rec, tr)
		if err := probeDurable(cfg, rec, tr); err != nil {
			return err
		}
		if !miss {
			return probeCluster(env, cfg, rec, tr)
		}
		// Reopen the log this run wrote, as a restarted server would.
		env.stop()
		env = nil
		return probeReplay(walDir, rec, tr)
	}
}

// statsMetrics turns the service's own counters, read before and after the
// window, into rates.
func statsMetrics(rec *recorder, from, to service.Stats, requests int) {
	hits := float64(to.Cache.Hits - from.Cache.Hits)
	misses := float64(to.Cache.Misses - from.Cache.Misses)
	if hits+misses > 0 {
		rec.set("service.cache_hit_rate", hits/(hits+misses))
	}
	if submitted := float64(to.Jobs.Submitted - from.Jobs.Submitted); submitted > 0 {
		rec.set("service.coalesce_rate", float64(to.Jobs.Coalesced-from.Jobs.Coalesced)/submitted)
	}
	wait := func(s service.Stats) float64 {
		return s.Registry.WaitMS + s.Cache.WaitMS + s.Jobs.WaitMS + s.Jobs.Singleflight.WaitMS
	}
	rec.set("service.lock_wait_ms_per_kreq", (wait(to)-wait(from))/float64(requests)*1000)
}

// jobTraceMetrics reads the phase timelines the service recorded for the
// jobs it still retains (the newest few thousand) and reports where a
// job's wall time went.
func jobTraceMetrics(svc *service.Service, rec *recorder) {
	var queueMs, storeUs, solverShare []float64
	for _, j := range svc.Jobs() {
		ti, err := svc.JobTrace(j.ID)
		if err != nil || ti.State != service.JobDone || ti.WallMs <= 0 {
			continue
		}
		var solver float64
		for _, ph := range []string{core.PhaseCycleJoin, core.PhasePathJoin, core.PhaseLeafJoin, core.PhaseTableMerge} {
			solver += ti.Phases[ph].TotalMs
		}
		queueMs = append(queueMs, ti.Phases["queueWait"].TotalMs)
		storeUs = append(storeUs, ti.Phases["cacheStore"].TotalMs*1e3)
		solverShare = append(solverShare, solver/ti.WallMs)
	}
	rec.set("service.queue_wait_ms", median(queueMs))
	rec.set("service.cacheStore_us", median(storeUs))
	rec.set("service.solver_share", median(solverShare))
	rec.samples("service.queue_wait_ms", queueMs)
}

// probeSmallSolve prices the solver at serving scale: millisecond trials
// where set-up, table allocation and the final reduce (core.self_s) are a
// visible share. It also runs the adaptive stopping rule to ±10%.
func probeSmallSolve(g *graph.Graph, q *query.Graph, cfg config, rec *recorder, tr *tracer) error {
	plan, err := core.PickPlan(q)
	if err != nil {
		return err
	}
	opts := core.Options{Backend: "parallel", Workers: 1, Plan: plan}
	var ledger phaseLedger
	var counts []uint64
	var stats []core.Stats
	for i, col := range coloring.Draw(g.N(), q.K, 31, cfg.seed) {
		c, st, d, phases, err := tracedCount(tr, -1, fmt.Sprint("probe/", i), g, q, col, opts)
		if err != nil {
			return err
		}
		ledger.add(d, phases)
		counts, stats = append(counts, c), append(stats, st)
	}
	ledger.report(rec)
	reportLoad(rec, stats[0])
	probeColoring(g, q, cfg, counts, stats, rec, tr)

	sess, err := coloring.NewSession(g, q, coloring.Options{Core: opts, Seed: cfg.seed})
	if err != nil {
		return err
	}
	relErr := 0.1
	if cfg.smoke {
		relErr = 0.3
	}
	var stop int
	tr.probe("coloring.Session.RunUntil", func() {
		stop, err = sess.RunUntil(context.Background(), coloring.Adaptive{
			Precision: coloring.Precision{RelErr: relErr, Confidence: 0.95}, MaxTrials: 1024,
		}, 1, 0)
	})
	if err != nil {
		return err
	}
	rec.set("coloring.trials_to_relerr10", float64(stop))
	return nil
}
