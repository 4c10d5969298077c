package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/service"
)

// probeCalls is how many calls a serving-layer probe takes its median over.
func probeCalls(cfg config) int {
	if cfg.smoke {
		return 200
	}
	return 4000
}

// probeService prices the hit path piece by piece on the warm keys: the
// direct Service.Estimate call, the HTTP round trip around it (one caller,
// so no queueing — the difference is HTTP+JSON self time), and the cache
// and registry primitives underneath.
func probeService(env *servingEnv, cfg config, rec *recorder, tr *tracer) {
	n := probeCalls(cfg)
	svc := env.srv.svc
	trials := 1
	if env.walDir != "" {
		trials = missTrials
	}
	request := func(k servingKey) service.EstimateRequest {
		return service.EstimateRequest{Graph: k.graph, Query: k.query, Trials: trials, Ranks: 1, Seed: k.seed}
	}
	// The serve-miss window pushes the warm keys out of the trial cache;
	// one untimed pass brings them back.
	for _, k := range env.keys {
		rec.attempted++
		if _, err := svc.Estimate(context.Background(), request(k)); err != nil {
			rec.fail("re-warming %v: %v", k, err)
		}
	}
	var failed int
	tr.probe("service.Estimate", func() {
		d := timeEach(n, func(i int) {
			k := env.keys[i%len(env.keys)]
			res, err := svc.Estimate(context.Background(), request(k))
			if err != nil || !res.Cached {
				failed++
			}
		})
		rec.set("service.estimate_hit_us", float64(d.Nanoseconds())/1e3)
	})
	tr.probe("http.Post /v1/estimate (one caller)", func() {
		d := timeEach(n, func(i int) {
			k := env.keys[i%len(env.keys)]
			if _, hdr, err := post(env.client, env.srv.base, k.body(trials)); err != nil || hdr.Get("X-Cache") != "HIT" {
				failed++
			}
		})
		rec.set("service.http_self_us", float64(d.Nanoseconds())/1e3-rec.values["service.estimate_hit_us"])
	})
	rec.attempted += 2 * n
	if failed > 0 {
		rec.failN(failed, "%d hit-path probe calls failed or missed the cache", failed)
	}

	cache := service.NewCache(4096, 0)
	defer cache.Close()
	key := func(i int) service.TrialKey {
		return service.TrialKey{Graph: 1, Query: "probe", Algorithm: core.DB, Backend: "parallel", Seed: int64(i % 2048), Ranks: 1}
	}
	run := service.TrialRun{Counts: make([]uint64, missTrials), Stats: make([]core.Stats, missTrials)}
	tr.probe("service.Cache.Put", func() {
		rec.set("service.cache_put_ns", float64(timeEach(n, func(i int) { cache.Put(key(i), run) }).Nanoseconds()))
	})
	tr.probe("service.Cache.Get", func() {
		rec.set("service.cache_get_ns", float64(timeEach(n, func(i int) { cache.Get(key(i), missTrials) }).Nanoseconds()))
	})
	tr.probe("service.Registry.Acquire", func() {
		rec.set("service.registry_acquire_ns", float64(timeEach(n, func(i int) {
			if h, ok := svc.Registry().Acquire(graphName(i % serveGraphs)); ok {
				h.Release()
			}
		}).Nanoseconds()))
	})
}

// probeDurable prices the write-ahead log alone: open an empty log, append
// fixed-size run records, flush. The record is synthetic so its encoded
// size repeats exactly.
func probeDurable(cfg config, rec *recorder, tr *tracer) error {
	n := probeCalls(cfg)
	dir := filepath.Join(outDir, fmt.Sprintf("wal-probe-%d", os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	var walBytes int64
	var err error
	d := tr.probe("durable.Open+AppendRun+Flush", func() {
		var log *durable.Log
		if log, _, err = durable.Open(durable.Options{Dir: dir, Fsync: durable.FsyncInterval, Logger: quiet}); err != nil {
			return
		}
		for i := 0; i < n; i++ {
			log.AppendRun(durable.RunRecord{Graph: 1, Query: "probe", Backend: "parallel", Seed: 1 << 40, Ranks: 1,
				Counts: make([]uint64, missTrials), Stats: make([]core.Stats, missTrials)})
		}
		log.Flush()
		log.Close()
		walBytes = log.Stats().WalBytes
	})
	if err != nil {
		return err
	}
	rec.set("durable.append_us", float64(d.Nanoseconds())/1e3/float64(n))
	rec.set("durable.bytes_per_run", float64(walBytes)/float64(n))
	return nil
}

// probeReplay reopens the log the measured serve-miss window wrote, which
// is what a restarted server does before it accepts traffic.
func probeReplay(walDir string, rec *recorder, tr *tracer) error {
	var err error
	var st durable.State
	d := tr.probe("durable.Open (replay)", func() {
		var log *durable.Log
		if log, st, err = durable.Open(durable.Options{Dir: walDir, Logger: quiet}); err == nil {
			log.Close()
		}
	})
	if err != nil {
		return err
	}
	rec.attempted++
	if len(st.Runs) == 0 || st.TruncatedBytes != 0 {
		rec.fail("replay of %s: %d runs, %d truncated bytes", walDir, len(st.Runs), st.TruncatedBytes)
	}
	rec.set("durable.replay_ms", d.Seconds()*1e3)
	return nil
}

// probeCluster is the evidence for the ROADMAP's forward-path decision: a
// ring of three in-process replicas, every warm key requested through every
// entry. A response carrying X-Subgraph-Home was proxied to its home; the
// hop's price is the forwarded median minus the local median. Which keys
// forward depends on the replicas' ephemeral ports, so the share hovers
// around 2/3 instead of repeating exactly.
func probeCluster(env *servingEnv, cfg config, rec *recorder, tr *tracer) error {
	const replicas = 3
	lns := make([]net.Listener, replicas)
	addrs := make([]string, replicas)
	for i := range lns {
		ln, err := listen()
		if err != nil {
			return err
		}
		lns[i], addrs[i] = ln, ln.Addr().String()
	}
	var servers []*server
	var views []*cluster.Cluster
	defer func() {
		for _, s := range servers {
			s.stop()
		}
		for _, v := range views {
			v.Close()
		}
		for _, ln := range lns[len(servers):] {
			ln.Close()
		}
	}()
	for i := range lns {
		view, err := cluster.New(cluster.Options{Self: addrs[i], Members: addrs, HealthEvery: -1, Logger: quiet})
		if err != nil {
			return err
		}
		views = append(views, view)
		s, err := startServer(lns[i], "", view)
		if err != nil {
			return err
		}
		servers = append(servers, s)
	}

	reps := 5
	if cfg.smoke {
		reps = 1
	}
	var local, forwarded []float64
	var failed int
	tr.probe("cluster: every key through every entry", func() {
		for _, k := range env.keys {
			for _, s := range servers {
				for r := 0; r <= reps; r++ {
					begin := time.Now()
					body, hdr, err := post(env.client, s.base, k.body(1))
					d := time.Since(begin).Seconds() * 1e6
					switch {
					case err != nil || string(body) != string(env.bodies[k]):
						failed++
					case r == 0: // the key's first touch through this entry may compute
					case hdr.Get("X-Subgraph-Home") != "":
						forwarded = append(forwarded, d)
					default:
						local = append(local, d)
					}
				}
			}
		}
	})
	rec.attempted += len(env.keys) * replicas * (reps + 1)
	if failed > 0 {
		rec.failN(failed, "%d clustered requests failed or differed from the single-replica bytes", failed)
	}
	rec.set("cluster.forward_share", float64(len(forwarded))/float64(max(len(forwarded)+len(local), 1)))
	rec.set("cluster.forward_hop_us", median(forwarded)-median(local))

	ring, err := cluster.NewRing(addrs, 0)
	if err != nil {
		return err
	}
	n := probeN(cfg)
	rng := rand.New(rand.NewSource(cfg.seed))
	d := tr.probe("cluster.Ring.Owner", func() {
		for i := 0; i < n; i++ {
			ring.Owner(rng.Uint64())
		}
	})
	rec.set("cluster.ring_owner_ns", float64(d.Nanoseconds())/float64(n))
	return nil
}

// timeEach runs f n times and returns the median duration of one call.
func timeEach(n int, f func(i int)) time.Duration {
	ds := make([]float64, n)
	for i := range ds {
		begin := time.Now()
		f(i)
		ds[i] = float64(time.Since(begin))
	}
	return time.Duration(median(ds))
}
