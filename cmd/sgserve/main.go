// Command sgserve runs the subgraph-counting estimation service over
// HTTP: a graph registry (load once, query many), an LRU result cache,
// and a priority-scheduled worker pool on top of the color-coding
// estimator.
//
// Start a server and preload two stand-in graphs:
//
//	sgserve -addr :8080 -preload enron,epinions -scale 512
//
// then register graphs and estimate:
//
//	curl -s localhost:8080/v1/graphs -d '{"powerlaw":5000,"alpha":1.6,"seed":7,"name":"demo"}'
//	curl -s localhost:8080/v1/estimate -d '{"graph":"demo","query":"cycle5","trials":5,"seed":1}'
//	curl -s localhost:8080/v1/batch -d '{"graph":"demo","seed":1,"queries":[{"query":"glet1"},{"query":"brain1"}]}'
//	curl -s localhost:8080/v1/stats
//
// Long estimates run as async jobs instead of holding the connection
// open — submit, poll (or long-poll), fetch the result, cancel:
//
//	curl -s localhost:8080/v1/jobs -d '{"graph":"demo","query":"brain1","trials":50,"seed":1}'
//	curl -s localhost:8080/v1/jobs/j1?wait=2s
//	curl -s localhost:8080/v1/jobs/j1/result
//	curl -s -X DELETE localhost:8080/v1/jobs/j1
//
// Observability: GET /metrics serves Prometheus text-format exposition
// (request/trial/phase latency histograms plus every /v1/stats counter),
// GET /v1/jobs/{id}/trace returns one job's phase timeline, -log-level
// debug enables per-request access logs, and -pprof-addr serves
// net/http/pprof on a separate listener (kept off the API port so
// profiling endpoints are never exposed to API clients by accident):
//
//	sgserve -addr :8080 -pprof-addr 127.0.0.1:6060 -log-level debug
//	go tool pprof http://127.0.0.1:6060/debug/pprof/profile?seconds=10
//
// Cluster mode runs N sgserve replicas behind consistent-hash routing
// on trial streams: every replica accepts every request and proxies the
// ones another replica owns, so the trial cache and singleflight
// coalescing become cluster-wide. Start each replica with the same
// member list:
//
//	sgserve -addr :8081 -self 127.0.0.1:8081 -peers 127.0.0.1:8081,127.0.0.1:8082,127.0.0.1:8083
//	sgserve -addr :8082 -self 127.0.0.1:8082 -peers 127.0.0.1:8081,127.0.0.1:8082,127.0.0.1:8083
//	sgserve -addr :8083 -self 127.0.0.1:8083 -peers 127.0.0.1:8081,127.0.0.1:8082,127.0.0.1:8083
//
// GET /readyz distinguishes readiness from /healthz liveness, and POST
// /v1/cluster/rebalance ships each key's durable trial runs to its ring
// home after a membership change.
//
// SIGINT/SIGTERM shut down gracefully: in-flight requests finish, the
// worker pool drains, then the listener closes.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	subgraph "repro"
	"repro/internal/cluster"
	"repro/internal/dist"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address (port 0 picks a free port; see -addr-file)")
		addrFile  = flag.String("addr-file", "", "write the actually bound address to this file once listening (for scripts using -addr :0)")
		workers   = flag.Int("workers", 0, "estimation worker goroutines (0 = NumCPU)")
		queue     = flag.Int("queue", 1024, "max queued jobs before shedding load")
		cacheCap  = flag.Int("cache", 4096, "result cache capacity (entries)")
		budgetMB  = flag.Int64("graph-budget-mb", 1024, "graph registry memory budget (MiB)")
		trials    = flag.Int("trials", 3, "default trials per estimate")
		maxTr     = flag.Int("max-trials", 1024, "reject requests asking for more trials than this")
		maxRk     = flag.Int("max-ranks", 256, "reject requests asking for more engine ranks/workers than this")
		ranks     = flag.Int("ranks", 4, "default engine ranks (sim) or workers (parallel) per estimate: bands of the same vertex partitions, whose number follows the graph")
		backend   = flag.String("backend", "", "default execution backend: sim (paper's simulated engine: the instrumented reference, messages and per-rank load), parallel (the same shared-memory runtime with nothing counted and GOMAXPROCS workers by default; within 10% of sim per trial on 90k-edge graphs), or dist (requires -dist-workers); empty = $SUBGRAPH_BACKEND or sim")
		distAddrs = flag.String("dist-workers", "", "comma-separated sgworker addresses; connecting enables the dist backend (rank order = address order)")
		selfAddr  = flag.String("self", "", "this replica's advertised address for cluster mode (host:port reachable by peers); requires -peers")
		peerAddrs = flag.String("peers", "", "comma-separated advertised addresses of every cluster replica (self included or not); enables consistent-hash routing of trial streams across replicas")
		timeout   = flag.Duration("timeout", 0, "default per-job deadline (0 = none)")
		jobTTL    = flag.Duration("job-ttl", 10*time.Minute, "how long finished jobs stay fetchable via /v1/jobs")
		maxJobs   = flag.Int("max-jobs", 4096, "max finished jobs retained before the oldest are dropped")
		grace     = flag.Duration("grace", 10*time.Second, "graceful shutdown grace period")
		graphDir  = flag.String("graph-dir", "", "allow loading edge-list graphs from this directory (empty = path loading disabled)")
		preload   = flag.String("preload", "", "comma-separated stand-in graphs to register at startup")
		scale     = flag.Int("scale", 512, "stand-in size divisor for -preload")
		seed      = flag.Int64("seed", 1, "generator seed for -preload")
		dataDir   = flag.String("data-dir", "", "persist trial runs and finished jobs to this directory, replayed on boot (empty = in-memory only)")
		fsyncPol  = flag.String("fsync", "interval", "durable log sync policy with -data-dir: always (group commit per batch), interval (see -fsync-every), or never")
		fsyncGap  = flag.Duration("fsync-every", 100*time.Millisecond, "sync cadence for -fsync interval")
		compactMB = flag.Int64("compact-mb", 64, "snapshot and truncate the durable log once it exceeds this size (MiB)")
		logLevel  = flag.String("log-level", "info", "log level: debug (includes per-request access logs), info, warn, or error")
		pprofAddr = flag.String("pprof-addr", "", "serve net/http/pprof on this separate address (empty = disabled)")
		pprofFile = flag.String("pprof-addr-file", "", "write the actually bound pprof address to this file (for scripts using -pprof-addr 127.0.0.1:0)")
	)
	flag.Parse()

	level, err := parseLevel(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sgserve:", err)
		os.Exit(1)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))
	fatal := func(msg string, args ...any) {
		logger.Error(msg, args...)
		os.Exit(1)
	}

	// Connecting the worker pool registers "dist" as a backend, so it
	// must precede backend-name validation.
	var distStats func() []subgraph.DistNodeStats
	if *distAddrs != "" {
		addrs := splitAddrs(*distAddrs)
		pool, err := dist.Connect(addrs, dist.Options{Logger: logger})
		if err != nil {
			fatal("dist workers unreachable", "err", err)
		}
		defer pool.Close()
		dist.Enable(pool)
		distStats = pool.NodeStats
		logger.Info("dist pool connected", "workers", len(addrs))
	} else if *backend == "dist" {
		fatal("backend dist needs -dist-workers")
	}

	// A bad -backend (or $SUBGRAPH_BACKEND) must kill the server here, not
	// surface as a 400 on every request once traffic arrives.
	if _, err := subgraph.CanonicalBackend(*backend); err != nil {
		fatal("bad -backend", "err", err)
	}

	// Cluster mode: build this replica's ring view from the static
	// membership. Every replica must be started with the same member set
	// (ownership is a pure function of it); a peer's liveness, set by
	// health checks and forward outcomes, only gates forwarding, never
	// ownership.
	var clusterView *cluster.Cluster
	if *peerAddrs != "" || *selfAddr != "" {
		if *selfAddr == "" || *peerAddrs == "" {
			fatal("cluster mode needs both -self and -peers")
		}
		cl, err := cluster.New(cluster.Options{
			Self:    *selfAddr,
			Members: splitAddrs(*peerAddrs),
			Logger:  logger,
		})
		if err != nil {
			fatal("cluster setup failed", "err", err)
		}
		defer cl.Close()
		clusterView = cl
		logger.Info("cluster membership configured", "self", cl.Self(), "members", cl.Members())
	}

	// Replay happens inside OpenService, before the listener below binds:
	// the first request a restarted server accepts already sees the warm
	// cache and the previous process's finished jobs.
	svc, err := subgraph.OpenService(subgraph.ServiceOptions{
		Workers:          *workers,
		QueueDepth:       *queue,
		CacheCapacity:    *cacheCap,
		GraphBudgetBytes: *budgetMB << 20,
		DefaultTrials:    *trials,
		Backend:          *backend,
		DefaultRanks:     *ranks,
		MaxTrials:        *maxTr,
		MaxRanks:         *maxRk,
		DefaultTimeout:   *timeout,
		GraphDir:         *graphDir,
		JobTTL:           *jobTTL,
		MaxJobs:          *maxJobs,
		Logger:           logger,
		DistStats:        distStats,
		Cluster:          clusterView,
		Durability: subgraph.DurabilityOptions{
			Dir:          *dataDir,
			Fsync:        *fsyncPol,
			FsyncEvery:   *fsyncGap,
			CompactBytes: *compactMB << 20,
		},
	})
	if err != nil {
		fatal("service start failed", "err", err)
	}

	for _, name := range strings.Split(*preload, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		info, err := svc.AddGraph(subgraph.GraphSpec{Standin: name, Scale: *scale, Seed: *seed})
		if err != nil {
			fatal("preload failed", "graph", name, "err", err)
		}
		logger.Info("preloaded graph", "name", name, "id", info.ID, "nodes", info.Nodes, "edges", info.Edges)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *pprofAddr != "" {
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			fatal("pprof listen failed", "addr", *pprofAddr, "err", err)
		}
		if *pprofFile != "" {
			if err := os.WriteFile(*pprofFile, []byte(pln.Addr().String()+"\n"), 0o644); err != nil {
				fatal("pprof-addr-file write failed", "path", *pprofFile, "err", err)
			}
		}
		go servePprof(pln, logger)
		logger.Info("pprof listening", "addr", pln.Addr().String())
	}

	// Bind before serving so ":0" resolves to a concrete port that can be
	// logged and handed to scripts — shared CI runners cannot hardcode one.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal("listen failed", "addr", *addr, "err", err)
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound+"\n"), 0o644); err != nil {
			fatal("addr-file write failed", "path", *addrFile, "err", err)
		}
	}
	logger.Info("listening", "addr", bound, "workers", describe(*workers))
	if err := svc.Serve(ctx, ln, *grace); err != nil {
		fatal("serve failed", "err", err)
	}
	logger.Info("shut down cleanly")
}

func parseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(s) {
	case "debug":
		return slog.LevelDebug, nil
	case "info", "":
		return slog.LevelInfo, nil
	case "warn":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("bad -log-level %q (want debug, info, warn, or error)", s)
}

// servePprof runs the net/http/pprof handlers on their own mux and
// listener. Registering explicitly (rather than importing for the
// DefaultServeMux side effect) keeps the profiling surface off the API
// handler entirely.
func servePprof(ln net.Listener, logger *slog.Logger) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	if err := srv.Serve(ln); err != nil {
		logger.Warn("pprof server stopped", "err", err)
	}
}

func splitAddrs(s string) []string {
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

func describe(workers int) string {
	if workers <= 0 {
		return "workers=NumCPU"
	}
	return fmt.Sprintf("workers=%d", workers)
}
