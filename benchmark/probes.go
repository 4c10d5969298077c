package main

import (
	"context"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"repro/internal/coloring"
	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/dist"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/query"
	"repro/internal/sig"
	"repro/internal/table"
)

// The probes below time one layer's public functions directly, on inputs
// drawn from the workload's own graph and query, each under a span. They
// run only in the traced run, after the measured window.

// probeN is how many keys or messages a micro-probe pushes through.
func probeN(cfg config) int {
	if cfg.smoke {
		return 20_000
	}
	return 1_000_000
}

// probeGraphLayers prices what set-up is made of besides generation:
// fingerprinting and gob-encoding the graph (what dist ships), and
// enumerating the query's decomposition trees.
func probeGraphLayers(g *graph.Graph, q *query.Graph, rec *recorder, tr *tracer) {
	rec.set("graph.fingerprint_ms", tr.probe("graph.Fingerprint", func() { g.Fingerprint() }).Seconds()*1e3)
	tr.probe("graph.GobEncode", func() {
		b, err := g.GobEncode()
		rec.attempted++
		if err != nil {
			rec.fail("graph.GobEncode: %v", err)
		}
		rec.set("graph.gob_bytes", float64(len(b)))
	})
	rec.set("decomp.enumerate_ms", tr.probe("decomp.Enumerate", func() {
		rec.attempted++
		if _, err := decomp.Enumerate(q); err != nil {
			rec.fail("decomp.Enumerate: %v", err)
		}
	}).Seconds()*1e3)
}

// probeTable times table.Flat on binary keys over the graph's edges with
// random k-colour signatures: a burst of Adds, the compaction the first
// read triggers, then point reads.
func probeTable(g *graph.Graph, k int, cfg config, rec *recorder, tr *tracer) {
	n := probeN(cfg)
	rng := rand.New(rand.NewSource(cfg.seed))
	keys := make([]table.Key, n)
	for i := range keys {
		u := uint32(rng.Intn(g.N()))
		v := u
		if nb := g.Neighbors(u); len(nb) > 0 {
			v = nb[rng.Intn(len(nb))]
		}
		keys[i] = table.Binary(u, v, sig.Sig(1+rng.Intn(int(sig.Full(k)))))
	}
	// Three bursts: the median time, and the fewest allocations. The count
	// is the process-wide runtime.MemStats.Mallocs delta, so the collector
	// and any other goroutine add to it: near-constant, not an exact count.
	var t *table.Flat
	var ns, allocs []float64
	for range 3 {
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		d := tr.probe("table.Flat.Add+Ents", func() {
			t = table.NewFlat(n)
			for _, key := range keys {
				t.Add(key, 1)
			}
			t.Ents()
		})
		runtime.ReadMemStats(&ms1)
		ns = append(ns, float64(d.Nanoseconds())/float64(n))
		allocs = append(allocs, float64(ms1.Mallocs-ms0.Mallocs))
	}
	rec.set("table.add_compact_ns_per_ent", median(ns))
	rec.set("table.allocs_per_compact", slices.Min(allocs))
	var total uint64
	d := tr.probe("table.Flat.Get", func() {
		for _, key := range keys {
			total += t.Get(key)
		}
	})
	rec.set("table.get_ns", float64(d.Nanoseconds())/float64(n))
	rec.attempted++
	if total < uint64(n) { // every key was added at least once
		rec.fail("table.Flat lost counts: %d Gets over %d Adds summed to %d", n, n, total)
	}
}

// probeEngine times one superstep of each single-process backend under a
// synthetic producer: every partition emits its share of unary keys over
// random vertices, batched as the solver batches them.
func probeEngine(nVertices int, cfg config, rec *recorder, tr *tracer) {
	n := probeN(cfg)
	for _, be := range []engine.Backend{engine.NewParallel(solverWorkers, nVertices), engine.NewCluster(solverWorkers, nVertices)} {
		out := engine.NewSharded(be)
		per := n / be.P()
		d := tr.probe("engine."+be.Name()+".Step", func() {
			be.Step(out, func(w int, emit engine.Emit) {
				rng := rand.New(rand.NewSource(cfg.seed + int64(w)))
				b := (&engine.Batcher{}).Bind(emit)
				for i := 0; i < per; i++ {
					v := uint32(rng.Intn(nVertices))
					b.Emit(be.Owner(v), engine.Msg{K: table.Unary(v, 1), C: 1})
				}
				b.Flush()
			})
		})
		rec.set("engine."+be.Name()+".step_ns_per_msg", float64(d.Nanoseconds())/float64(per*be.P()))
		rec.attempted++
		if got := out.Total(); got != uint64(per*be.P()) {
			rec.fail("engine %s delivered %d of %d messages", be.Name(), got, per*be.P())
		}
	}
}

// probeColoring times drawing one colouring and assembling an estimate
// from the window's counts.
func probeColoring(g *graph.Graph, q *query.Graph, cfg config, counts []uint64, stats []core.Stats, rec *recorder, tr *tracer) {
	const reps = 9
	var draw, assemble []float64
	for i := 0; i < reps; i++ {
		draw = append(draw, tr.probe("coloring.Draw", func() { coloring.Draw(g.N(), q.K, 1, cfg.seed+int64(i)) }).Seconds()*1e3)
		assemble = append(assemble, tr.probe("coloring.Assemble", func() { coloring.Assemble(g.Name, q, counts, stats) }).Seconds()*1e6)
	}
	rec.set("coloring.draw_ms", median(draw))
	rec.set("coloring.assemble_us", median(assemble))
}

// probeDist runs trial 0 (which counted want) twice over a 2-rank loopback
// cluster — every frame crosses the real wire codec — and reads the
// transport counters. The first run also ships the graph to both ranks, the
// second is pure per-trial traffic; their difference is the shipping.
// dist.trial_s is unresolved on this box: two ranks plus a coordinator
// outnumber the cores.
func probeDist(env solverEnv, want uint64, rec *recorder, tr *tracer) error {
	cl, err := dist.Loopback(2, dist.WorkerOptions{})
	if err != nil {
		return err
	}
	defer cl.Close()
	var bytes, frames [3]int64 // cumulative: before, after the first run, after the second
	var last time.Duration
	for run := 1; run <= 2; run++ {
		rec.attempted++
		var c uint64
		last = tr.probe("dist: core.CountColorfulContext", func() {
			ctx := context.Background()
			var be engine.Backend
			be, err = cl.NewJob(0, engine.Job{N: env.g.N(), Graph: env.g, Colors: env.colourings[0], Query: env.q, Plan: env.plan,
				Algorithm: int(core.DB), Mode: engine.ModeCount, Ctx: ctx})
			if err == nil {
				c, _, err = core.CountColorfulContext(ctx, env.g, env.q, env.colourings[0], core.Options{Plan: env.plan, Engine: be})
			}
		})
		if err != nil {
			rec.fail("dist trial: %v", err)
			return nil
		}
		if c != want {
			rec.fail("trial 0: parallel counted %d, dist counted %d", want, c)
		}
		for _, ns := range cl.NodeStats() {
			bytes[run] += ns.BytesSent + ns.BytesRecv
			frames[run] += ns.FramesSent + ns.FramesRecv
		}
	}
	rec.set("dist.graph_ship_bytes", float64(bytes[1]-(bytes[2]-bytes[1])))
	rec.set("dist.wire_bytes_per_trial", float64(bytes[2]-bytes[1]))
	rec.set("dist.frames_per_trial", float64(frames[2]-frames[1]))
	rec.set("dist.trial_s", last.Seconds())
	return nil
}
