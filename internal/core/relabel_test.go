package core_test

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/query"
)

// Colours are names: relabelling them by a permutation π of [k] maps every
// colourful match to one, so count(g, q, π∘χ) = count(g, q, χ). A
// permutation moves every signature, every rank, every box cell and every
// bit a partner row drops, so this is what a cell laid out or read at the
// wrong place breaks. The instances are the benchmark's three solver
// workloads — brain3 on the enron stand-in at scale 64 (cycle10-3k), glet2
// and bintree8 at scale 2 (cycle5-90k, tree8-90k) — each counted as
// coloured on its first leg and relabelled, twice, on every leg: sim,
// parallel, a two-rank loopback cluster and, for tree8-90k, a runtime of one
// partition, whose vertex × signature shards of 18 000 rows are over boxCap
// (13 of them dense enough to be boxed at compaction, instead of as they are
// written). -short and -race count each instance twice: as coloured on its
// first leg, relabelled on its last.
func TestRelabelKeepsCount(t *testing.T) {
	dist2 := loopback2(t)
	onePartition := backend{"sim, one partition over boxCap", func(job engine.Job) core.Options {
		return core.Options{Engine: engine.NewRuntime(engine.SimName, 1, 1, job.N)}
	}}
	sim2, parallel2 := local(engine.SimName, 2), local(engine.ParallelName, 2)

	for _, c := range []struct {
		name  string
		query string
		scale int
		legs  []backend
	}{
		{"cycle10-3k", "brain3", 64, []backend{sim2, dist2, parallel2}},
		{"cycle5-90k", "glet2", 2, []backend{sim2, parallel2, dist2}},
		{"tree8-90k", "bintree8", 2, []backend{sim2, parallel2, dist2, onePartition}},
	} {
		t.Run(c.name, func(t *testing.T) {
			g, ok := gen.StandinByName("enron", c.scale, 1)
			if !ok {
				t.Fatal("no enron stand-in")
			}
			q := query.MustByName(c.query)
			plan, err := core.PickPlan(q)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(c.scale)))
			colors := make([]uint8, g.N())
			for v := range colors {
				colors[v] = uint8(rng.Intn(q.K))
			}
			count := func(be backend, colors []uint8) uint64 {
				opts := be.opts(engine.Job{N: g.N(), Graph: g, Colors: colors, Query: q, Plan: plan, Mode: engine.ModeCount})
				opts.Plan = plan
				got, _, err := core.CountColorful(g, q, colors, opts)
				if err != nil {
					t.Fatalf("%s: %v", be.name, err)
				}
				return got
			}
			legs, perms := c.legs, 2
			if testing.Short() || core.RaceEnabled {
				legs, perms = legs[len(legs)-1:], 1
			}
			want := count(c.legs[0], colors)
			if want == 0 {
				t.Fatal("no colourful match to relabel")
			}
			for _, be := range legs {
				for p := 0; p < perms; p++ {
					pi := rng.Perm(q.K)
					relabelled := make([]uint8, len(colors))
					for v, c := range colors {
						relabelled[v] = uint8(pi[c])
					}
					if got := count(be, relabelled); got != want {
						t.Fatalf("%s, colours relabelled by %v: counted %d, %d as coloured", be.name, pi, got, want)
					}
				}
			}
		})
	}
}
