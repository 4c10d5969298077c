package core_test

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/query"
)

// Colours are names: relabelling them by a permutation π of [k] maps every
// colourful match to one, so count(g, q, π∘χ) = count(g, q, χ). A
// permutation moves every signature, every rank, every box cell and every
// partner signature a root join probes for, (Full ∖ S) ∪ {χ(U), χ(V)}, with
// the slot its key hashes to, so this is what a cell laid out or read at
// the wrong place, or a partner sought under the wrong key, breaks. The instances are the benchmark's three solver
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

// Vertices are names too: renaming them by a permutation σ of the vertex
// ids maps every colourful match to one, so count(σg, q, χ∘σ⁻¹) =
// count(g, q, χ). σ moves each vertex to another partition and another row
// of its shard, so a pulled step reads each neighbour's row from elsewhere,
// and degree-order ties fall elsewhere, so DB prunes other walks. On the
// benchmark's three solver instances, under sim, parallel and a two-rank
// loopback cluster, which pushes; -short and -race take sim alone.
func TestVertexRelabelKeepsCount(t *testing.T) {
	legs := []backend{local(engine.SimName, 2), local(engine.ParallelName, 2), loopback2(t)}
	if testing.Short() || core.RaceEnabled {
		legs = legs[:1]
	}
	for _, c := range []struct {
		name, query string
		scale       int
	}{
		{"cycle10-3k", "brain3", 64},
		{"cycle5-90k", "glet2", 2},
		{"tree8-90k", "bintree8", 2},
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
			rng := rand.New(rand.NewSource(int64(c.scale) + 1))
			colors := colouring(g.N(), q.K, rng)
			sigma := rng.Perm(g.N())
			var edges [][2]uint32
			for u := uint32(0); int(u) < g.N(); u++ {
				for _, v := range g.Neighbors(u) {
					if u < v {
						edges = append(edges, [2]uint32{uint32(sigma[u]), uint32(sigma[v])})
					}
				}
			}
			renamed, moved := graph.FromEdges("renamed", g.N(), edges), make([]uint8, g.N())
			for v, c := range colors {
				moved[sigma[v]] = c
			}
			want, _ := counts(t, legs[0], g, q, colors, plan, -1)
			if want == 0 {
				t.Fatal("no colourful match to rename")
			}
			for _, be := range legs {
				if got, _ := counts(t, be, renamed, q, moved, plan, -1); got != want {
					t.Fatalf("%s, vertices renamed: counted %d, %d as named", be.name, got, want)
				}
			}
		})
	}
}
