package core_test

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/engine"
	"repro/internal/exact"
	"repro/internal/gen"
	"repro/internal/query"
)

// Every plan of every catalog query counts the same: each decomp.Enumerate
// tree (at most 31 a query) under DB, PS and PSEven, on sim, parallel and a
// two-rank loopback cluster, equals the exact enumerator on a small
// power-law graph. A tree rooted at a cycle puts that cycle's every shape —
// start, inner and end annotations, annotated edges, odd and even lengths —
// under the per-start pass; a tree rooted elsewhere puts the same cycles
// under boundary joins. Under -short every third tree of a query is run.
func TestEveryPlanCountsTheSame(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	g := gen.PowerLawGraph("pl", 60, 1.5, rng)
	backends := []backend{local("sim", 3), local("parallel", 2), loopback2(t)}
	stride := 1
	if testing.Short() || core.RaceEnabled {
		stride = 3
	}
	rooted := 0
	for _, q := range query.Catalog() {
		trees, err := decomp.Enumerate(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(trees) > 31 {
			trees = trees[:31]
		}
		colors := make([]uint8, g.N())
		for i := range colors {
			colors[i] = uint8(rng.Intn(q.K))
		}
		want := exact.ColorfulMatches(g, q, colors)
		for i := 0; i < len(trees); i += stride {
			plan := trees[i]
			if plan.Root.Kind == decomp.CycleBlock {
				rooted++
			}
			for _, alg := range []core.Algorithm{core.DB, core.PS, core.PSEven} {
				for _, be := range backends {
					opts := be.opts(engine.Job{N: g.N(), Graph: g, Colors: colors, Query: q, Plan: plan, Algorithm: int(alg), Mode: engine.ModeCount})
					opts.Algorithm, opts.Plan = alg, plan
					got, _, err := core.CountColorful(g, q, colors, opts)
					if err != nil {
						t.Fatalf("%s %s on %s, plan %s: %v", q.Name, alg, be.name, plan.Encode(), err)
					}
					if got != want {
						t.Fatalf("%s %s on %s, plan %s: counted %d, exact enumeration %d", q.Name, alg, be.name, plan.Encode(), got, want)
					}
				}
			}
		}
	}
	if rooted == 0 {
		t.Fatal("no plan of the catalog is rooted at a cycle")
	}
}
