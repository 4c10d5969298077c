// Package exp regenerates every table and figure of the paper's evaluation
// (§8) plus the §9 theory study, at a configurable scale. It is shared by
// the sgbench CLI and the repository's benchmarks. Each experiment prints a
// table shaped like the paper's and returns structured results so tests can
// assert the qualitative claims (who wins, by roughly what factor, where
// the crossovers fall). What it reports is the deterministic load model
// (per-worker projection operations), the scale-free signal on a small
// host: output depends on (scale, seed, backend, workers) alone. Solver
// wall time is measured by the benchmark (benchmark/solver.go), not here.
package exp

import (
	"fmt"
	"io"
	"math/rand"

	"repro/internal/coloring"
	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/query"
)

// Config scales the experiments. The zero value is usable: defaults target
// a small host (the paper used up to 512 Blue Gene/Q ranks; we default to
// graphs at 1/256 of the originals and 8 simulated ranks).
type Config struct {
	Scale      int      // stand-in size divisor; default 512
	Backend    string   // execution backend; default "sim" (metrics-faithful for the figures)
	Workers    int      // "high" simulated rank count; default 8
	WorkersLow int      // "low" simulated rank count; default 2
	Seed       int64    // base RNG seed
	Trials     int      // Figure 15 colorings per combo; default 10
	Graphs     []string // stand-in filter; nil = all ten
	Queries    []string // query filter; nil = the Figure 8 catalog

	// Precision target for the Figure 15 study: when RelErr > 0 the
	// precision table adds a trials-to-target column — the trial count at
	// which the adaptive (RelErr, Confidence) stopping rule would have
	// fired, bounded by Trials. Confidence ≤ 0 means 0.95.
	RelErr     float64
	Confidence float64

	// Weak-scaling workload (Figure 13). The paper uses 1024 vertices per
	// rank with R-MAT edge factor 16 on Blue Gene/Q; the laptop-scale
	// defaults are 256 and 8.
	WeakPerRank    int
	WeakEdgeFactor int
}

func (c Config) withDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = 512
	}
	if c.Workers <= 0 {
		c.Workers = 8
	}
	if c.WorkersLow <= 0 {
		c.WorkersLow = 2
	}
	if c.Trials <= 0 {
		c.Trials = 10
	}
	if c.WeakPerRank <= 0 {
		c.WeakPerRank = 256
	}
	if c.WeakEdgeFactor <= 0 {
		c.WeakEdgeFactor = 8
	}
	return c
}

// graphs builds the selected Table 1 stand-ins.
func (c Config) graphs() []*graph.Graph {
	specs := gen.StandinSpecs()
	want := map[string]bool{}
	for _, n := range c.Graphs {
		want[n] = true
	}
	var out []*graph.Graph
	for _, s := range specs {
		if len(want) == 0 || want[s.Name] {
			out = append(out, s.Build(c.Scale, c.Seed))
		}
	}
	return out
}

// queries returns the selected catalog queries.
func (c Config) queries() []*query.Graph {
	if len(c.Queries) == 0 {
		return query.Catalog()
	}
	var out []*query.Graph
	for _, n := range c.Queries {
		out = append(out, query.MustByName(n))
	}
	return out
}

// comboSeed derives a per-(graph,query) seed so PS and DB always count
// under the identical coloring.
func (c Config) comboSeed(g, q string) int64 {
	h := c.Seed
	for _, r := range g + "/" + q {
		h = h*1099511628211 + int64(r)
	}
	return h
}

// Run is one solver execution.
type Run struct {
	Graph, Query string
	Alg          core.Algorithm
	Workers      int
	Count        uint64
	Stats        core.Stats
}

// runOnce counts q in g under the combo's coloring with the given solver
// configuration (plan nil = §6 heuristic).
func (c Config) runOnce(g *graph.Graph, q *query.Graph, alg core.Algorithm, workers int, plan *decomp.Tree) (Run, error) {
	rng := rand.New(rand.NewSource(c.comboSeed(g.Name, q.Name)))
	colors := coloring.Random(g.N(), q.K, rng)
	count, stats, err := core.CountColorful(g, q, colors, core.Options{
		Algorithm: alg,
		Backend:   c.Backend,
		Workers:   workers,
		Plan:      plan,
	})
	if err != nil {
		return Run{}, fmt.Errorf("exp: %s/%s %v: %w", g.Name, q.Name, alg, err)
	}
	return Run{
		Graph: g.Name, Query: q.Name, Alg: alg, Workers: workers,
		Count: count, Stats: stats,
	}, nil
}

// header prints a section banner.
func header(w io.Writer, title string) {
	fmt.Fprintf(w, "\n=== %s ===\n", title)
}
