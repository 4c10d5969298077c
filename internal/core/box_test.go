package core_test

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/exact"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/query"
)

// Tables whose keys are one vertex and a signature — start-free leaf walks,
// leaf projections, one-boundary cycle outputs — accumulate in boxes where
// a shard's box fits the cap and append where it does not, stages take the
// form of the table they stage for, and a dist rank's chunk stages are
// added to boxes entry by entry. None of it may show: tree queries (every
// table a box), queries whose boxed leaf tables feed nodeJoin, groupUnary
// and lift under sparse cycle walks, and satellite's boxed cycle outputs,
// scalar and per vertex, on sim, parallel and a two-rank loopback cluster,
// against the exact enumerator; supersteps, load and table entries equal
// across backends; and sim's message count — every entry a pushed step
// adds, whichever form took it, and every row a pulled step reads from
// another partition — pinned at each of the three partition cuts the sim
// runtimes make. On the 2810-vertex graph sim at three ranks of a
// partition each cuts 937, 937 and 936 vertices: at 35 signatures to a row
// (bintree8's widest own rows) the first two exceed the cap of 2^15 cells
// and the third does not, so one table holds both forms (the graph is too
// sparse for compaction to box the first two after all). The 1405-vertex
// graph's partitions all fit. A nodeJoin writes each partition's rows of a
// start-free walk whole, into a box wherever one fits, so the edge step
// after it pulls from every such shard, one that holds only empty rows
// included: on the wide graph that step pulls at all three cuts.
func TestBoxTablesAreInvisible(t *testing.T) {
	backends := append(equivalenceBackends(t), backend{"sim@3, a partition each", func(job engine.Job) core.Options {
		return core.Options{Engine: engine.NewRuntime(engine.SimName, 3, 3, job.N)}
	}})

	rng := rand.New(rand.NewSource(21))
	small := gen.ErdosRenyi("small", 60, 150, rng)
	mixed := gen.ErdosRenyi("mixed", 1405, 1800, rng)
	wide := gen.ErdosRenyi("wide", 2810, 3600, rand.New(rand.NewSource(37)))
	for _, c := range []struct {
		g        *graph.Graph
		q        *query.Graph
		messages [3]int64 // sim's, scalar and per vertex alike: at the grain rule's cut (sim@4, sim@1), over five partitions, over three
	}{
		{small, query.MustByName("bintree8"), [3]int64{750, 690, 540}},
		{small, query.Star(6), [3]int64{0, 0, 0}},
		{small, query.PathGraph(7), [3]int64{1000, 920, 720}},
		{small, query.MustByName("wiki"), [3]int64{2373, 2353, 2303}},
		{small, query.MustByName("ecoli1"), [3]int64{2041, 2041, 2041}},
		{small, query.MustByName("dros"), [3]int64{2094, 2074, 2024}},
		{small, query.MustByName("satellite"), [3]int64{11210, 11210, 11210}},
		{mixed, query.MustByName("bintree8"), [3]int64{10656, 8658, 7278}},
		{mixed, query.MustByName("satellite"), [3]int64{31159, 31159, 31159}},
		{wide, query.MustByName("bintree8"), [3]int64{21468, 17178, 18451}},
	} {
		colors := make([]uint8, c.g.N())
		for i := range colors {
			colors[i] = uint8(rng.Intn(c.q.K))
		}
		plan, err := core.PickPlan(c.q)
		if err != nil {
			t.Fatal(err)
		}
		anchor := plan.Root.Nodes[0]
		want := exact.ColorfulMatches(c.g, c.q, colors)
		wantPer := exact.ColorfulMatchesPerVertex(c.g, c.q, colors, anchor)
		var ref [2]core.Stats
		for i, be := range backends {
			job := engine.Job{N: c.g.N(), Graph: c.g, Colors: colors, Query: c.q, Plan: plan, Algorithm: int(core.DB), Mode: engine.ModeCount, Anchor: anchor}
			opts := be.opts(job)
			opts.Plan = plan
			got, st, err := core.CountColorful(c.g, c.q, colors, opts)
			if err != nil {
				t.Fatal(err)
			}
			job.Mode = engine.ModePerVertex
			opts = be.opts(job)
			opts.Plan = plan
			per, _, stPer, err := core.CountColorfulPerVertex(c.g, c.q, colors, anchor, opts)
			if err != nil {
				t.Fatal(err)
			}
			if got != want || !slices.Equal(per, wantPer) {
				t.Fatalf("%s on %s, %s: counted %d, exact enumeration %d; per-vertex equal: %v", c.q.Name, c.g.Name, be.name, got, want, slices.Equal(per, wantPer))
			}
			if i == 0 {
				ref = [2]core.Stats{st, stPer}
			}
			cut := 0
			if opts.Engine != nil {
				cut = map[int]int{5: 1, 3: 2}[opts.Engine.P()]
			}
			for mode, st := range [2]core.Stats{st, stPer} {
				if st.Supersteps != ref[mode].Supersteps || st.TotalLoad != ref[mode].TotalLoad || st.TableEntries != ref[mode].TableEntries {
					t.Errorf("%s on %s, %s, mode %d: %d supersteps, load %d, %d table entries; on %s %d, %d, %d", c.q.Name, c.g.Name, be.name, mode,
						st.Supersteps, st.TotalLoad, st.TableEntries, backends[0].name, ref[mode].Supersteps, ref[mode].TotalLoad, ref[mode].TableEntries)
				}
				if st.Backend == engine.SimName && st.Messages != c.messages[cut] {
					t.Errorf("%s on %s, %s, mode %d: %d messages, want %d", c.q.Name, c.g.Name, be.name, mode, st.Messages, c.messages[cut])
				}
			}
		}
	}
}
