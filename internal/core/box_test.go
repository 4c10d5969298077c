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
// across backends; and sim's message count — every entry added, whichever
// form took it — equal to what the commit before boxes counted. On the
// 1405-vertex graph sim@3 cuts partitions of 469, 469 and 467 vertices:
// at 70 signatures to a row (bintree8's widest tables) the first two
// exceed the cap of 2^15 cells and the third does not, so one table holds
// both forms.
func TestBoxTablesAreInvisible(t *testing.T) {
	backends := append(equivalenceBackends(t), local("sim", 3))

	rng := rand.New(rand.NewSource(21))
	small := gen.ErdosRenyi("small", 60, 150, rng)
	mixed := gen.ErdosRenyi("mixed", 1405, 1800, rng)
	for _, c := range []struct {
		g        *graph.Graph
		q        *query.Graph
		messages [2]int64 // sim's, scalar and per vertex, at the parent commit
	}{
		{small, query.MustByName("bintree8"), [2]int64{3115, 3115}},
		{small, query.Star(6), [2]int64{1160, 1160}},
		{small, query.PathGraph(7), [2]int64{4789, 4789}},
		{small, query.MustByName("wiki"), [2]int64{2910, 2910}},
		{small, query.MustByName("ecoli1"), [2]int64{2541, 2541}},
		{small, query.MustByName("dros"), [2]int64{2134, 2134}},
		{small, query.MustByName("satellite"), [2]int64{11474, 11474}},
		{mixed, query.MustByName("bintree8"), [2]int64{22458, 22458}},
		{mixed, query.MustByName("satellite"), [2]int64{34447, 34447}},
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
			for mode, st := range [2]core.Stats{st, stPer} {
				if st.Supersteps != ref[mode].Supersteps || st.TotalLoad != ref[mode].TotalLoad || st.TableEntries != ref[mode].TableEntries {
					t.Errorf("%s on %s, %s, mode %d: %d supersteps, load %d, %d table entries; on %s %d, %d, %d", c.q.Name, c.g.Name, be.name, mode,
						st.Supersteps, st.TotalLoad, st.TableEntries, backends[0].name, ref[mode].Supersteps, ref[mode].TotalLoad, ref[mode].TableEntries)
				}
				if st.Backend == engine.SimName && st.Messages != c.messages[mode] {
					t.Errorf("%s on %s, %s, mode %d: %d messages, the commit before boxes counted %d", c.q.Name, c.g.Name, be.name, mode, st.Messages, c.messages[mode])
				}
			}
		}
	}
}
