package coloring

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/query"
)

// knownShort names the rates of TestErrorBarsHoldTheirLevel that fall
// below their bound over the full 1000 seeds (CHANGES.md records each
// measured rate). They would be defects of the estimator's error bars, not
// of the test, and are logged, not asserted; the full run fails once one
// of them holds its bound, so the list only shrinks. Every rate holds
// today, so it is empty.
var knownShort = map[string]bool{}

// TestErrorBarsHoldTheirLevel checks the error bars against the truth on
// a 40-vertex power-law graph, small enough for internal/exact, over 1000
// seeds (100 under -short or the race detector; the trials run on one
// goroutine, so the race pass adds nothing here):
//   - ci5, ci20: the interval Matches·(1 ± RelCI(0.9)) after t = 5 and
//     t = 20 trials covers the exact count in at least 90% of seeds;
//   - adaptive: a session stopped by Adaptive{RelErr: 0.2, Confidence:
//     0.9} lands within 20% of the exact count in at least 90% of seeds.
//
// Each rate may fall short of its level by three binomial standard
// deviations, 3·sqrt(p(1−p)/n), and no more. The same rule stops a query
// with no match on its all-zero prefix once that puts the count below one
// match at 90% (Estimate.BelowOne); every query of five nodes matches on
// the power-law graph, so 5-cycles are counted on a 40-vertex ring instead:
//   - none: on the ring, the rule stops at the bound's trial count at every
//     seed;
//   - one: on the ring with a chord that closes one 5-cycle, the rule stops
//     there, wrongly, in at most 10% of seeds (plus 3σ): the bound is made
//     for exactly one match set, colourful with probability 5!/5⁵.
//
// Seeds, graphs and backend are fixed, so the rates are the same on every
// run.
func TestErrorBarsHoldTheirLevel(t *testing.T) {
	seeds := 1000
	if testing.Short() || raceEnabled {
		seeds = 100
	}
	const level, relErr = 0.9, 0.2
	g := gen.ChungLu("pl40", gen.ScaleWeights(gen.PowerLawWeights(40, 1.6), 8), rand.New(rand.NewSource(7)))
	sigma3 := 3 * math.Sqrt(level*(1-level)/float64(seeds))
	bound := level - sigma3
	ctx := context.Background()
	for _, name := range []string{"glet1", "path4"} {
		q := query.MustByName(name)
		truth := float64(exact.Matches(g, q))
		if truth == 0 {
			t.Fatalf("%s has no matches on %s", name, g.Name)
		}
		hits := map[string]int{}
		for seed := int64(1); seed <= int64(seeds); seed++ {
			s, err := NewSession(g, q, Options{Seed: seed, Core: core.Options{Algorithm: core.DB, Backend: "parallel", Workers: 1}})
			if err != nil {
				t.Fatal(err)
			}
			if err := s.ExtendTo(ctx, 20); err != nil {
				t.Fatal(err)
			}
			for m, trials := range map[string]int{"ci5": 5, "ci20": 20} {
				if e := s.EstimateAt(trials); math.Abs(e.Matches-truth) <= e.RelCI(level)*e.Matches {
					hits[m]++
				}
			}
			// The rule walks the same stream from its first trial; it
			// extends the session only if it runs past the 20 trials.
			stop, err := s.RunUntil(ctx, Adaptive{Precision: Precision{RelErr: relErr, Confidence: level}}, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(s.EstimateAt(stop).Matches-truth) <= relErr*truth {
				hits["adaptive"]++
			}
		}
		for _, m := range []string{"ci5", "ci20", "adaptive"} {
			key := name + " " + m
			rate := float64(hits[m]) / float64(seeds)
			t.Logf("%s (%v matches): %.3f of %d seeds, bound %.3f", key, truth, rate, seeds, bound)
			switch {
			case !knownShort[key] && rate < bound:
				t.Errorf("%s holds in %.3f of %d seeds, below %.3f (%.0f%% less 3σ)", key, rate, seeds, bound, 100*level)
			case knownShort[key] && rate >= bound && seeds == 1000:
				t.Errorf("%s now holds its bound (%.3f ≥ %.3f): drop it from knownShort", key, rate, bound)
			}
		}
	}
	q := query.MustByName("cycle5")
	want := 1
	for !noMatch(q.K, want, level) {
		want++
	}
	ad := Adaptive{Precision: Precision{RelErr: relErr, Confidence: level}}
	ring := make([][2]uint32, 40)
	for v := range ring {
		ring[v] = [2]uint32{uint32(v), uint32(v+1) % 40}
	}
	for _, c := range []struct {
		name  string
		edges [][2]uint32
	}{{"none", ring}, {"one", append(ring, [2]uint32{0, 4})}} {
		g := graph.FromEdges("ring40", 40, c.edges)
		truth := exact.Matches(g, q)
		stops := 0
		for seed := int64(1); seed <= int64(seeds); seed++ {
			s, err := NewSession(g, q, Options{Seed: seed, Core: core.Options{Algorithm: core.DB, Backend: "parallel", Workers: 1}})
			if err != nil {
				t.Fatal(err)
			}
			if err := s.ExtendTo(ctx, want); err != nil {
				t.Fatal(err)
			}
			// The rule walks the prefix as a live run would; a run it does
			// not stop there goes on to other stops, which ci5..adaptive
			// cover.
			if stop, ok := ad.StopAt(q.K, s.Counts()); ok {
				if e := s.EstimateAt(stop); stop != want || e.Matches != 0 || !e.BelowOne(level) {
					t.Fatalf("%s (%d matches), seed %d: stopped at %d with %v matches, below one: %v; the bound is at %d", c.name, truth, seed, stop, e.Matches, e.BelowOne(level), want)
				}
				stops++
			}
		}
		rate := float64(stops) / float64(seeds)
		t.Logf("%s (%d matches): stopped below one match at %d trials in %.3f of %d seeds", c.name, truth, want, rate, seeds)
		if truth == 0 && stops != seeds || truth > 0 && rate > 1-level+sigma3 {
			t.Errorf("%s (%d matches): stopped below one match in %.3f of %d seeds", c.name, truth, rate, seeds)
		}
	}
}
