package core

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"repro/internal/decomp"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/query"
)

// This file implements plan selection (§6). The paper observes that the
// optimal decomposition tree is "mainly determined by the structure of the
// query" and picks plans without analyzing the large data graph. We follow
// the same enumerate-and-rank design, with a twist that keeps the ranking
// faithful to the real cost structure: every enumerated tree is priced by
// actually running the DB solver on a tiny fixed synthetic graph (a
// 96-vertex skewed Chung-Lu sample), and the cheapest tree wins, with the
// structural §6 score as tie-break. The calibration graph is constant, so
// selection remains independent of the data graph and is cached per query.

var (
	planCache sync.Map // query canonical key → *decomp.Tree
	calOnce   sync.Once
	calGraph  *graph.Graph
	calColors map[int][]uint8
	calMu     sync.Mutex
)

// PickPlan returns the decomposition tree used when Options.Plan is nil:
// the calibrated-cost minimum over all enumerated trees. A query with too
// many trees to list fails with an error wrapping decomp.ErrPlanSpace.
func PickPlan(q *query.Graph) (*decomp.Tree, error) {
	key := queryKey(q)
	if v, ok := planCache.Load(key); ok {
		return v.(*decomp.Tree), nil
	}
	trees, err := decomp.Enumerate(q)
	if err != nil {
		return nil, err
	}
	// Tree-heavy queries can have thousands of join-order variants; price
	// only the structurally most promising ones (the §6 score is a good
	// pre-filter, and join-order variants of equal score are near-equal).
	const maxCalibrated = 64
	if len(trees) > maxCalibrated {
		// Enumerate lists the trees by encoding, so a stable sort breaks
		// score ties by encoding.
		sort.SliceStable(trees, func(i, j int) bool { return trees[i].Score().Less(trees[j].Score()) })
		trees = trees[:maxCalibrated]
	}
	best := trees[0]
	if len(trees) > 1 {
		g, colors := calibration(q.K)
		bestCost := int64(-1)
		for _, tr := range trees {
			// A named backend, not $SUBGRAPH_BACKEND: planCache is
			// process-global and keyed by query alone. Load is the same on
			// every backend, so the pick is too.
			_, stats, err := CountColorful(g, q, colors, Options{
				Algorithm: DB,
				Backend:   engine.ParallelName,
				Workers:   1,
				Plan:      tr,
			})
			if err != nil {
				return nil, fmt.Errorf("core: calibrating plan for %s: %w", q.Name, err)
			}
			better := bestCost < 0 || stats.TotalLoad < bestCost
			if !better && stats.TotalLoad == bestCost {
				// Structural §6 score breaks exact cost ties.
				better = tr.Score().Less(best.Score())
			}
			if better {
				best, bestCost = tr, stats.TotalLoad
			}
		}
	}
	planCache.Store(key, best)
	return best, nil
}

// queryKey canonically serializes a query's labeled structure.
func queryKey(q *query.Graph) string {
	return fmt.Sprintf("%d|%v", q.K, q.Edges())
}

// calibration returns the shared pricing graph and a deterministic
// k-coloring of it. The graph is skewed (power-law with hubs) so plan
// rankings transfer to the heavy-tailed graphs the paper targets.
func calibration(k int) (*graph.Graph, []uint8) {
	calOnce.Do(func() {
		const n = 96
		rng := rand.New(rand.NewSource(7))
		w := gen.AddHubs(gen.ScaleWeights(gen.PowerLawWeights(n, 1.5), 6), 20, 3)
		calGraph = gen.ChungLu("calibration", w, rng)
		calColors = make(map[int][]uint8)
	})
	calMu.Lock()
	defer calMu.Unlock()
	colors, ok := calColors[k]
	if !ok {
		rng := rand.New(rand.NewSource(int64(100 + k)))
		colors = make([]uint8, calGraph.N())
		for i := range colors {
			colors[i] = uint8(rng.Intn(k))
		}
		calColors[k] = colors
	}
	return calGraph, colors
}
