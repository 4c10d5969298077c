package core

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/exact"
	"repro/internal/gen"
	"repro/internal/query"
)

// Per-vertex counts must match the brute-force oracle for every root-block
// anchor, and sum to the plain colorful count.
func TestPerVertexMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	g := gen.ErdosRenyi("er", 50, 200, rng)
	for _, qn := range []string{"glet1", "glet2", "brain1", "wiki", "youtube", "dros"} {
		q := query.MustByName(qn)
		colors := randColors(g.N(), q.K, rng)
		plan, err := PickPlan(q)
		if err != nil {
			t.Fatal(err)
		}
		total := count(t, g, q, colors, Options{Algorithm: DB, Workers: 3})
		for _, anchor := range plan.Root.Nodes {
			for _, alg := range []Algorithm{PS, DB} {
				per, used, _, err := CountColorfulPerVertex(g, q, colors, anchor, Options{Algorithm: alg, Workers: 3})
				if err != nil {
					t.Fatalf("%s anchor %d: %v", qn, anchor, err)
				}
				if used != anchor {
					t.Fatalf("%s: anchor %d not honored (got %d)", qn, anchor, used)
				}
				want := exact.ColorfulMatchesPerVertex(g, q, colors, anchor)
				var sum uint64
				for v := range per {
					sum += per[v]
					if per[v] != want[v] {
						t.Fatalf("%s %s anchor %d: vertex %d got %d, want %d",
							qn, alg, anchor, v, per[v], want[v])
					}
				}
				if sum != total {
					t.Fatalf("%s %s: per-vertex sum %d != total %d", qn, alg, sum, total)
				}
			}
		}
	}
}

func TestPerVertexDefaultAnchorAndErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := gen.ErdosRenyi("er", 30, 90, rng)
	q := query.MustByName("glet2")
	colors := randColors(g.N(), q.K, rng)
	per, anchor, stats, err := CountColorfulPerVertex(g, q, colors, -1, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(per) != g.N() || stats.Workers != 2 {
		t.Fatalf("shape wrong: %d %+v", len(per), stats)
	}
	plan, _ := PickPlan(q)
	if !slices.Contains(plan.Root.Nodes, anchor) {
		t.Fatalf("default anchor %d not in root block", anchor)
	}
	// A node outside the root block must be rejected.
	outside := -1
	inRoot := map[int]bool{}
	for _, n := range plan.Root.Nodes {
		inRoot[n] = true
	}
	for n := 0; n < q.K; n++ {
		if !inRoot[n] {
			outside = n
			break
		}
	}
	if outside >= 0 {
		if _, _, _, err := CountColorfulPerVertex(g, q, colors, outside, Options{}); err == nil {
			t.Fatal("anchor outside root block accepted")
		}
	}
	// Single-node query: one match per vertex.
	one := query.PathGraph(1)
	per1, _, _, err := CountColorfulPerVertex(g, one, make([]uint8, g.N()), -1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for v, c := range per1 {
		if c != 1 {
			t.Fatalf("vertex %d: %d", v, c)
		}
	}
	// Tree query (singleton root): per-vertex counts for the residual node.
	star := query.Star(4)
	colors4 := randColors(g.N(), 4, rng)
	perS, anchorS, _, err := CountColorfulPerVertex(g, star, colors4, -1, Options{Algorithm: DB})
	if err != nil {
		t.Fatal(err)
	}
	wantS := exact.ColorfulMatchesPerVertex(g, star, colors4, anchorS)
	for v := range perS {
		if perS[v] != wantS[v] {
			t.Fatalf("star: vertex %d got %d want %d", v, perS[v], wantS[v])
		}
	}
}

// Counts do not depend on the plan PickPlan chooses; the per-vertex default
// anchor — the first node of that plan's root block — does, and PickPlan
// ranks plans by a load that moves whenever the solver learns to do less.
// These are the anchors a caller passing -1 gets for the catalog: a change
// here changes what such callers' vectors mean, so it belongs in CHANGES.md.
func TestCatalogDefaultAnchors(t *testing.T) {
	want := map[string]int{
		"dros": 5, "ecoli1": 4, "ecoli2": 2, "brain1": 0, "brain2": 0, "brain3": 0,
		"glet1": 0, "glet2": 0, "wiki": 5, "youtube": 0,
	}
	for _, q := range query.Catalog() {
		plan, err := PickPlan(q)
		if err != nil {
			t.Fatal(err)
		}
		anchor, pinned := want[q.Name]
		if !pinned || plan.Root.Nodes[0] != anchor {
			t.Errorf("%s: default anchor %d (plan %s); pinned: %d, %v", q.Name, plan.Root.Nodes[0], plan.Encode(), anchor, pinned)
		}
	}
}
