package core

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/query"
	"repro/internal/sig"
	"repro/internal/table"
)

// undrop puts colour bits a and b back into r, the inverse of drop: the
// lower goes in first, so the higher lands where it was.
func undrop(r sig.Sig, a, b uint8) sig.Sig {
	if a > b {
		a, b = b, a
	}
	for _, c := range []uint8{a, b} {
		low := sig.Sig(1)<<c - 1
		r = r&low | (r&^low)<<1 | sig.Of(c)
	}
	return r
}

// A root join's partner row must answer as the binary search does: for
// random root-shaped shards — every signature of a (V, U) group holds χ(U)
// and χ(V) and has the shard's size h — over k ∈ {3, 5, 10, 16} colours and
// every 2 ≤ h ≤ k, with groups on both sides of the rowed rule (no group is
// rowed below width 4, and width is 1 at h = 2 and h = k), every signature
// an entry streamed against the group can have finds the same count in the
// row as withSig finds, or finds 0 where withSig finds nothing. Only the
// dense groups have a row, and release gives back every slab the index took.
func TestPartnerRowsMatchSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	const lo, hi, nv = 4, 10, 24
	for _, k := range []int{3, 5, 10, 16} {
		full := sig.Full(k)
		for h := 2; h <= k; h++ {
			rows := sig.RankingOf(k-2, h-2)
			width := len(rows.Sigs)
			threshold := max(4, (width+3)/4) // the fewest entries a dense group has
			sizes := []int{1, threshold - 1, threshold, width}
			colors := make([]uint8, nv)
			for v := range colors {
				colors[v] = uint8(rng.Intn(k))
			}
			var ents []table.Ent
			for v := uint32(lo); v < hi; v++ {
				for u := uint32(0); u < nv; u++ {
					size := sizes[rng.Intn(len(sizes))]
					if colors[u] == colors[v] || size < 1 || size > width || rng.Intn(3) == 0 {
						continue
					}
					var grp []table.Ent
					for _, i := range rng.Perm(width)[:size] {
						s := undrop(rows.Sigs[i], colors[u], colors[v])
						grp = append(grp, table.BinaryEnt(u, v, s, 1+uint64(rng.Intn(1000))))
					}
					slices.SortFunc(grp, func(a, b table.Ent) int { return int(a.S) - int(b.S) })
					ents = append(ents, grp...)
				}
			}

			held := table.SlabsOut()
			ix := indexGroups(lo, hi, ents, colors, k)
			cur := ix.cursor()
			streamed := sig.RankingOf(k-2, k-h).Sigs
			var withRow, searched int
			for j := 0; j < len(ents); {
				grp, g := cur.seek(ents[j].VU)
				if g < 0 || &grp[0] != &ents[j] {
					t.Fatalf("k=%d h=%d: seek(%x) found group %d, not the one at entry %d", k, h, ents[j].VU, g, j)
				}
				cu, cv := colors[ents[j].U()], colors[ents[j].V()]
				need := sig.Of(cu).Union(sig.Of(cv))
				for _, r := range streamed {
					s := undrop(r, cu, cv)
					c, ok := ix.partner(g, s, need)
					if ok != rowed(uint64(len(grp)), uint64(width)) {
						t.Fatalf("k=%d h=%d: a group of %d entries at width %d has a row: %v", k, h, len(grp), width, ok)
					}
					if !ok {
						continue
					}
					var want uint64
					if m := withSig(grp, full.Without(s).Union(need)); m != nil {
						want = m[0].C
					}
					if c != want {
						t.Fatalf("k=%d h=%d, group (%d, %d) of %d: the row holds %d for %b's partner, the search finds %d",
							k, h, ents[j].V(), ents[j].U(), len(grp), c, s, want)
					}
				}
				if rowed(uint64(len(grp)), uint64(width)) {
					withRow++
				} else {
					searched++
				}
				j += len(grp)
			}
			if _, g := cur.seek(uint64(lo)<<32 | nv); g != -1 {
				t.Fatalf("k=%d h=%d: seek found group %d for a pair with no entries", k, h, g)
			}
			ix.release()
			if left := table.SlabsOut() - held; left != 0 {
				t.Fatalf("k=%d h=%d: the index kept %d slabs", k, h, left)
			}
			if withRow == 0 && threshold <= width || searched == 0 {
				t.Fatalf("k=%d h=%d, width %d: %d groups with a row, %d searched; the test needs both", k, h, width, withRow, searched)
			}
		}
	}
}

// Colours are names: relabelling them by a permutation π of [k] maps every
// colourful match to one, so count(g, q, π∘χ) = count(g, q, χ). A
// permutation moves every rank and every bit a partner row drops, so this is
// what a row laid out or read at the wrong cell breaks. The instances are
// the benchmark's two cycle workloads — brain3 on the enron stand-in at
// scale 64 and glet2 at scale 2 — on sim and parallel; -short and -race
// count each twice, once as coloured and once relabelled.
func TestRelabelKeepsCount(t *testing.T) {
	for _, c := range []struct {
		query string
		scale int
	}{{"brain3", 64}, {"glet2", 2}} {
		g, ok := gen.StandinByName("enron", c.scale, 1)
		if !ok {
			t.Fatal("no enron stand-in")
		}
		q := query.MustByName(c.query)
		rng := rand.New(rand.NewSource(int64(c.scale)))
		colors := randColors(g.N(), q.K, rng)
		backends, perms := []string{engine.SimName, engine.ParallelName}, 2
		if testing.Short() || raceEnabled {
			backends, perms = backends[:1], 1
		}
		want := count(t, g, q, colors, Options{Backend: backends[0], Workers: 2})
		if want == 0 {
			t.Fatalf("%s: no colourful match to relabel", c.query)
		}
		for _, backend := range backends {
			for p := 0; p < perms; p++ {
				pi := rng.Perm(q.K)
				relabelled := make([]uint8, len(colors))
				for v, c := range colors {
					relabelled[v] = uint8(pi[c])
				}
				if got := count(t, g, q, relabelled, Options{Backend: backend, Workers: 2}); got != want {
					t.Fatalf("%s on %s, colours relabelled by %v: counted %d, %d as coloured", c.query, backend, pi, got, want)
				}
			}
		}
	}
}
