package core

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/sig"
	"repro/internal/table"
)

// undrop puts colour bits a and b into r, a signature over the other k−2
// colours: the bits at and above each move up, the lower first, so the
// higher lands where it was. Every signature of a root walk's (V, U) group
// is one undropped at χ(U) and χ(V).
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

// A root join's partners table must answer as a linear scan of the home
// vertex's entries does. For random root-shaped shards — every signature of
// a (V, U) group holds χ(U) and χ(V) and has the shard's size h — over k ∈
// {3, 5, 10, 16} colours and every 2 ≤ h ≤ k, the probe of every (V, U, S)
// returns the count the scan finds, or 0 where it finds none: every key of
// the shard, and for each U every signature a partner can have (a sample of
// them where there are more than 64), absent keys and U's of V's own colour
// included. A vertex with no entries has a table of one empty slot that answers 0. The
// tables are laid both ways the joins lay them — all of a partition's at
// once (indexPartners, the streamed join) and one vertex at a time into a
// scratch grown as it goes (the pulled join) — and every slab comes back.
// Last, many U's hashing to one slot.
func TestPartnerProbeMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	const lo, hi, nv, empty = 4, 10, 24, 6
	for _, k := range []int{3, 5, 10, 16} {
		for h := 2; h <= k; h++ {
			sigs := sig.RankingOf(k-2, h-2).Sigs
			width := len(sigs)
			sizes := []int{1, 2, 5, min(width, 12)}
			colors := make([]uint8, nv)
			for v := range colors {
				colors[v] = uint8(rng.Intn(k))
			}
			var ents []table.Ent
			for v := uint32(lo); v < hi; v++ {
				for u := uint32(0); u < nv; u++ {
					size := min(sizes[rng.Intn(len(sizes))], width)
					if v == empty || colors[u] == colors[v] || rng.Intn(3) == 0 {
						continue
					}
					var grp []table.Ent
					for _, i := range rng.Perm(width)[:size] {
						s := undrop(sigs[i], colors[u], colors[v])
						grp = append(grp, table.BinaryEnt(u, v, s, 1+uint64(rng.Intn(1000))))
					}
					slices.SortFunc(grp, func(a, b table.Ent) int { return int(a.S) - int(b.S) })
					ents = append(ents, grp...)
				}
			}
			scan := func(v, u uint32, s sig.Sig) uint64 {
				for _, e := range ents {
					if e.V() == v && e.U() == u && e.S == s {
						return e.C
					}
				}
				return 0
			}

			held := table.SlabsOut()
			ix := indexPartners(lo, hi, ents)
			var scratch table.Scratch
			e := 0
			for v := uint32(lo); v < hi; v++ {
				b := e
				e = runEnd(ents, b, v)
				size := partnerWords(e - b)
				if size > len(scratch.Words) {
					scratch.Return()
					scratch = table.BorrowWords(size)
				}
				one := partners(scratch.Words[:size])
				one.lay(ents[b:e])
				all := ix.of(v)
				if len(all) != size || (size == 2) != (v == empty) {
					t.Fatalf("k=%d h=%d: vertex %d's table has %d words, its run of %d entries needs %d", k, h, v, len(all), e-b, size)
				}
				probe := func(u uint32, s sig.Sig) {
					want := scan(v, u, s)
					if got := all.probe(u, s); got != want {
						t.Fatalf("k=%d h=%d: (%d, %d, %b) probes to %d, the scan finds %d", k, h, v, u, s, got, want)
					}
					if got := one.probe(u, s); got != want {
						t.Fatalf("k=%d h=%d: (%d, %d, %b) probes to %d in the vertex's own table, the scan finds %d", k, h, v, u, s, got, want)
					}
				}
				for _, en := range ents[b:e] {
					probe(en.U(), en.S)
				}
				for u := uint32(0); u < nv; u++ {
					pick := sigs
					if width > 64 {
						pick = make([]sig.Sig, 64)
						for i := range pick {
							pick[i] = sigs[rng.Intn(width)]
						}
					}
					for _, r := range pick {
						probe(u, undrop(r, colors[u], colors[v]))
					}
				}
			}
			scratch.Return()
			ix.release()
			if left := table.SlabsOut() - held; left != 0 {
				t.Fatalf("k=%d h=%d: the partners tables kept %d slabs", k, h, left)
			}
		}
	}

	// Keys whose probes start at one slot must still each find their own
	// count: n entries of one signature under n U's that all hash to the
	// table's last slot fill a cluster that wraps round to its first, and an
	// absent U that hashes there too walks the whole cluster to the empty
	// slot after it and answers 0.
	const n, v = 16, 7
	s := sig.Of(1).Union(sig.Of(3))
	size := partnerWords(n)
	mask := uint64(size/2 - 1)
	var us []uint32
	for u := uint32(0); len(us) < n+1; u++ {
		if homeSlot(uint64(u)<<32|uint64(s), mask) == mask {
			us = append(us, u)
		}
	}
	absent, us := us[n], us[:n]
	run := make([]table.Ent, n)
	for i, u := range us {
		run[i] = table.BinaryEnt(u, v, s, uint64(100+i))
	}
	slices.SortFunc(run, func(a, b table.Ent) int { return int(int64(a.U()) - int64(b.U())) })

	held := table.SlabsOut()
	ix := indexPartners(v, v+1, run)
	pt := ix.of(v)
	if len(pt) != size {
		t.Fatalf("the table has %d words, want %d", len(pt), size)
	}
	for i, u := range us {
		if got := pt.probe(u, s); got != uint64(100+i) {
			t.Fatalf("U %d: probe found %d, want %d", u, got, 100+i)
		}
	}
	if got := pt.probe(absent, s); got != 0 {
		t.Fatalf("U %d, absent, hashes to the cluster's slot: probe found %d, want 0", absent, got)
	}
	if got := pt.probe(us[0], s|sig.Of(0)); got != 0 {
		t.Fatalf("an absent signature under a present U: probe found %d, want 0", got)
	}
	ix.release()
	if left := table.SlabsOut() - held; left != 0 {
		t.Fatalf("the partners table kept %d slabs", left)
	}
}
