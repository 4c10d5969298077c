package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/decomp"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/sig"
	"repro/internal/table"
)

// nodeJoin against the entry-pair join it replaced, written out here: each
// walk entry k and child entry e at k's end vertex v whose signatures meet
// at {χ(v)} alone add k.C·e.C at k's key with signature k.S ∪ e.S, and the
// load is Σ_v (walk entries at v)·(child entries at v). Three feeds — a
// start-free walk, whose output is written as rows; a walk with a start and
// a recorded vertex, whose (U, XY) groups are written as entries; and a
// start-free walk's data edge into the node, fused into one pulled step
// (pullNode) where its source is boxed, else an edge step and the first
// feed (extend), against the edge written out too: each walk entry at a
// neighbour u of v whose signature lacks χ(v) adds its count at v with
// χ(v) added, at a load of (walk entries at v)·deg(v) — over every form a
// side can be read in: an open box in place, a shard compacted before the
// join, a shard over the box cap (one partition of 2000 vertices at 21
// cells a row), sparse enough to be sorted at compaction or dense enough to
// be boxed then; and an output that fits a box and one over the cap (two
// partitions of 1000 vertices at 35 cells a row). The fused feed runs with
// a child of size-2 signatures and one of size-4 ones, whose product's rows
// (7 cells) fit a box where the edge's (35) do not: there the edge is
// pulled and then joined. Every slab the join borrows comes back.
func TestNodeJoinFeedsMatchEntryPairs(t *testing.T) {
	const n, k = 2000, 8
	rng := rand.New(rand.NewSource(40))
	g := gen.ErdosRenyi("nodejoin", n, 3*n, rng)
	colors := make([]uint8, n)
	for v := range colors {
		colors[v] = uint8(rng.Intn(k))
	}
	type key struct {
		vu, xy uint64
		s      sig.Sig
	}
	seen := map[string]bool{}
	for _, parts := range []int{1, 2, 8} {
		for _, perVertex := range []int{1, 6} {
			for _, compacted := range []bool{false, true} {
				for _, f := range []struct {
					feed string
					hb   int // the child's signature size
				}{{"free", 2}, {"start", 2}, {"fused", 2}, {"fused", 4}} {
					feed, hb := f.feed, f.hb
					free := feed != "start"
					name := fmt.Sprintf("parts=%d draws=%d compacted=%v feed=%s child=%d", parts, perVertex, compacted, feed, hb)
					held := table.SlabsOut()
					be := &stepped{Backend: engine.NewRuntime(engine.ParallelName, parts, 2, n)}
					s := newSolver(context.Background(), g, colors, k, be, DB)
					cur, child := engine.NewSharded(be), engine.NewMatrix(be, k, colors, false)
					if free {
						cur = engine.NewMatrix(be, k, colors, true)
					}
					walk, kids := map[key]uint64{}, map[uint32]map[sig.Sig]uint64{}
					for v := uint32(0); v < n; v++ {
						kids[v] = map[sig.Sig]uint64{}
						if rng.Intn(4) == 0 {
							continue // a vertex the walk does not reach
						}
						for i := 0; i < perVertex; i++ {
							own := sig.OwnOf(k, 3).Sigs[colors[v]]
							e := table.BinaryEnt(table.None, v, own[rng.Intn(len(own))], uint64(1+rng.Intn(5)))
							if !free {
								e.VU = uint64(v)<<32 | uint64(rng.Intn(3)) // one of three starts
								e.XY = uint64(rng.Intn(2))<<32 | uint64(table.None)
							}
							cur.Shard(be.Owner(v)).AddEnt(e)
							walk[key{e.VU, e.XY, e.S}] += e.C
							own = sig.OwnOf(k, hb).Sigs[colors[v]]
							sb := own[rng.Intn(len(own))]
							child.Add(be.Owner(v), table.Unary(v, sb), 1)
							kids[v][sb]++
						}
					}
					if compacted {
						cur.Len()
						child.Len()
					}
					for w := 0; w < be.P(); w++ {
						lo, _ := be.Range(w)
						for side, sh := range map[string]*table.Flat{"start-free walk": cur.Shard(w), "child": child.Shard(w)} {
							if row, _ := sh.Row(lo); free || side == "child" {
								seen[fmt.Sprintf("%s: %s in place: %v", feed, side, sh.Boxed() && row != nil)] = true
							}
						}
					}
					var load int64
					if feed == "fused" { // the edge step, pushed
						edge := map[key]uint64{}
						for kk, c := range walk {
							u := uint32(kk.vu >> 32)
							for _, v := range g.Neighbors(u) {
								load++ // each walk entry at u, once per neighbour v
								if !kk.s.Has(colors[v]) {
									edge[key{uint64(v)<<32 | uint64(table.None), kk.xy, kk.s.Add(colors[v])}] += c
								}
							}
						}
						walk = edge
					}
					want := map[key]uint64{}
					for kk, c := range walk {
						v := uint32(kk.vu >> 32)
						load += int64(len(kids[v]))
						for sb, cb := range kids[v] {
							if kk.s.Inter(sb) == sig.Of(colors[v]) {
								want[key{kk.vu, kk.xy, kk.s | sb}] += c * cb
							}
						}
					}
					ann := &decomp.Block{Kind: decomp.LeafEdge, Nodes: []int{0, 1}, Boundary: []int{0}}
					s.tables[ann] = child
					var out *engine.Sharded
					if feed == "fused" {
						out = s.extend(cur, pathStart{free: true}, pathStep{nodeAnn: ann}, true)
						switch {
						case be.fused:
							seen["fused: one pulled step"] = true
						case be.pulled:
							seen["fused: the edge pulled, then joined"] = true
						default:
							seen["fused: the edge pushed, then joined"] = true
						}
					} else {
						out = s.nodeJoin(cur, pathStart{free: free}, ann, free)
					}
					got, wrote := map[key]uint64{}, feed
					if feed == "fused" && be.fused {
						wrote = "fused, pulled"
					}
					for w := 0; w < be.P(); w++ {
						lo, _ := be.Range(w)
						if row, _ := out.Shard(w).Row(lo); free && row != nil {
							seen[wrote+": output rows"] = true
						} else if free && out.Shard(w).SigSize() > 0 {
							seen[wrote+": output entries"] = true
						}
						for _, e := range out.Shard(w).Ents() {
							got[key{e.VU, e.XY, e.S}] += e.C
						}
					}
					if len(got) != len(want) {
						t.Errorf("%s: %d keys, want %d", name, len(got), len(want))
					}
					for kk, c := range want {
						if got[kk] != c {
							t.Fatalf("%s: (V %d, U %d, XY %x, %b) counts %d, want %d", name, kk.vu>>32, uint32(kk.vu), kk.xy, kk.s, got[kk], c)
						}
					}
					if _, _, total := engine.LoadStats(be.Loads()); total != load {
						t.Errorf("%s: load %d, want %d", name, total, load)
					}
					for _, tb := range []*engine.Sharded{cur, child, out} {
						tb.Release()
					}
					if left := table.SlabsOut() - held; left != 0 {
						t.Errorf("%s: %d slabs not given back", name, left)
					}
				}
			}
		}
	}
	forms := []string{"start: child in place: true", "start: child in place: false", "fused, pulled: output rows", "fused, pulled: output entries",
		"fused: one pulled step", "fused: the edge pulled, then joined", "fused: the edge pushed, then joined"}
	for _, feed := range []string{"free", "fused"} {
		for _, form := range []string{"start-free walk in place: true", "start-free walk in place: false", "child in place: true", "child in place: false", "output rows", "output entries"} {
			forms = append(forms, feed+": "+form)
		}
	}
	for _, form := range forms {
		if !seen[form] {
			t.Errorf("no case reads or writes %q", form)
		}
	}
}
