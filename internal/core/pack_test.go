package core

import (
	"math/rand"
	"testing"

	"repro/internal/sig"
	"repro/internal/table"
)

// The joins pack their entries by hand, and the two words are not laid out
// alike in the roles the solver gives them: VU holds the walk's end, the
// vertex that moves, in its high half above the start, while XY holds the
// first recorded vertex high and the second low. Every packed form a
// producer writes must be the entry of the key it stands for — built here
// field by field, as the producers used to — for every record slot,
// start-free walks (U = None) and unary entries (V = None) included.
func TestPackedEntriesMatchTheirKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	vertex := func() uint32 {
		if rng.Intn(4) == 0 {
			return table.None
		}
		return rng.Uint32()
	}
	for i := 0; i < 20000; i++ {
		u, v, x, y := vertex(), vertex(), vertex(), vertex()
		s, c := sig.Sig(rng.Uint32()), rng.Uint64()
		src := table.Key{U: u, V: rng.Uint32(), X: x, Y: y, S: s}.Ent(c)
		for record := 0; record <= 2; record++ {
			slot := slotOf(record)
			// A step extends src to v (edgeJoin) ...
			want := table.Key{U: u, V: v, X: x, Y: y, S: s}
			// ... or starts a walk from u with the edge to v (initEdge).
			first := table.Binary(u, v, s)
			switch record {
			case 1:
				want.X, first.X = v, v
			case 2:
				want.Y, first.Y = v, v
			}
			if got := slot.ent(src.U(), v, src.XY&slot.keep, s, c); got != want.Ent(c) || got.Key() != want {
				t.Fatalf("record %d: extending %+v to %d packed %+v, want the entry of %+v", record, src.Key(), v, got, want)
			}
			if got := slot.ent(u, v, slot.keep, s, c); got != first.Ent(c) || got.Key() != first {
				t.Fatalf("record %d: the first edge (%d, %d) packed %+v, want the entry of %+v", record, u, v, got, first)
			}
		}
		// lift, groupBinary and a two-boundary joinSplit; solveLeaf and a
		// one-boundary joinSplit.
		if got, want := table.BinaryEnt(u, v, s, c), table.Binary(u, v, s); got != want.Ent(c) || got.Key() != want {
			t.Fatalf("BinaryEnt(%d, %d) packed %+v, want the entry of %+v", u, v, got, want)
		}
		if got, want := table.UnaryEnt(u, s, c), table.Unary(u, s); got != want.Ent(c) || got.Key() != want {
			t.Fatalf("UnaryEnt(%d) packed %+v, want the entry of %+v", u, got, want)
		}
	}
}
