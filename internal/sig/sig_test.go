package sig

import (
	"math/bits"
	"sync"
	"testing"
	"testing/quick"
)

func TestBasicOps(t *testing.T) {
	var s Sig
	if s.Size() != 0 {
		t.Fatalf("empty size = %d", s.Size())
	}
	s = s.Add(3).Add(7).Add(3)
	if s.Size() != 2 {
		t.Fatalf("size = %d, want 2", s.Size())
	}
	if !s.Has(3) || !s.Has(7) || s.Has(0) {
		t.Fatalf("membership wrong: %b", s)
	}
	if got := s.Colors(nil); len(got) != 2 || got[0] != 3 || got[1] != 7 {
		t.Fatalf("Colors = %v", got)
	}
}

func TestFull(t *testing.T) {
	for k := 0; k <= MaxColors; k++ {
		f := Full(k)
		if f.Size() != k {
			t.Fatalf("Full(%d).Size = %d", k, f.Size())
		}
		for c := 0; c < k; c++ {
			if !f.Has(uint8(c)) {
				t.Fatalf("Full(%d) missing %d", k, c)
			}
		}
	}
}

func TestOf(t *testing.T) {
	for c := uint8(0); c < MaxColors; c++ {
		s := Of(c)
		if s.Size() != 1 || !s.Has(c) {
			t.Fatalf("Of(%d) = %b", c, s)
		}
	}
}

// Property: set algebra identities hold for arbitrary signatures.
func TestQuickSetAlgebra(t *testing.T) {
	f := func(a, b uint32) bool {
		s, u := Sig(a), Sig(b)
		if s.Union(u) != u.Union(s) || s.Inter(u) != u.Inter(s) {
			return false
		}
		// |s ∪ u| = |s| + |u| - |s ∩ u|
		if s.Union(u).Size() != s.Size()+u.Size()-s.Inter(u).Size() {
			return false
		}
		if s.Disjoint(u) != (s.Inter(u) == 0) {
			return false
		}
		if !s.Contains(s.Inter(u)) || !s.Union(u).Contains(s) {
			return false
		}
		return s.Without(u).Inter(u) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Colors round-trips through Add.
func TestQuickColorsRoundTrip(t *testing.T) {
	f := func(a uint32) bool {
		s := Sig(a)
		var back Sig
		for _, c := range s.Colors(nil) {
			back = back.Add(c)
		}
		return back == s && s.Size() == bits.OnesCount32(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// A vertex's own row ranks the size-h signatures that hold its colour c:
// for every 1 ≤ h ≤ k ≤ MaxRankedColors and every c, Squeeze and Expand
// round-trip each of them, their positions are 0, 1, … in bitmap order — a
// row swept in position order is in Rank() order — and Sigs lists them
// there. A signature that lacks c, or has another size, ranks NoRank.
func TestOwnRanksTheSignaturesThatHoldTheColour(t *testing.T) {
	for k := 1; k <= MaxRankedColors; k++ {
		for h := 1; h <= k; h++ {
			own := OwnOf(k, h)
			if len(own.Sigs) != k || own.Size() != h {
				t.Fatalf("OwnOf(%d, %d) has %d rows of size %d", k, h, len(own.Sigs), own.Size())
			}
			for c := uint8(0); int(c) < k; c++ {
				next := 0
				for s := Sig(0); s < 1<<k; s++ {
					pos := own.Pos(s, c)
					if !s.Has(c) || s.Size() != h {
						if pos != NoRank {
							t.Fatalf("k=%d h=%d c=%d: %b ranks %d, want NoRank", k, h, c, s, pos)
						}
						continue
					}
					if back := s.Squeeze(c).Expand(c); back != s || s.Squeeze(c) >= 1<<(k-1) {
						t.Fatalf("k=%d c=%d: %b squeezes to %b and expands to %b", k, c, s, s.Squeeze(c), back)
					}
					if int(pos) != next || own.Sigs[c][pos] != s {
						t.Fatalf("k=%d h=%d c=%d: %b ranks %d, want %d (Sigs has %b there)", k, h, c, s, pos, next, own.Sigs[c][pos])
					}
					next++
				}
				if next != len(own.Sigs[c]) {
					t.Fatalf("k=%d h=%d c=%d: %d signatures hold c, the row has %d cells", k, h, c, next, len(own.Sigs[c]))
				}
			}
		}
	}
}

// A shift from a vertex of colour a to a neighbour of colour b lists, in
// order, the positions in a's own row of every size-h signature that lacks
// b — the only cells of a's row the step can extend — beside where that
// signature with b added sits in b's row; with a = b, or nothing left to
// add, none. It is the shift over the whole of C(k, h) — every signature
// that holds a and lacks b, to RankingOf(k, h+1) — mapped through the two
// own rankings, pair for pair: C(k−2, h−1) of them.
func TestShiftsExtendBySignature(t *testing.T) {
	binom := func(n, r int) int {
		if r < 0 || r > n {
			return 0
		}
		c := 1
		for i := 0; i < r; i++ {
			c = c * (n - i) / (i + 1)
		}
		return c
	}
	for k := 2; k <= 12; k++ {
		for h := 1; h <= k; h++ {
			shifts := ShiftsOf(k, h)
			if len(shifts) != k {
				t.Fatalf("ShiftsOf(%d, %d) has %d rows, want %d", k, h, len(shifts), k)
			}
			wide, from := RankingOf(k, h), OwnOf(k, h)
			for a := uint8(0); int(a) < k; a++ {
				for b := uint8(0); int(b) < k; b++ {
					sh := shifts[a][b]
					want := 0
					if a != b {
						want = binom(k-2, h-1)
					}
					if len(sh.From) != want || len(sh.To) != want {
						t.Fatalf("k=%d h=%d %d→%d: %d from, %d to; want %d", k, h, a, b, len(sh.From), len(sh.To), want)
					}
					i := 0
					for _, s := range wide.Sigs {
						if a == b || h == k || !s.Has(a) || s.Has(b) {
							continue
						}
						up := OwnOf(k, h+1)
						if sh.From[i] != from.Pos(s, a) || sh.To[i] != up.Pos(s.Add(b), b) || i > 0 && sh.To[i-1] >= sh.To[i] {
							t.Fatalf("k=%d h=%d %d→%d: pair %d is %d→%d, want %b at %d → %b at %d", k, h, a, b, i,
								sh.From[i], sh.To[i], s, from.Pos(s, a), s.Add(b), up.Pos(s.Add(b), b))
						}
						i++
					}
				}
			}
		}
	}
}

// Two first callers of ShiftsOf for the same sizes, racing, are handed one
// table: the one that stored it first.
func TestShiftsAreBuiltOnce(t *testing.T) {
	const k, h = MaxRankedColors, MaxRankedColors - 1 // sizes no other test asks for
	var got [2][][]Shift
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = ShiftsOf(k, h)
		}()
	}
	wg.Wait()
	if &got[0][0] != &got[1][0] || &got[0][0][1] != &ShiftsOf(k, h)[0][1] {
		t.Fatal("two callers of ShiftsOf were handed different tables")
	}
}

// The pairs of two own rows of one colour c are exactly the signatures that
// meet at {c} and nowhere else, each listed once, under its a-position, with
// T the position of their union in c's row of the sum of their sizes less
// one — checked by brute force over the rows of every colour, which must all
// agree, since the table is one for every c. Where the union would not fit k
// colours, no pair is listed.
func TestPairsMeetExactlyAtTheColour(t *testing.T) {
	for k := 1; k <= 12; k++ {
		for ha := 1; ha <= k; ha++ {
			for hb := 1; hb <= k; hb++ {
				p, a, b := PairsOf(k, ha, hb), OwnOf(k, ha), OwnOf(k, hb)
				if n := len(a.Sigs[0]); len(p.At) != n+1 || p.At[0] != 0 || int(p.At[n]) != len(p.B) || len(p.T) != len(p.B) {
					t.Fatalf("PairsOf(%d, %d, %d): %d offsets ending at %d, %d partners, %d targets; want %d offsets from 0", k, ha, hb, len(p.At), p.At[len(p.At)-1], len(p.B), len(p.T), n+1)
				}
				if ha+hb-1 > k && len(p.B) > 0 {
					t.Fatalf("PairsOf(%d, %d, %d) lists %d pairs; no union fits %d colours", k, ha, hb, len(p.B), k)
				}
				listed := make([]int, len(b.Sigs[0])) // a b-position's index in p.B under the a-position at hand, or −1
				for i := range a.Sigs[0] {
					lo, hi := p.At[i], p.At[i+1]
					if lo > hi {
						t.Fatalf("PairsOf(%d, %d, %d): position %d's pairs run from %d to %d", k, ha, hb, i, lo, hi)
					}
					for j := range listed {
						listed[j] = -1
					}
					for x := lo; x < hi; x++ {
						if listed[p.B[x]] >= 0 || x > lo && p.T[x-1] >= p.T[x] {
							t.Fatalf("PairsOf(%d, %d, %d): position %d lists partner %d twice or out of order", k, ha, hb, i, p.B[x])
						}
						listed[p.B[x]] = int(x)
					}
					for c := uint8(0); int(c) < k; c++ {
						sa := a.Sigs[c][i]
						for j, sb := range b.Sigs[c] {
							meet := sa.Inter(sb) == Of(c)
							if x := listed[j]; meet != (x >= 0) {
								t.Fatalf("k=%d c=%d: %b and %b meet at %b; listed: %v", k, c, sa, sb, sa.Inter(sb), x >= 0)
							} else if meet && p.T[x] != OwnOf(k, ha+hb-1).Pos(sa|sb, c) {
								t.Fatalf("k=%d c=%d: %b and %b land at %d, want %d", k, c, sa, sb, p.T[x], OwnOf(k, ha+hb-1).Pos(sa|sb, c))
							}
						}
					}
				}
			}
		}
	}
}
