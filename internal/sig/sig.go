// Package sig implements color signatures: sets of colors represented as
// bitmaps, as used by the projection tables of the color-coding solver
// (paper §7: "Signatures are maintained as bitmaps").
//
// Colors are small integers in [0, MaxColors). A signature is the set of
// colors used by a (partial) colorful match.
package sig

import (
	"math/bits"
	"sync/atomic"
)

// MaxColors is the largest number of colors supported. Queries larger than
// this are rejected up front; the paper's queries have at most 11 nodes.
const MaxColors = 31

// Sig is a set of colors encoded as a bitmap: bit c is set iff color c is
// in the set. The zero value is the empty set.
type Sig uint32

// Of returns the singleton signature {c}.
func Of(c uint8) Sig { return 1 << c }

// Full returns the signature containing all colors 0..k-1.
func Full(k int) Sig { return Sig(1)<<uint(k) - 1 }

// Has reports whether color c is in s.
func (s Sig) Has(c uint8) bool { return s&(1<<c) != 0 }

// Add returns s ∪ {c}.
func (s Sig) Add(c uint8) Sig { return s | 1<<c }

// Union returns s ∪ t.
func (s Sig) Union(t Sig) Sig { return s | t }

// Inter returns s ∩ t.
func (s Sig) Inter(t Sig) Sig { return s & t }

// Without returns s \ t.
func (s Sig) Without(t Sig) Sig { return s &^ t }

// Disjoint reports whether s ∩ t = ∅.
func (s Sig) Disjoint(t Sig) bool { return s&t == 0 }

// Contains reports whether t ⊆ s.
func (s Sig) Contains(t Sig) bool { return s&t == t }

// Size returns |s|.
func (s Sig) Size() int { return bits.OnesCount32(uint32(s)) }

// Rank returns s's position along the signature axis of the flat table
// layout (package table): the dense rank of s among all 2^k signatures
// over k colors, which for a bitmap encoding is the bitmap value itself.
// Flat tables order entries that share a vertex by ascending Rank, so
// consecutive signatures sit adjacent in memory and the join loops scan
// them as one contiguous run. A table that holds signatures of one size
// only can be indexed more tightly: see Ranking and Own.
func (s Sig) Rank() uint32 { return uint32(s) }

// Colors returns the colors in s in increasing order, appended to dst.
func (s Sig) Colors(dst []uint8) []uint8 {
	for s != 0 {
		c := uint8(bits.TrailingZeros32(uint32(s)))
		dst = append(dst, c)
		s &= s - 1
	}
	return dst
}

// MaxRankedColors is the largest colour count a Ranking is built for: the
// solver's own bound on query size. C(16,8) = 12870 positions fit a uint16
// with room for the NoRank sentinel.
const MaxRankedColors = 16

// NoRank fills the slots of Ranking.Rank that belong to signatures of
// another size. It is larger than any C(k,h) a Ranking is built for, so
// indexing a row of C(k,h) counts with it is out of range — a signature of
// the wrong size panics, it never aliases another signature's slot.
const NoRank = ^uint16(0)

// Ranking is the dense order of the C(k,h) signatures of exactly h colours
// out of k, where Rank() — the bitmap itself — would leave 2^k − C(k,h)
// slots of a row of them unused. Positions ascend with the bitmap, so a row
// swept in position order comes out in Rank() order. A row of the tree
// DP's vertex×signature count matrix is narrower still: it holds only
// signatures with its vertex's colour, ranked by RankingOf(k−1, h−1) (Own).
type Ranking struct {
	Rank []uint16 // indexed by bitmap, len 1<<k: the signature's position, or NoRank
	Sigs []Sig    // the C(k,h) signatures in ascending order: Sigs[Rank[s]] == s
}

var rankings [MaxRankedColors + 1][MaxRankedColors + 1]atomic.Pointer[Ranking]

// RankingOf returns the ranking of the size-h signatures over k colours,
// 0 ≤ h ≤ k ≤ MaxRankedColors. Each is built once per process and read
// without a lock from then on (two first callers may both build it; one
// copy is kept).
func RankingOf(k, h int) *Ranking {
	slot := &rankings[k][h]
	if r := slot.Load(); r != nil {
		return r
	}
	r := &Ranking{Rank: make([]uint16, 1<<k)}
	for s := range r.Rank {
		r.Rank[s] = NoRank
		if bits.OnesCount(uint(s)) == h {
			r.Rank[s] = uint16(len(r.Sigs))
			r.Sigs = append(r.Sigs, Sig(s))
		}
	}
	slot.CompareAndSwap(nil, r)
	return slot.Load()
}

// Squeeze returns s with bit c dropped and the bits above it moved down
// one: a set over k colours that holds c as a set over the other k−1.
func (s Sig) Squeeze(c uint8) Sig {
	low := Sig(1)<<c - 1
	return s&low | s>>1&^low
}

// Expand is Squeeze undone: s, a set over k−1 colours, with the bits from
// c up moved up one and c added.
func (s Sig) Expand(c uint8) Sig {
	low := Sig(1)<<c - 1
	return s&low | 1<<c | (s&^low)<<1
}

// Own is the dense order of a vertex's own row: the size-h signatures over
// k colours that hold the vertex's colour c, which are all a row of the
// tree DP's count matrix can hold. Signature s sits at RankingOf(k−1, h−1)'s
// position of s.Squeeze(c), so a row is C(k−1, h−1) cells — h/k of the
// C(k, h) a Ranking would give it. Squeezing keeps order, so positions
// ascend with the bitmap, as a Ranking's do.
type Own struct {
	// Rank is RankingOf(k−1, h−1).Rank and as many NoRank slots again,
	// which Pos sends a signature that lacks c to: squeezed, it would
	// otherwise alias the cell of itself with c added.
	Rank []uint16
	Sigs [][]Sig // [c][j]: the signature at position j of a colour-c vertex's row
	top  uint8   // k−1: the bit Pos sets for a signature that lacks c
}

// Pos returns the position of s in the row of a vertex of colour c, or
// NoRank if s lacks c or has another size — out of range of the row, so
// indexing one with it panics. It must stay inlinable: the join loops index
// a row with it per entry.
func (o *Own) Pos(s Sig, c uint8) uint16 { return o.Rank[s.Squeeze(c)|(^s>>c&1)<<o.top] }

// Size returns the size of the signatures the rows hold.
func (o *Own) Size() int { return o.Sigs[0][0].Size() }

var owns [MaxRankedColors + 1][MaxRankedColors + 1]atomic.Pointer[Own]

// OwnOf returns the own-colour ranking of the size-h signatures over k
// colours, 1 ≤ h ≤ k ≤ MaxRankedColors; built once per process, as
// RankingOf's rankings are.
func OwnOf(k, h int) *Own {
	slot := &owns[k][h]
	if o := slot.Load(); o != nil {
		return o
	}
	narrow := RankingOf(k-1, h-1)
	o := &Own{Rank: make([]uint16, 1<<k), Sigs: make([][]Sig, k), top: uint8(k - 1)}
	for i := copy(o.Rank, narrow.Rank); i < len(o.Rank); i++ {
		o.Rank[i] = NoRank
	}
	for c := range o.Sigs {
		o.Sigs[c] = make([]Sig, len(narrow.Sigs))
		for j, s := range narrow.Sigs {
			o.Sigs[c][j] = s.Expand(uint8(c))
		}
	}
	slot.CompareAndSwap(nil, o)
	return slot.Load()
}

// Shift is the edge step of the tree DP, written as a product, from a
// vertex of colour a to a neighbour of colour b: a row of the first's
// size-h signature counts over k colours is added into a row of the
// second's size-h+1 ones by dst[To[i]] += src[From[i]]. Both rows are own
// rows (OwnOf): From lists the positions, in a's row, of the signatures
// that lack b — one that holds b cannot take it — and To, ascending, where
// each with b added sits in b's row. No two To are equal: the adds do not
// wait on one another.
type Shift struct {
	From, To []uint16
}

var shifts [MaxRankedColors + 1][MaxRankedColors + 1]atomic.Pointer[[][]Shift]

// ShiftsOf returns the shifts of the size-h signatures over k colours,
// indexed by the two colours, [a][b], 1 ≤ h ≤ k ≤ MaxRankedColors; built
// once per process, as RankingOf's rankings are. Each of a ≠ b has
// C(k−2, h−1) pairs; those with a = b are empty, and so are all of them at
// h = k.
func ShiftsOf(k, h int) [][]Shift {
	slot := &shifts[k][h]
	if s := slot.Load(); s != nil {
		return *s
	}
	s := make([][]Shift, k)
	for a := range s {
		s[a] = make([]Shift, k)
		for b := range s[a] {
			if a == b || h == k {
				continue
			}
			from, up, sh := OwnOf(k, h), OwnOf(k, h+1), &s[a][b]
			for j, sg := range from.Sigs[a] {
				if !sg.Has(uint8(b)) {
					sh.From = append(sh.From, uint16(j))
					sh.To = append(sh.To, up.Pos(sg.Add(uint8(b)), uint8(b)))
				}
			}
		}
	}
	slot.CompareAndSwap(nil, &s)
	return *slot.Load()
}

// Pairs is the node step of the tree DP, written as a product: two own rows
// of one vertex of colour c (OwnOf), a of size-ha signatures and b of
// size-hb ones, combine into a row of size-(ha+hb−1) ones by
// out[T[x]] += a[i]·b[B[x]] for x in [At[i], At[i+1]) — the pairs whose
// signatures meet exactly at {c}, T where their union sits. An own row has
// c squeezed out of every position, so two meet exactly at {c} where their
// positions' sets over the other k−1 colours are disjoint, and the table is
// the same for every c. Within one a-position, T ascends.
type Pairs struct {
	At   []uint32 // len C(k−1, ha−1)+1
	B, T []uint16
}

var pairs [MaxRankedColors + 1][MaxRankedColors + 1][MaxRankedColors + 1]atomic.Pointer[Pairs]

// PairsOf returns the pairs of own rows of size-ha and size-hb signatures
// over k colours, 1 ≤ ha, hb ≤ k ≤ MaxRankedColors; built once per process,
// as RankingOf's rankings are. Where ha+hb−1 > k no union fits k colours,
// and there are none.
func PairsOf(k, ha, hb int) *Pairs {
	slot := &pairs[k][ha][hb]
	if p := slot.Load(); p != nil {
		return p
	}
	a, b := RankingOf(k-1, ha-1), RankingOf(k-1, hb-1)
	p := &Pairs{At: make([]uint32, len(a.Sigs)+1)}
	if h := ha + hb - 1; h <= k {
		up := RankingOf(k-1, h-1)
		for i, sa := range a.Sigs {
			for j, sb := range b.Sigs {
				if sa.Disjoint(sb) {
					p.B = append(p.B, uint16(j))
					p.T = append(p.T, up.Rank[sa|sb])
				}
			}
			p.At[i+1] = uint32(len(p.B))
		}
	}
	slot.CompareAndSwap(nil, p)
	return slot.Load()
}
