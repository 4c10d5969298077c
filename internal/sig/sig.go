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
// only can be indexed more tightly: see Ranking.
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
// out of k: the signature axis of a vertex×signature count matrix (the
// |V| × C(k,h) table of the tree DP), where Rank() — the bitmap itself —
// would leave 2^k − C(k,h) slots of every row unused. Positions ascend with
// the bitmap, so a row swept in position order comes out in Rank() order.
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
