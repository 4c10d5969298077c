// Flat is the signature-major projection table used on the solver's hot
// path. Where a hash table scatters the entries of one vertex across its
// backing array, Flat keeps entries in one dense slice sorted by (home
// vertex, other boundary, recorded vertices, signature rank): all entries
// sharing a vertex sit contiguously, and within a vertex group
// consecutive signature ranks (sig.Rank) are adjacent. Join
// loops then run as linear scans and merge-joins over plain slices —
// no hashing, no per-entry map or closure overhead, and inner accumulate
// loops the compiler can keep in registers.
//
// Writes are buffered appends: Add places entries in an unsorted pending
// region and the table re-establishes the sorted layout lazily (sort the
// pending region, fold duplicates, then a single two-way merge with the
// sorted prefix). The solver's tables are built by a burst of Adds during
// one superstep and then scanned read-only by the next join, so in the
// typical lifecycle each table is compacted exactly once.
package table

import (
	"slices"

	"repro/internal/sig"
)

// Ent is one flat-table entry: a Key packed into two uint64 comparison
// words plus the signature and count. VU holds V in the high half and U in
// the low half, so ordering by VU groups entries by their home vertex V
// (binary entries are homed at V's owner; unary entries carry V = None and
// therefore sort into a single group ordered by U). XY packs the recorded
// vertices X and Y the same way.
type Ent struct {
	VU uint64 // uint64(V)<<32 | uint64(U)
	XY uint64 // uint64(X)<<32 | uint64(Y)
	S  sig.Sig
	C  uint64
}

// entOf packs k and c into an Ent.
func entOf(k Key, c uint64) Ent {
	return Ent{
		VU: uint64(k.V)<<32 | uint64(k.U),
		XY: uint64(k.X)<<32 | uint64(k.Y),
		S:  k.S,
		C:  c,
	}
}

// U returns the key's U vertex.
func (e Ent) U() uint32 { return uint32(e.VU) }

// V returns the key's V vertex (None for unary entries).
func (e Ent) V() uint32 { return uint32(e.VU >> 32) }

// X returns the key's first recorded vertex (None if unused).
func (e Ent) X() uint32 { return uint32(e.XY >> 32) }

// Y returns the key's second recorded vertex (None if unused).
func (e Ent) Y() uint32 { return uint32(e.XY) }

// Key reconstructs the entry's Key.
func (e Ent) Key() Key {
	return Key{U: e.U(), V: e.V(), X: e.X(), Y: e.Y(), S: e.S}
}

// cmpEnt orders entries by (VU, XY, signature rank). Entries comparing
// equal have identical keys.
func cmpEnt(a, b Ent) int {
	switch {
	case a.VU < b.VU:
		return -1
	case a.VU > b.VU:
		return 1
	case a.XY < b.XY:
		return -1
	case a.XY > b.XY:
		return 1
	case a.S.Rank() < b.S.Rank():
		return -1
	case a.S.Rank() > b.S.Rank():
		return 1
	}
	return 0
}

// pendingMin is the smallest pending region worth compacting eagerly.
// Below it, appends stay cheap and compaction waits for a reader. Above
// it, compaction triggers once the pending region would outgrow the
// sorted prefix, which keeps total compaction work O(n log n) while
// bounding buffered memory to roughly the table size.
const pendingMin = 4096

// Flat is a projection table stored as a sorted dense slice of Ent (see
// the package comment on flat.go). The zero value is an empty table ready
// for use. Not safe for concurrent mutation; the engine gives each
// partition its own shard.
type Flat struct {
	ents    []Ent // ents[:nSorted] sorted & deduped; ents[nSorted:] pending
	nSorted int
	scratch []Ent // reusable merge buffer
}

// NewFlat returns a table pre-sized for at least capacity entries.
func NewFlat(capacity int) *Flat {
	return &Flat{ents: make([]Ent, 0, capacity)}
}

// Grow ensures capacity for n additional entries without reallocating.
func (t *Flat) Grow(n int) {
	t.ents = slices.Grow(t.ents, n)
}

// Add accumulates c into the entry for k (inserting it if absent). The
// entry lands in the pending region; duplicate keys are folded together
// at the next compaction.
func (t *Flat) Add(k Key, c uint64) {
	t.ents = append(t.ents, entOf(k, c))
	if p := len(t.ents) - t.nSorted; p >= pendingMin && p >= t.nSorted {
		t.compact()
	}
}

// keyByte extracts byte `level` of an entry's composite sort key, numbered
// from the least-significant end: levels 0–3 are the signature rank,
// 4–11 the packed XY word, 12–19 the packed VU word. Sorting stably by
// ascending level (LSD radix) therefore realizes exactly cmpEnt's
// (VU, XY, rank) order.
func keyByte(e *Ent, level uint) uint8 {
	switch {
	case level < 4:
		return uint8(e.S.Rank() >> (8 * level))
	case level < 12:
		return uint8(e.XY >> (8 * (level - 4)))
	default:
		return uint8(e.VU >> (8 * (level - 12)))
	}
}

// radixSort sorts ents by (VU, XY, signature rank) with an LSD byte radix,
// using buf (same length) as the ping-pong buffer, and returns the sorted
// slice (either ents or buf — whichever holds the final pass). Byte levels
// that are constant across the slice — most of them, in practice: vertex
// ids span the graph size, X/Y are usually None, signatures fit the color
// count — are skipped entirely, so a typical table sorts in 4–6 counting
// passes of pure sequential access, with no comparator calls.
func radixSort(ents, buf []Ent) []Ent {
	if len(ents) < 48 {
		// Too small for counting passes to pay off.
		slices.SortFunc(ents, cmpEnt)
		return ents
	}
	// One cheap scan finds which key bytes vary at all: XOR against the
	// first entry, OR the differences together. A constant byte needs no
	// radix pass.
	e0 := &ents[0]
	var dVU, dXY uint64
	var dS uint32
	for i := 1; i < len(ents); i++ {
		e := &ents[i]
		dVU |= e.VU ^ e0.VU
		dXY |= e.XY ^ e0.XY
		dS |= e.S.Rank() ^ e0.S.Rank()
	}
	src, dst := ents, buf
	var count [256]int32
	for level := uint(0); level < 20; level++ {
		var varies bool
		switch {
		case level < 4:
			varies = uint8(dS>>(8*level)) != 0
		case level < 12:
			varies = uint8(dXY>>(8*(level-4))) != 0
		default:
			varies = uint8(dVU>>(8*(level-12))) != 0
		}
		if !varies {
			continue
		}
		clear(count[:])
		for i := range src {
			count[keyByte(&src[i], level)]++
		}
		var pos int32
		for b := range count {
			c := count[b]
			count[b] = pos
			pos += c
		}
		for i := range src {
			b := keyByte(&src[i], level)
			dst[count[b]] = src[i]
			count[b]++
		}
		src, dst = dst, src
	}
	return src
}

// compact restores the invariant ents == sorted(dedup(ents)): sort the
// pending region, fold its duplicates in place, then merge it with the
// sorted prefix (accumulating counts of equal keys) into scratch and swap.
func (t *Flat) compact() {
	if t.nSorted == len(t.ents) {
		return
	}
	if cap(t.scratch) < cap(t.ents) {
		t.scratch = make([]Ent, 0, cap(t.ents))
	}
	// The radix ping-pong buffer shares scratch's tail so that the merge
	// below can build its output in scratch's head: the merge write cursor
	// (≤ i+j) never catches up to pending entry j at offset nSorted+j.
	full := t.scratch[:cap(t.scratch)]
	pend := radixSort(t.ents[t.nSorted:], full[t.nSorted:len(t.ents)])
	// Fold runs of equal keys in the pending region.
	w := 0
	for r := 1; r < len(pend); r++ {
		if pend[r].VU == pend[w].VU && pend[r].XY == pend[w].XY && pend[r].S == pend[w].S {
			pend[w].C += pend[r].C
		} else {
			w++
			pend[w] = pend[r]
		}
	}
	if len(pend) > 0 {
		pend = pend[:w+1]
	}
	if t.nSorted == 0 {
		// pend may live in either buffer after the radix ping-pong; copy is
		// a no-op when it already sits at the head of ents.
		t.ents = append(t.ents[:0], pend...)
		t.nSorted = len(pend)
		return
	}
	// Two-way merge of the sorted prefix with the deduped pending run.
	a, b := t.ents[:t.nSorted], pend
	if cap(t.scratch) < len(a)+len(b) {
		t.scratch = make([]Ent, 0, len(a)+len(b))
	}
	out := t.scratch[:0]
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch c := cmpEnt(a[i], b[j]); {
		case c < 0:
			out = append(out, a[i])
			i++
		case c > 0:
			out = append(out, b[j])
			j++
		default:
			e := a[i]
			e.C += b[j].C
			out = append(out, e)
			i, j = i+1, j+1
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	t.scratch = t.ents[:0]
	t.ents = out
	t.nSorted = len(out)
}

// Len returns the number of distinct keys stored.
func (t *Flat) Len() int {
	t.compact()
	return len(t.ents)
}

// Get returns the count stored for k (0 if absent).
func (t *Flat) Get(k Key) uint64 {
	t.compact()
	if i, ok := slices.BinarySearchFunc(t.ents, entOf(k, 0), cmpEnt); ok {
		return t.ents[i].C
	}
	return 0
}

// Ents returns the table's entries sorted by (VU, XY, signature rank),
// deduped. The slice aliases the table's storage: callers must treat it
// as read-only and must not Add to the table while holding it.
func (t *Flat) Ents() []Ent {
	t.compact()
	return t.ents
}

// Iter calls f for every entry in sorted (VU, XY, signature-rank) order;
// iteration stops if f returns false. The table must not be mutated
// during iteration.
func (t *Flat) Iter(f func(Key, uint64) bool) {
	t.compact()
	for _, e := range t.ents {
		if !f(e.Key(), e.C) {
			return
		}
	}
}

// Total returns the sum of all counts. Pending duplicates sum the same as
// folded ones, so no compaction is needed.
func (t *Flat) Total() uint64 {
	var total uint64
	for i := range t.ents {
		total += t.ents[i].C
	}
	return total
}

// Reset empties the table, keeping its capacity.
func (t *Flat) Reset() {
	t.ents = t.ents[:0]
	t.nSorted = 0
}
