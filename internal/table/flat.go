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
// Writes are buffered appends: Add places entries in unsorted pending
// chunks and nothing is sorted until the first read, which compacts the
// table — one radix sort gathers every chunk into a single slab and folds
// duplicate keys. The solver's tables are built by a burst of Adds during
// one superstep and then scanned read-only by the next join, so each table
// is compacted exactly once.
//
// Storage comes from, and goes back to, a process-wide pool of entry
// slabs (slab.go). A table that fills its chunk chains it and takes
// another — nothing is copied to grow — Absorb moves another table's
// chunks over by relinking them, compaction borrows its sort buffers, and
// Release hands everything back when the owner knows the table is dead, so
// the next table starts from recycled memory instead of doubling from
// nothing.
package table

import (
	"math/bits"
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

// Ent packs k and c into an Ent.
func (k Key) Ent(c uint64) Ent {
	return Ent{
		VU: uint64(k.V)<<32 | uint64(k.U),
		XY: uint64(k.X)<<32 | uint64(k.Y),
		S:  k.S,
		C:  c,
	}
}

// BinaryEnt packs the two-boundary entry (u, v, s) ↦ c, homed at v. It is
// Binary(u, v, s).Ent(c) for the join loops: a Key has too many fields for
// the compiler to keep in registers, so building one per entry means
// narrow stores read straight back as wide words.
func BinaryEnt(u, v uint32, s sig.Sig, c uint64) Ent {
	return Ent{VU: uint64(v)<<32 | uint64(u), XY: ^uint64(0), S: s, C: c}
}

// UnaryEnt packs the single-boundary entry (u, s) ↦ c: Unary(u, s).Ent(c).
func UnaryEnt(u uint32, s sig.Sig, c uint64) Ent { return BinaryEnt(u, None, s, c) }

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

// Flat is a projection table stored as a sorted dense slice of Ent (see
// the package comment on flat.go). The zero value is an empty table ready
// for use. Not safe for concurrent mutation; the engine gives each
// partition its own shard.
type Flat struct {
	sorted   *slab // the compacted entries, sorted & deduped; nil if none
	fill     []Ent // fillSlab's entries so far: the pending chunk Add appends to
	fillSlab *slab
	full     *slab // pending chunks that filled up or were absorbed
}

// chunkEnts is the size of a pending chunk: 256 entries, 8 KiB. One size
// makes every idle chunk fit every table that needs one — a superstep has
// a lane per worker and partition open at once — and keeps the room the
// last chunk of each wastes small.
const chunkEnts = 1 << 8

// NewFlat returns a table pre-sized for at least capacity entries.
func NewFlat(capacity int) *Flat {
	t := &Flat{fillSlab: getSlab(capacity)}
	t.fill = t.fillSlab.ents
	return t
}

// Add accumulates c into the entry for k (inserting it if absent).
func (t *Flat) Add(k Key, c uint64) { t.AddEnt(k.Ent(c)) }

// AddEnt accumulates e.C into the entry for e's key (inserting it if
// absent). The entry lands in a pending chunk; duplicate keys are folded
// together when the table is compacted. It is the join loops' one write, a
// bounds check and an append, and must stay inlinable.
func (t *Flat) AddEnt(e Ent) {
	if len(t.fill) == cap(t.fill) {
		t.nextChunk()
	}
	t.fill = append(t.fill, e)
}

// nextChunk chains the fill chunk, which is full, and starts another.
func (t *Flat) nextChunk() {
	t.retire()
	t.fillSlab = getSlab(chunkEnts)
	t.fill = t.fillSlab.ents
}

// retire moves the fill chunk, if any, onto the list of full chunks (an
// empty one goes back to the pool: the list holds no empty chunk).
func (t *Flat) retire() {
	s := t.fillSlab
	if s == nil {
		return
	}
	if s.ents = t.fill; len(s.ents) > 0 {
		s.next, t.full = t.full, s
	} else {
		putSlab(s)
	}
	t.fillSlab, t.fill = nil, nil
}

// Absorb moves every entry of src into t's pending chunks, leaves src empty
// and returns how many entries moved. The chunks themselves change hands: a
// table staged elsewhere is handed over, not copied.
func (t *Flat) Absorb(src *Flat) (moved int) {
	src.retire()
	if src.sorted != nil {
		// Compacted entries are just more pending entries here.
		src.sorted.next, src.full = src.full, src.sorted
	}
	for s := src.full; s != nil; {
		next := s.next
		s.next, t.full = t.full, s
		moved += len(s.ents)
		s = next
	}
	*src = Flat{}
	return moved
}

// Release empties the table and returns its slabs to the pool. The caller
// must hold no slice obtained from Ents: the memory is reused by the next
// table that asks for it.
func (t *Flat) Release() {
	t.retire()
	putSlab(t.sorted)
	putSlabs(t.full)
	*t = Flat{}
}

// digit is the sort key of one counting pass: a few adjacent bits of one of
// the three words cmpEnt compares.
type digit struct {
	word  uint8 // 0: signature rank, 1: XY, 2: VU — ascending significance
	shift uint8
	mask  uint32
}

func (d digit) of(e *Ent) uint32 {
	switch d.word {
	case 0:
		return e.S.Rank() >> d.shift & d.mask
	case 1:
		return uint32(e.XY>>d.shift) & d.mask
	}
	return uint32(e.VU>>d.shift) & d.mask
}

// maxDigits bounds a digit list: 160 key bits in digits of at least 8.
const maxDigits = 20

// varying is what one scan over pending entries learns: the key bits that
// differ between some two of them, and whether they came grouped.
type varying struct {
	vu, xy uint64
	rank   uint32
	// ungrouped is set once an entry's (VU, XY) is lower than that of the
	// entry before it. Entries appended by a task that walked a sorted
	// shard and extended each entry in place never set it: only their
	// signatures are out of order, and only within one (VU, XY) group.
	ungrouped      bool
	lastVU, lastXY uint64
}

// scan folds ents, the entries after those already scanned, into v. ref is
// any one fixed entry: a key bit varies iff it differs from ref's
// somewhere.
func (v *varying) scan(ents []Ent, ref *Ent) {
	for i := range ents {
		e := &ents[i]
		v.vu |= e.VU ^ ref.VU
		v.xy |= e.XY ^ ref.XY
		v.rank |= e.S.Rank() ^ ref.S.Rank()
		if e.VU < v.lastVU || e.VU == v.lastVU && e.XY < v.lastXY {
			v.ungrouped = true
		}
		v.lastVU, v.lastXY = e.VU, e.XY
	}
}

// digits cuts the varying bits into the counting passes that sort n
// entries, least significant digit first. A digit starts at the lowest
// varying bit not yet covered, so runs of constant bits — the top of every
// vertex id, a shard's home vertices beyond its partition, the unused X/Y
// slots, colours beyond k — cost no pass.
func (v varying) digits(buf *[maxDigits]digit, n int) []digit {
	// A pass pays for its buckets (clear, prefix sum) as well as for its
	// entries: 2048 buckets only pay off against thousands of entries.
	width := uint(narrowBits)
	if n >= wideMin {
		width = wideBits
	}
	ds := buf[:0]
	for word, bitset := range [...]uint64{uint64(v.rank), v.xy, v.vu} {
		for bitset != 0 {
			lo := uint(bits.TrailingZeros64(bitset))
			mask := uint64(1)<<width - 1
			ds = append(ds, digit{word: uint8(word), shift: uint8(lo), mask: uint32(mask)})
			bitset &^= mask << lo
		}
	}
	return ds
}

const (
	// radixMin is the smallest slice worth counting passes; below it a
	// comparison sort in place wins.
	radixMin = 48
	// Digits are narrowBits wide for slices shorter than wideMin, wideBits
	// from there on.
	wideMin    = 4096
	narrowBits = 8
	wideBits   = 11
)

// counts is one pass's histogram, then its output cursors.
type counts [1 << wideBits]int32

// tally counts the entries of ents by digit d.
func (c *counts) tally(ents []Ent, d digit) {
	for i := range ents {
		c[d.of(&ents[i])]++
	}
}

// starts turns the histogram of digit d into each bucket's first output
// position.
func (c *counts) starts(d digit) {
	var pos int32
	for b, n := range c[:d.mask+1] {
		c[b] = pos
		pos += n
	}
}

// scatter moves the entries of ents to their buckets in dst, in order;
// afterwards c[b] is the end of bucket b.
func (c *counts) scatter(dst, ents []Ent, d digit) {
	for i := range ents {
		b := d.of(&ents[i])
		dst[c[b]] = ents[i]
		c[b]++
	}
}

// sortLSD sorts src by the digits ds, least significant first, with one
// stable counting pass per digit, ping-ponging between src and tmp (a
// slice of the same length); it reports whether the last pass landed in
// tmp.
func sortLSD(src, tmp []Ent, ds []digit) bool {
	var c counts
	for _, d := range ds {
		clear(c[:d.mask+1])
		c.tally(src, d)
		c.starts(d)
		c.scatter(tmp, src, d)
		src, tmp = tmp, src
	}
	return len(ds)%2 == 1
}

// sortChunks returns one slab holding the entries of the chunk list — in
// the order they were appended — sorted by (VU, XY, signature rank) with
// equal keys folded into one entry, and releases the chunks. The sort is a
// radix sort over the key bits that vary at all — few, in practice: vertex
// ids span the graph size, a shard's home vertices span its partition, X/Y
// are usually None, signatures fit the colour count — so a typical shard
// sorts in 3–5 counting passes of pure sequential access, with no
// comparator calls. The first pass reads the chunks where they lie and
// scatters them into one slab, so gathering costs no pass of its own.
// Entries that arrive grouped by (VU, XY) already are only copied
// together and sorted by signature within each group.
func sortChunks(chunks *slab) *slab {
	n := 0
	var v varying
	for c := chunks; c != nil; c = c.next {
		n += len(c.ents)
		v.scan(c.ents, &chunks.ents[0])
	}
	if n < radixMin || !v.ungrouped {
		// Too few entries for counting passes over the whole key, or none
		// needed: copy the chunks together and sort what is left to sort.
		out := chunks
		if chunks.next != nil {
			out = getSlab(n)
			for c := chunks; c != nil; c = c.next {
				out.ents = append(out.ents, c.ents...)
			}
			putSlabs(chunks)
		}
		if v.ungrouped {
			slices.SortFunc(out.ents, cmpEnt)
		} else {
			sortGroups(out.ents, v.rank)
		}
		return fold(out)
	}

	// The first pass gathers: it counts and scatters straight out of the
	// chunks. The others ping-pong between two slabs. (Ungrouped entries
	// differ in some key bit, so there is a first digit.)
	var dbuf [maxDigits]digit
	ds := v.digits(&dbuf, n)
	var cnt counts
	for c := chunks; c != nil; c = c.next {
		cnt.tally(c.ents, ds[0])
	}
	cnt.starts(ds[0])
	a := getSlab(n)
	a.ents = a.ents[:n]
	for c := chunks; c != nil; c = c.next {
		cnt.scatter(a.ents, c.ents, ds[0])
	}
	putSlabs(chunks)
	if rest := ds[1:]; len(rest) > 0 {
		b := getSlab(n)
		b.ents = b.ents[:n]
		if sortLSD(a.ents, b.ents, rest) {
			a, b = b, a
		}
		putSlab(b)
	}
	return fold(a)
}

// sortGroups sorts ents, which are grouped by (VU, XY) in ascending order,
// by signature rank within each group; rank holds the rank bits that vary.
// A group is at most one vertex pair's signatures times the entries that
// produced them: small ones are sorted by comparison, a hub's by counting
// passes over the rank alone.
func sortGroups(ents []Ent, rank uint32) {
	var tmp *slab // scratch for the counting passes, sized by the first group that needs it
	for lo := 0; lo < len(ents); {
		hi := lo + 1
		for hi < len(ents) && ents[hi].VU == ents[lo].VU && ents[hi].XY == ents[lo].XY {
			hi++
		}
		switch group := ents[lo:hi]; {
		case len(group) < radixMin:
			slices.SortFunc(group, cmpEnt)
		default:
			if tmp == nil {
				tmp = getSlab(len(ents) - lo)
			}
			var dbuf [maxDigits]digit
			ds := varying{rank: rank}.digits(&dbuf, len(group))
			if scratch := tmp.ents[:len(group)]; sortLSD(group, scratch, ds) {
				copy(group, scratch)
			}
		}
		lo = hi
	}
	putSlab(tmp)
}

// fold sums runs of equal keys in a sorted slab into one entry each. A
// slab left less than half full by that moves its entries to one that
// fits, so a long-lived table does not sit on its build's high-water mark.
func fold(s *slab) *slab {
	ents := s.ents
	w := 0
	for r := 1; r < len(ents); r++ {
		if ents[r].VU == ents[w].VU && ents[r].XY == ents[w].XY && ents[r].S == ents[w].S {
			ents[w].C += ents[r].C
		} else {
			w++
			ents[w] = ents[r]
		}
	}
	s.ents = ents[:w+1]
	if 2*len(s.ents) <= cap(s.ents) && cap(s.ents) > chunkEnts {
		fit := getSlab(len(s.ents))
		fit.ents = append(fit.ents, s.ents...)
		putSlab(s)
		return fit
	}
	return s
}

// compact restores the invariant that every entry is in sorted, once: it
// sorts and folds the pending chunks. Only a table that was read and then
// written again already has compacted entries; they are sorted again with
// the rest.
func (t *Flat) compact() {
	if t.full == nil && len(t.fill) == 0 {
		return
	}
	t.retire()
	if t.sorted != nil {
		t.sorted.next, t.full, t.sorted = t.full, t.sorted, nil
	}
	// The list is newest first; sortChunks wants the entries as appended.
	var chunks *slab
	for c := t.full; c != nil; {
		next := c.next
		c.next, chunks = chunks, c
		c = next
	}
	t.sorted, t.full = sortChunks(chunks), nil
}

// Len returns the number of distinct keys stored.
func (t *Flat) Len() int { return len(t.Ents()) }

// Get returns the count stored for k (0 if absent).
func (t *Flat) Get(k Key) uint64 {
	ents := t.Ents()
	if i, ok := slices.BinarySearchFunc(ents, k.Ent(0), cmpEnt); ok {
		return ents[i].C
	}
	return 0
}

// Ents returns the table's entries sorted by (VU, XY, signature rank),
// deduped. The slice aliases the table's storage: callers must treat it
// as read-only and must not Add to, Absorb into or Release the table while
// holding it.
func (t *Flat) Ents() []Ent {
	t.compact()
	if t.sorted == nil {
		return nil
	}
	return t.sorted.ents
}

// Iter calls f for every entry in sorted (VU, XY, signature-rank) order;
// iteration stops if f returns false. The table must not be mutated
// during iteration.
func (t *Flat) Iter(f func(Key, uint64) bool) {
	for _, e := range t.Ents() {
		if !f(e.Key(), e.C) {
			return
		}
	}
}

// Chunks calls f with the table's entries as they lie — compacted or
// pending, duplicates unfolded, one non-empty chunk at a time in no
// particular order — without sorting anything. The slices alias the
// table's storage.
func (t *Flat) Chunks(f func(ents []Ent)) {
	if t.sorted != nil {
		f(t.sorted.ents)
	}
	if len(t.fill) > 0 {
		f(t.fill)
	}
	for c := t.full; c != nil; c = c.next {
		f(c.ents)
	}
}

// Total returns the sum of all counts. Pending duplicates sum the same as
// folded ones, so no compaction is needed.
func (t *Flat) Total() (total uint64) {
	t.Chunks(func(ents []Ent) {
		for i := range ents {
			total += ents[i].C
		}
	})
	return total
}
