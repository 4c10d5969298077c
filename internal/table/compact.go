package table

import (
	"math/bits"
	"slices"

	"repro/internal/sig"
)

// Compaction of pending chunks that are sparse: a dense vertex × signature
// shard is a box (box.go), opened as it is written or at compaction, and
// never gets here. A key is five fields — V, U, X, Y and the signature
// rank, in cmpEnt's order of significance — and in any one shard most of
// their 160 bits never change: a shard's home vertices span its partition,
// the others the graph, unused slots are None, signatures fit the colour
// count. One scan learns each field's minimum and maximum, and every key
// then packs, in cmpEnt order, into one word of w = Σ bits.Len(max − min)
// bits. What happens next depends on w alone:
//
//   - w ≤ 64: the n entries become n (key, count) records of two words,
//     radix-sorted on the key's w bits — 16 bytes moved per entry and pass
//     where the entries themselves are 32, and no pass over bits that never
//     change — and each folded entry is rebuilt from its key and the sum of
//     its run's counts;
//   - w > 64 (vertices recorded in both X and Y on a graph of millions, a
//     slot that is None in some entries only), or too few entries to repay
//     any of this: a comparison sort.
//
// Minimum and maximum, not the bits that vary: ids 4095…4131 differ in 13
// bits and span 6.

// packing is what the scan learns: the fields' minima, as an entry holds
// them, and per field — in cmpEnt's order V, U, X, Y, rank — where the
// range above its minimum sits in the packed key (the rank in the lowest
// bits) and how wide it is.
type packing struct {
	loVU, loXY     uint64
	loR            uint32
	sV, sU, sX, sY uint8
	mV, mU, mX, mY uint64 // 1<<width − 1
	mR             uint64
	w              uint // total key bits
}

func scanChunks(chunks *slab) (p packing) {
	loV, loU, loX, loY, loR := None, None, None, None, None
	var hiV, hiU, hiX, hiY, hiR uint32
	for c := chunks; c != nil; c = c.next {
		for i := range c.ents {
			e := &c.ents[i]
			v, u, x, y, r := e.V(), e.U(), e.X(), e.Y(), e.S.Rank()
			loV, hiV = min(loV, v), max(hiV, v)
			loU, hiU = min(loU, u), max(hiU, u)
			loX, hiX = min(loX, x), max(hiX, x)
			loY, hiY = min(loY, y), max(hiY, y)
			loR, hiR = min(loR, r), max(hiR, r)
		}
	}
	p.loVU, p.loXY, p.loR = uint64(loV)<<32|uint64(loU), uint64(loX)<<32|uint64(loY), loR
	// place gives the next more significant field its shift and mask.
	place := func(span uint32) (shift uint8, mask uint64) {
		shift = uint8(min(p.w, 64)) // a key wider than a word is never packed
		p.w += uint(bits.Len32(span))
		return shift, 1<<bits.Len32(span) - 1
	}
	_, p.mR = place(hiR - loR)
	p.sY, p.mY = place(hiY - loY)
	p.sX, p.mX = place(hiX - loX)
	p.sU, p.mU = place(hiU - loU)
	p.sV, p.mV = place(hiV - loV)
	return p
}

// key packs e's key (p.w ≤ 64). The minima come off a word at a time: no
// field is below its minimum, so nothing borrows across the halves.
func (p *packing) key(e *Ent) uint64 {
	vu, xy := e.VU-p.loVU, e.XY-p.loXY
	return vu>>32<<p.sV | vu&(1<<32-1)<<p.sU | xy>>32<<p.sX | xy&(1<<32-1)<<p.sY | uint64(e.S.Rank()-p.loR)
}

// ent unpacks k into the entry it was packed from, with count c.
func (p *packing) ent(k, c uint64) Ent {
	return Ent{
		VU: p.loVU + (k>>p.sV&p.mV<<32 | k>>p.sU&p.mU),
		XY: p.loXY + (k>>p.sX&p.mX<<32 | k>>p.sY&p.mY),
		S:  sig.Sig(uint64(p.loR) + k&p.mR),
		C:  c,
	}
}

const (
	// radixMin is the fewest entries worth a scan and counting passes;
	// below it a comparison sort in place wins.
	radixMin = 48
	// Sort digits are narrowBits wide for fewer than wideMin records,
	// wideBits from there on: a pass pays for its buckets (clear, prefix
	// sum) as well as for its records.
	wideMin    = 4096
	narrowBits = 8
	wideBits   = 11
)

func polled(stop func() bool) bool { return stop != nil && stop() }

// sortChunks returns one slab holding the entries of the chunk list sorted
// by (VU, XY, signature rank), with equal keys folded into one entry and
// keys whose counts sum to 0 dropped, and releases the chunks — as soon as
// it has read them for the last time, before it takes the slab it returns.
// stop, if not nil, is polled between passes; once it returns true
// sortChunks gives back what it borrowed, leaves the chunks as they were
// and returns nil.
func sortChunks(chunks *slab, stop func() bool) *slab {
	n := 0
	for c := chunks; c != nil; c = c.next {
		n += len(c.ents)
	}
	var p packing
	if n >= radixMin {
		if p = scanChunks(chunks); polled(stop) {
			return nil
		}
	}
	if n >= radixMin && p.w <= 64 {
		return p.sortRecords(chunks, n, stop)
	}
	if chunks.next != nil {
		all := getSlab(n)
		for c := chunks; c != nil; c = c.next {
			all.ents = append(all.ents, c.ents...)
		}
		putSlabs(chunks)
		chunks = all
	}
	slices.SortFunc(chunks.ents, cmpEnt)
	return fold(chunks)
}

// sortRecords turns every entry into a (packed key, count) pair of words,
// radix-sorts the pairs by key and rebuilds the folded entries from the
// sorted keys.
func (p *packing) sortRecords(chunks *slab, n int, stop func() bool) *slab {
	buf, words := getWords(4 * n)
	defer putSlab(buf)
	a, b := words[:2*n], words[2*n:]
	i := 0
	for c := chunks; c != nil; c = c.next {
		for j := range c.ents {
			a[i], a[i+1] = p.key(&c.ents[j]), c.ents[j].C
			i += 2
		}
	}

	// LSD radix sort on the key, in digits of equal width: stable counting
	// passes ping-ponging between a and b.
	width := uint(narrowBits)
	if n >= wideMin {
		width = wideBits
	}
	passes := (p.w + width - 1) / width
	var hist [1 << wideBits]int32
	for pass := uint(0); pass < passes; pass++ {
		if polled(stop) {
			return nil
		}
		shift := pass * p.w / passes
		mask := uint64(1)<<((pass+1)*p.w/passes-shift) - 1
		clear(hist[:mask+1])
		for i := 0; i < len(a); i += 2 {
			hist[a[i]>>shift&mask]++
		}
		pos := int32(0)
		for d, c := range hist[:mask+1] {
			hist[d] = pos
			pos += 2 * c
		}
		for i := 0; i < len(a); i += 2 {
			d := a[i] >> shift & mask
			j := hist[d]
			hist[d] += 2
			b[j], b[j+1] = a[i], a[i+1]
		}
		a, b = b, a
	}
	if polled(stop) {
		return nil
	}
	putSlabs(chunks)

	// A run of equal keys is one entry, unpacked from the key, with the
	// run's counts summed.
	distinct := 1
	for i := 2; i < len(a); i += 2 {
		if a[i] != a[i-2] {
			distinct++
		}
	}
	out := getSlab(distinct)
	cur, sum := a[0], uint64(0)
	for i := 0; i < len(a); i += 2 {
		if a[i] != cur {
			if sum != 0 {
				out.ents = append(out.ents, p.ent(cur, sum))
			}
			cur, sum = a[i], 0
		}
		sum += a[i+1]
	}
	if sum != 0 {
		out.ents = append(out.ents, p.ent(cur, sum))
	}
	return out
}

// fold sums runs of equal keys in a sorted, non-empty slab into one entry
// each and drops the keys whose sum is 0. A slab left less than half full
// by that moves its entries to one that fits, so a long-lived table does
// not sit on its build's high-water mark.
func fold(s *slab) *slab {
	ents := s.ents
	w := 0
	for r := 1; r < len(ents); r++ {
		if ents[r].VU == ents[w].VU && ents[r].XY == ents[w].XY && ents[r].S == ents[w].S {
			ents[w].C += ents[r].C
			continue
		}
		if ents[w].C != 0 {
			w++
		}
		ents[w] = ents[r]
	}
	if ents[w].C != 0 {
		w++
	}
	s.ents = ents[:w]
	if 2*len(s.ents) <= cap(s.ents) && cap(s.ents) > chunkEnts {
		fit := getSlab(len(s.ents))
		fit.ents = append(fit.ents, s.ents...)
		putSlab(s)
		return fit
	}
	return s
}
