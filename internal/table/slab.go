package table

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"unsafe"
)

// The slab pool recycles the backing arrays of tables across supersteps,
// trials and requests. A slab holds 2^c entries for some class c, and
// there is one sync.Pool per class: a request is served by a slab of the
// smallest class that fits it. What the pool retains is what tables held
// at once, class by class, and have since released — the solver itself
// allocates next to nothing between collections, so nothing piles up
// behind it — until the garbage collector has seen it idle for two
// cycles: an idle process gives everything back.

// slab is one pooled backing array, together with the link that lets a
// table chain its pending chunks without allocating a list.
type slab struct {
	ents []Ent
	next *slab
}

var slabPools [bits.UintSize]sync.Pool

// slabsOut counts the slabs handed out and not yet given back.
var slabsOut atomic.Int64

// SlabsOut returns how many slabs tables hold right now, process-wide. A
// solver that has released every table it built — finished or canceled —
// leaves it where it found it.
func SlabsOut() int64 { return slabsOut.Load() }

// getSlab returns an empty slab with capacity for at least n entries, and
// for no fewer than a chunk: a table's entries grow. Its spare capacity
// holds stale entries of whoever used it last.
func getSlab(n int) *slab { return slabOf(max(n, chunkEnts)) }

// slabOf is getSlab with no floor: a slab of the smallest class that holds
// n ≥ 1 entries.
func slabOf(n int) *slab {
	slabsOut.Add(1)
	c := bits.Len(uint(n - 1)) // smallest c with 2^c ≥ n
	if s, _ := slabPools[c].Get().(*slab); s != nil {
		return s
	}
	return &slab{ents: make([]Ent, 0, 1<<c)}
}

// putSlab returns a slab (nil is fine) to the pool. The caller must not
// touch it again.
func putSlab(s *slab) {
	if s == nil {
		return
	}
	slabsOut.Add(-1)
	s.ents, s.next = s.ents[:0], nil
	slabPools[bits.Len(uint(cap(s.ents)))-1].Put(s)
}

// entWords is the size of an Ent in 8-byte words.
const entWords = int(unsafe.Sizeof(Ent{}) / 8)

// getWords returns a slab whose array is viewed as n uint64 words — a box
// of counts, a compaction's records — holding whatever its last user left
// there. An Ent is four aligned words and no pointer, so the same pool and
// the same SlabsOut count cover entries and words alike; the slab goes
// back with putSlab. It is of the smallest class that fits, however far
// below a chunk: words do not grow, and a box of 36 rows of 7 takes 2 KiB.
func getWords(n int) (*slab, []uint64) {
	s := slabOf(max(n+entWords-1, entWords) / entWords)
	return s, unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(s.ents))), n)
}

// Scratch is a run of pooled words lent to a caller outside the package —
// an index over a shard, say — under the same rules as every slab: it holds
// whatever its last user left there, it counts in SlabsOut until it is
// returned, and it must be returned, by the task that borrowed it, before
// the run that task belongs to ends. Scratch made with make instead is
// garbage by the megabyte per trial, and the collections it brings on empty
// the slab pool itself.
type Scratch struct {
	Words []uint64
	slab  *slab
}

// BorrowWords returns n pooled words.
func BorrowWords(n int) Scratch {
	s, words := getWords(n)
	return Scratch{Words: words, slab: s}
}

// Return gives the words back to the pool and leaves s the zero Scratch,
// which holds nothing and returns nothing. A deferred s.Return() gives back
// what s holds when it runs, so a task may grow s after the defer.
func (s *Scratch) Return() {
	putSlab(s.slab)
	*s = Scratch{}
}

// putSlabs returns a whole chunk list to the pool.
func putSlabs(s *slab) {
	for s != nil {
		next := s.next
		putSlab(s)
		s = next
	}
}
