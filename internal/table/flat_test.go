package table

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/sig"
)

func randKey(rng *rand.Rand, space int) Key {
	k := Binary(uint32(rng.Intn(space)), uint32(rng.Intn(space)), sig.Sig(rng.Intn(64)))
	if rng.Intn(4) == 0 {
		k = Unary(uint32(rng.Intn(space)), k.S)
	}
	if rng.Intn(3) == 0 {
		k.X = uint32(rng.Intn(space))
	}
	if rng.Intn(5) == 0 {
		k.Y = uint32(rng.Intn(space))
	}
	return k
}

// Flat must agree with a builtin map — a reference that shares no code
// with it — on every operation, for arbitrary accumulation sequences
// (including heavy duplication, which exercises both the pending-region
// fold and the merge with the sorted prefix).
func TestFlatMatchesHashTable(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		h := make(map[Key]uint64)
		var f Flat // zero value must be ready
		n := rng.Intn(3 * pendingMin)
		space := 1 + rng.Intn(40)
		for i := 0; i < n; i++ {
			k := randKey(rng, space)
			c := uint64(1 + rng.Intn(9))
			h[k] += c
			f.Add(k, c)
			if rng.Intn(64) == 0 {
				// Interleave reads so compaction happens mid-build too.
				if got, want := f.Get(k), h[k]; got != want {
					t.Fatalf("trial %d: mid-build Get(%+v) = %d, want %d", trial, k, got, want)
				}
			}
		}
		var total uint64
		for k, c := range h {
			total += c
			if got := f.Get(k); got != c {
				t.Fatalf("trial %d: Get(%+v) = %d, want %d", trial, k, got, c)
			}
		}
		if f.Len() != len(h) || f.Total() != total {
			t.Fatalf("trial %d: flat Len=%d Total=%d, map Len=%d Total=%d",
				trial, f.Len(), f.Total(), len(h), total)
		}
	}
}

// Iter and Ents must present entries in ascending (VU, XY, signature-rank)
// order with no duplicate keys.
func TestFlatIterSortedAndDeduped(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var f Flat
	for i := 0; i < 2000; i++ {
		f.Add(randKey(rng, 25), 1)
	}
	ents := f.Ents()
	if len(ents) != f.Len() {
		t.Fatalf("Ents len %d != Len %d", len(ents), f.Len())
	}
	for i := 1; i < len(ents); i++ {
		if cmpEnt(ents[i-1], ents[i]) >= 0 {
			t.Fatalf("entries %d and %d out of order: %+v, %+v", i-1, i, ents[i-1], ents[i])
		}
	}
	var prev *Ent
	f.Iter(func(k Key, c uint64) bool {
		e := entOf(k, c)
		if prev != nil && cmpEnt(*prev, e) >= 0 {
			t.Fatalf("Iter out of order at %+v", k)
		}
		prev = &e
		return true
	})
	stopped := 0
	f.Iter(func(Key, uint64) bool { stopped++; return stopped < 5 })
	if stopped != 5 {
		t.Fatalf("early stop visited %d entries", stopped)
	}
}

func TestFlatEntAccessors(t *testing.T) {
	k := Key{U: 3, V: 9, X: 17, Y: 140, S: sig.Of(4)}
	e := entOf(k, 7)
	if e.U() != 3 || e.V() != 9 || e.X() != 17 || e.Y() != 140 || e.S != k.S || e.C != 7 {
		t.Fatalf("accessors disagree: %+v from %+v", e, k)
	}
	if e.Key() != k {
		t.Fatalf("Key round-trip: %+v != %+v", e.Key(), k)
	}
	u := Unary(5, sig.Of(1))
	if ue := entOf(u, 1); ue.V() != None || ue.X() != None || ue.Y() != None {
		t.Fatalf("unary slots not None: %+v", ue)
	}
}

func TestFlatReset(t *testing.T) {
	f := NewFlat(10)
	f.Add(Unary(1, 1), 2)
	f.Add(Unary(2, 1), 3)
	if f.Len() != 2 {
		t.Fatalf("Len = %d", f.Len())
	}
	f.Reset()
	if f.Len() != 0 || f.Total() != 0 || f.Get(Unary(1, 1)) != 0 {
		t.Fatal("Reset left entries behind")
	}
	f.Add(Unary(1, 1), 5)
	if f.Get(Unary(1, 1)) != 5 || f.Len() != 1 {
		t.Fatal("table unusable after Reset")
	}
}

// Property: Total never needs a compaction — duplicates in the pending
// region sum identically.
func TestQuickFlatTotal(t *testing.T) {
	f := func(counts []uint8) bool {
		var fl Flat
		var want uint64
		for i, c := range counts {
			fl.Add(Unary(uint32(i%7), sig.Sig(i%4)), uint64(c))
			want += uint64(c)
		}
		return fl.Total() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// The hot path must not allocate per entry: appends into pre-grown
// capacity, compaction reusing the scratch buffer, reads over the dense
// slice. This pins the flat layout's core promise; a regression here
// means the solver's inner loops started paying the allocator again.
func TestFlatZeroAllocsPerEntry(t *testing.T) {
	const n = 10000
	keys := make([]Key, n)
	rng := rand.New(rand.NewSource(2))
	for i := range keys {
		keys[i] = randKey(rng, 50)
	}
	f := NewFlat(n + 1)
	// Warm the entry and scratch buffers to steady-state capacity, so the
	// measured runs exercise appends, compactions, and reads without a
	// single buffer growth — exactly the solver's per-superstep shape.
	f.Add(keys[0], 1)
	f.compact()
	for _, k := range keys {
		f.Add(k, 1)
	}
	f.compact()
	f.Reset()
	allocs := testing.AllocsPerRun(10, func() {
		f.Add(keys[0], 1)
		f.compact()
		for _, k := range keys {
			f.Add(k, 1)
		}
		ents := f.Ents() // forces the final compaction
		var sum uint64
		for i := range ents {
			sum += ents[i].C
		}
		if sum == 0 || f.Get(keys[n/2]) == 0 {
			t.Fatal("missing entries")
		}
		f.Reset()
	})
	if allocs != 0 {
		t.Fatalf("hot path allocated %.0f times for %d entries; want 0", allocs, n)
	}
}
