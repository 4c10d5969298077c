package table

import (
	"math/rand"
	"sync"
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
// fold and the re-sort of entries compacted earlier).
func TestFlatMatchesHashTable(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		h := make(map[Key]uint64)
		var f Flat // zero value must be ready
		n := rng.Intn(12000)
		space := 1 + rng.Intn(40)
		for i := 0; i < n; i++ {
			k := randKey(rng, space)
			c := uint64(1 + rng.Intn(9))
			h[k] += c
			f.Add(k, c)
			if rng.Intn(1024) == 0 {
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

// Entries appended grouped by (VU, XY) — what a task that walks a sorted
// shard and extends each entry in place produces — take compaction's
// other path: no counting pass over the vertices, a sort by signature
// within each group. Groups of one, small groups and a hub's group of
// hundreds (sorted by counting passes on the rank) must all come out as
// the builtin map has them.
func TestFlatGroupedAppendsMatchHashTable(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 20; trial++ {
		h := make(map[Key]uint64)
		var f Flat
		for v := uint32(0); v < 40; v++ {
			for u := uint32(0); u < uint32(1+rng.Intn(6)); u++ {
				k := Binary(u, v, 0)
				if rng.Intn(3) == 0 {
					k.X = v + u
				}
				size := 1 + rng.Intn(8)
				if rng.Intn(10) == 0 {
					size = 200 + rng.Intn(400)
				}
				for i := 0; i < size; i++ {
					k.S = sig.Sig(rng.Intn(1 << 10))
					c := uint64(1 + rng.Intn(9))
					h[k] += c
					f.Add(k, c)
				}
			}
		}
		ents := f.Ents()
		if len(ents) != len(h) {
			t.Fatalf("trial %d: %d entries, the map has %d", trial, len(ents), len(h))
		}
		for i, e := range ents {
			if i > 0 && cmpEnt(ents[i-1], e) >= 0 {
				t.Fatalf("trial %d: entries %d and %d out of order: %+v, %+v", trial, i-1, i, ents[i-1], e)
			}
			if h[e.Key()] != e.C {
				t.Fatalf("trial %d: %+v has count %d, the map %d", trial, e.Key(), e.C, h[e.Key()])
			}
		}
		f.Release()
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
		e := k.Ent(c)
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
	e := k.Ent(7)
	if e.U() != 3 || e.V() != 9 || e.X() != 17 || e.Y() != 140 || e.S != k.S || e.C != 7 {
		t.Fatalf("accessors disagree: %+v from %+v", e, k)
	}
	if e.Key() != k {
		t.Fatalf("Key round-trip: %+v != %+v", e.Key(), k)
	}
	u := Unary(5, sig.Of(1))
	if ue := u.Ent(1); ue.V() != None || ue.X() != None || ue.Y() != None {
		t.Fatalf("unary slots not None: %+v", ue)
	}
}

func TestFlatRelease(t *testing.T) {
	f := NewFlat(10)
	f.Add(Unary(1, 1), 2)
	f.Add(Unary(2, 1), 3)
	if f.Len() != 2 {
		t.Fatalf("Len = %d", f.Len())
	}
	f.Add(Unary(3, 1), 1) // released with an entry still pending
	f.Release()
	if f.Len() != 0 || f.Total() != 0 || f.Get(Unary(1, 1)) != 0 {
		t.Fatal("Release left entries behind")
	}
	f.Add(Unary(1, 1), 5)
	if f.Get(Unary(1, 1)) != 5 || f.Len() != 1 {
		t.Fatal("table unusable after Release")
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

// The hot path must not allocate at all once the slab pool is warm:
// appends into recycled chunks, compaction through recycled sort buffers,
// reads over the dense slice, Release. This pins the flat layout's core
// promise; a regression here means the solver's inner loops started
// paying the allocator again.
func TestFlatZeroAllocsPerEntry(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its Puts under the race detector")
	}
	const n = 10000
	keys := make([]Key, n)
	rng := rand.New(rand.NewSource(2))
	for i := range keys {
		keys[i] = randKey(rng, 50)
	}
	var f Flat
	build := func() {
		f.Add(keys[0], 1)
		if f.Len() != 1 { // a table read early and written again
			t.Fatal("missing entry")
		}
		for _, k := range keys {
			f.Add(k, 1)
		}
		ents := f.Ents() // forces the final compaction
		var sum uint64
		for i := range ents {
			sum += ents[i].C
		}
		if sum != n+1 || f.Get(keys[n/2]) == 0 {
			t.Fatal("missing entries")
		}
		f.Release()
	}
	build() // warm the pool with every slab class a build passes through
	// The pool is a sync.Pool: a collection landing inside a measurement
	// empties it (2 runs in 300). The best of three is one none fell into.
	allocs := testing.AllocsPerRun(10, build)
	for try := 0; try < 2 && allocs != 0; try++ {
		allocs = testing.AllocsPerRun(10, build)
	}
	if allocs != 0 {
		t.Fatalf("hot path allocated %.0f times for %d entries; want 0", allocs, n)
	}
}

// Tables on different goroutines share nothing but the slab pool: each
// builds, hands its chunks to another table, reads that one and releases
// it, over and over, while the others do the same with the slabs it gave
// back. A slab handed out twice, or still linked to a list it left, shows
// up as a wrong entry (and under -race as a report).
func TestSlabPoolSharedByConcurrentTables(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for round := 0; round < 30; round++ {
				n := 1 + rng.Intn(3000)
				var staged, out Flat
				for i := 0; i < n; i++ {
					// Every key twice, the copies far apart, tagged with the goroutine.
					staged.Add(Binary(uint32(i), uint32(g), sig.Sig(round)), 1)
				}
				for i := n - 1; i >= 0; i-- {
					out.Add(Binary(uint32(i), uint32(g), sig.Sig(round)), 2)
				}
				out.Absorb(&staged)
				if staged.Total() != 0 || out.Total() != uint64(3*n) {
					t.Errorf("goroutine %d round %d: Absorb left %d behind and moved the total to %d, want 0 and %d", g, round, staged.Total(), out.Total(), 3*n)
				}
				ents := out.Ents()
				if len(ents) != n {
					t.Errorf("goroutine %d round %d: %d entries, want %d", g, round, len(ents), n)
				}
				for i, e := range ents {
					if e.U() != uint32(i) || e.V() != uint32(g) || e.S != sig.Sig(round) || e.C != 3 {
						t.Errorf("goroutine %d round %d: entry %d is %+v", g, round, i, e)
						break
					}
				}
				out.Release()
			}
		}(g)
	}
	wg.Wait()
}

// BenchmarkFlatBuild times one table's life on the solver's hot path — a
// burst of Adds, the compaction the first read triggers, Release — over
// keys shaped like one partition's shard of a walk table: a few home
// vertices V, start vertices U from the whole graph, k-colour signatures.
func BenchmarkFlatBuild(b *testing.B) {
	for _, c := range []struct {
		name          string
		n, verts, k   int
		homeLo, homes uint32
	}{
		{"shard4k/n562/k10", 4 << 10, 562, 10, 48, 16},
		{"shard64k/n18k/k5", 64 << 10, 18000, 5, 4090, 36},
		{"table1M/n18k/k8", 1 << 20, 18000, 8, 0, 18000},
	} {
		b.Run(c.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			keys := make([]Key, c.n)
			for i := range keys {
				keys[i] = Binary(uint32(rng.Intn(c.verts)), c.homeLo+uint32(rng.Intn(int(c.homes))), sig.Sig(1+rng.Intn(1<<c.k-1)))
			}
			b.SetBytes(int64(c.n) * 32) // an Ent is 32 bytes
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var f Flat
				for _, k := range keys {
					f.Add(k, 1)
				}
				if f.Len() == 0 {
					b.Fatal("empty table")
				}
				f.Release()
			}
		})
	}
}
