package table

import (
	"fmt"
	"math/rand"
	"slices"
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
// shard and extends each entry in place produces: only their signatures
// arrive out of order. Groups of one, small groups and a hub's group of
// hundreds must all come out as the builtin map has them.
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

// Ents must present entries in ascending (VU, XY, signature-rank) order
// with no duplicate keys.
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
// vertices V, start vertices U from the whole graph, k-colour signatures;
// with a vertex recorded in X as well (a DB walk past a boundary node); and
// like a start-free walk's shard, (vertex, size-4 signature) only and each
// key five times over, through a box — entry by entry, and the same keys
// in runs of one vertex, a row taken per run (Row), as the edge loops write
// a matrix.
func BenchmarkFlatBuild(b *testing.B) {
	for _, c := range []struct {
		name                string
		n, verts, k         int
		homeLo, homes       uint32
		recorded, box, rows bool
	}{
		{name: "shard4k/n562/k10", n: 4 << 10, verts: 562, k: 10, homeLo: 48, homes: 16},
		{name: "shard64k/n18k/k5", n: 64 << 10, verts: 18000, k: 5, homeLo: 4090, homes: 36},
		{name: "recorded64k/n18k/k5", n: 64 << 10, verts: 18000, k: 5, homeLo: 4090, homes: 36, recorded: true},
		{name: "dense64k/n50/k5", n: 64 << 10, verts: 50, k: 5, homeLo: 4090, homes: 36}, // 17 key bits, as cycle5-90k's largest shards: records of two digits
		{name: "table1M/n18k/k8", n: 1 << 20, verts: 18000, k: 8, homes: 18000},
		{name: "box36/n18k/k8", n: 5 * 36 * 35 / 2, k: 8, homeLo: 4090, homes: 36, box: true},
		{name: "box36rows/n18k/k8", n: 5 * 36 * 35 / 2, k: 8, homeLo: 4090, homes: 36, box: true, rows: true},
	} {
		b.Run(c.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			keys := make([]Key, c.n)
			for i := range keys {
				home := c.homeLo + uint32(rng.Intn(int(c.homes)))
				if c.box { // half of the box's cells, five times each
					keys[i] = Binary(None, home, ownSig(rng, c.k, 4, home))
					continue
				}
				keys[i] = Binary(uint32(rng.Intn(c.verts)), home, sig.Sig(1+rng.Intn(1<<c.k-1)))
				if c.recorded {
					keys[i].X = uint32(rng.Intn(c.verts))
				}
			}
			if c.rows {
				slices.SortStableFunc(keys, func(a, b Key) int { return int(a.V) - int(b.V) })
			}
			var box Box
			b.SetBytes(int64(c.n) * 32) // an Ent is 32 bytes
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var f Flat
				if c.box {
					f.SetBox(&box, Shape{Lo: c.homeLo, N: c.homes, K: uint8(c.k), Shift: 32, Colors: palettes[c.k][c.homeLo : c.homeLo+c.homes]})
				}
				if c.rows {
					addRuns(&f, keys)
				} else {
					for _, k := range keys {
						f.Add(k, 1)
					}
				}
				if f.Len() == 0 {
					b.Fatal("empty table")
				}
				f.Release()
			}
		})
	}
}

// addRuns adds 1 under each of keys, which are sorted by V, a run of one V
// at a time: into the V's row where f has a box open, else by Add.
func addRuns(f *Flat, keys []Key) {
	for i, j := 0, 0; i < len(keys); i = j {
		for j = i + 1; j < len(keys) && keys[j].V == keys[i].V; j++ {
		}
		row, rk := f.Row(keys[i].V)
		if row == nil {
			for _, k := range keys[i:j] {
				f.Add(k, 1)
			}
			continue
		}
		c := f.box.Colors[keys[i].V-f.box.Lo]
		for _, k := range keys[i:j] {
			row[rk.Pos(k.S, c)]++
		}
	}
}

// palettes colours the vertices [0, 2^13) for each k: one array per k, so
// that boxes over the same rows share their colouring (MoveBox), and mixed,
// so that neighbouring rows rank their cells differently.
var palettes = func() (p [sig.MaxRankedColors + 1][]uint8) {
	for k := 1; k < len(p); k++ {
		p[k] = make([]uint8, 1<<13)
		for v := range p[k] {
			p[k][v] = uint8(uint32(v) * 2654435761 >> 24 % uint32(k))
		}
	}
	return p
}()

// ownSig returns a random size-h signature over k colours that holds v's
// colour under palettes[k]: one a box row of v has a cell for.
func ownSig(rng *rand.Rand, k, h int, v uint32) sig.Sig {
	row := sig.OwnOf(k, h).Sigs[palettes[k][v]]
	return row[rng.Intn(len(row))]
}

// boxed returns an empty table declared a vertex×signature shard over the
// vertices [lo, lo+n), coloured by palettes[k], and k colours, the vertex
// in V (inV) or in U.
func boxed(lo, n uint32, k int, inV bool) *Flat {
	s := Shape{Lo: lo, N: n, K: uint8(k), Colors: palettes[k][lo : lo+n]}
	if inV {
		s.Shift = 32
	}
	t := new(Flat)
	t.SetBox(new(Box), s)
	return t
}

// sameTable fails the test unless a and b hold the same entries and agree
// on every read.
func sameTable(t *testing.T, what string, a, b *Flat) {
	t.Helper()
	if !slices.Equal(a.Ents(), b.Ents()) || a.Len() != b.Len() || a.Total() != b.Total() {
		t.Fatalf("%s: boxed table has %d entries totalling %d, plain one %d totalling %d (or they differ)",
			what, a.Len(), a.Total(), b.Len(), b.Total())
	}
	for _, e := range b.Ents() {
		if a.Get(e.Key()) != e.C {
			t.Fatalf("%s: boxed Get(%+v) = %d, plain %d", what, e.Key(), a.Get(e.Key()), e.C)
		}
	}
}

// sameRows fails the test unless Rows hands out f's entries, vertex by
// vertex, as want's Ents has them.
func sameRows(t *testing.T, what string, f, want *Flat) {
	t.Helper()
	rows := f.Rows(nil)
	defer rows.Close()
	var got []Ent
	for run := rows.Next(); len(run) > 0; run = rows.Next() {
		got = append(got, run...)
	}
	if !slices.Equal(got, want.Ents()) {
		t.Fatalf("%s: the rows hold %d entries, the plain table %d (or they differ)", what, len(got), want.Len())
	}
}

// flip moves e's vertex to the other half of VU: the projection MoveBox is.
func flip(e Ent) Ent {
	e.VU = e.VU<<32 | e.VU>>32
	return e
}

// A shard declared a vertex×signature matrix accumulates in a box once it
// is due one; one that is not appends and sorts. Nothing a reader can see
// may differ: random (vertex, signature, count) streams over vertices of
// mixed colours at k ∈ {3, 8, 10, 16} — vertex in V or in U, heavy
// duplication, boxes that open at once, after some chunks or not at all —
// through both, across Absorb box←box and box←chunks, a box read and then
// written again, Rows, MoveBox, Release, and a box nothing was added to.
func TestBoxMatchesChunks(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 60; trial++ {
		k, inV := []int{3, 8, 10, 16}[trial%4], rng.Intn(2) == 0
		h := 1 + rng.Intn(k-1)
		lo, n := uint32(rng.Intn(1000)), uint32(1+rng.Intn(40))
		ent := func() Ent {
			v := lo + uint32(rng.Intn(int(n)))
			s, c := ownSig(rng, k, h, v), uint64(1+rng.Intn(9))
			if inV {
				return BinaryEnt(None, v, s, c)
			}
			return UnaryEnt(v, s, c)
		}
		box, plain := boxed(lo, n, k, inV), new(Flat)
		sameTable(t, "nothing added", box, plain)
		fill := func(dst ...*Flat) (adds int) {
			adds = rng.Intn(3000)
			for i := 0; i < adds; i++ {
				e := ent()
				for _, t := range dst {
					t.AddEnt(e)
				}
			}
			return adds
		}
		fill(box, plain)
		if box.box.words != nil && (box.fill != nil || box.full != nil) {
			t.Fatal("a shard with its box open kept chunks")
		}
		sameTable(t, "adds", box, plain)
		fill(box, plain) // read, then written again: the sorted entries fold back in
		sameTable(t, "adds after a read", box, plain)

		stageBox, stageChunks := boxed(lo, n, k, inV), new(Flat)
		adds := fill(stageBox, stageChunks)
		if moved := box.Absorb(stageBox); moved != adds || stageBox.Len() != 0 {
			t.Fatalf("Absorb box←box moved %d of %d added entries and left %d behind", moved, adds, stageBox.Len())
		}
		plain.Absorb(stageChunks)
		sameTable(t, "Absorb box←box", box, plain)
		fill(stageChunks, plain)
		stageChunks.Len() // a stage with compacted entries and pending ones
		fill(stageChunks, plain)
		box.Absorb(stageChunks)
		sameTable(t, "Absorb box←chunks", box, plain)
		fill(box, plain)
		sameRows(t, "Rows", box, plain)

		moved, projected := boxed(lo, n, k, !inV), new(Flat)
		for _, e := range plain.Ents() {
			projected.AddEnt(flip(e))
		}
		if !moved.MoveBox(box) { // a shard whose box never opened is projected entry by entry
			for _, e := range box.Ents() {
				moved.AddEnt(flip(e))
			}
		}
		sameTable(t, "MoveBox", moved, projected)
		moved.Release()
		projected.Release()
		box.Release()

		held := SlabsOut() // the box is empty: it holds none of them
		fill(box)
		box.Release()
		if box.Len() != 0 || box.Total() != 0 || SlabsOut() != held {
			t.Fatalf("Release left a box behind: %d entries, %d slabs", box.Len(), SlabsOut()-held)
		}
		fill(box, stageBox)
		sameTable(t, "after Release", box, stageBox)
		box.Release()
		stageBox.Release()
		plain.Release()
	}
}

// A signature of another size than the box was opened for, one without its
// vertex's colour — of the box's size or one smaller, which squeezed would
// alias the cell of itself with the colour added — or a vertex of another
// partition, must panic — never land in some other key's cell.
func TestBoxRejectsWhatItCannotIndex(t *testing.T) {
	const k = 6
	c := sig.Of(palettes[k][12])
	others := sig.Full(k).Without(c).Colors(nil) // the colours vertex 12 has not
	pair := c.Add(others[0])                     // a size-2 signature a row of vertex 12 holds
	lacking := sig.Of(others[0]).Add(others[1])
	for name, e := range map[string]Ent{
		"a signature of another size":          UnaryEnt(12, pair.Add(others[1]), 1),
		"a signature beyond k":                 UnaryEnt(12, c.Add(6), 1),
		"a signature without the colour":       UnaryEnt(12, lacking, 1),
		"a smaller one without the colour":     UnaryEnt(12, sig.Of(others[0]), 1),
		"a vertex below the range":             UnaryEnt(9, sig.Of(palettes[k][9]).Add((palettes[k][9]+1)%k), 1),
		"a vertex above the range":             UnaryEnt(20, sig.Of(palettes[k][20]).Add((palettes[k][20]+1)%k), 1),
		"another vertex's colour, not its own": UnaryEnt(13, pair, 1),
	} {
		func() {
			box := boxed(10, 10, k, false)
			defer box.Release()
			box.AddEnt(UnaryEnt(12, pair, 1))
			defer func() {
				if recover() == nil {
					t.Errorf("%s was added to a box of size-2 signatures over [10,20)", name)
				}
			}()
			box.AddEnt(e)
		}()
	}
	// What a cell cannot hold is caught on the entry a box opens on.
	for name, e := range map[string]Ent{
		"a start vertex":                 BinaryEnt(12, 3, pair, 1),
		"a recorded vertex":              Key{U: 12, V: None, X: 4, Y: None, S: pair}.Ent(1),
		"a signature without the colour": UnaryEnt(12, lacking, 1),
		"a vertex outside the range":     UnaryEnt(20, pair, 1),
	} {
		func() {
			box := boxed(10, 10, 6, false)
			defer box.Release()
			defer func() {
				if recover() == nil {
					t.Errorf("%s opened a box of (U, signature) cells", name)
				}
			}()
			box.AddEnt(e)
		}()
	}
}

// A box opens once it is no more than twice the bytes of the chunks its
// shard has filled and the one it would take next: at the first add if it
// is no larger than two chunks, at the add that would chain a fifth chunk
// for 80 rows of 126 — and then holds everything added so far.
func TestBoxOpensWhenDue(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, c := range []struct {
		rows uint32
		at   int // the add that opens the box
	}{{16, 1}, {17, 257}, {80, 1025}} {
		box := boxed(0, c.rows, 10, true)
		for i := 1; i <= c.at+10; i++ {
			v := uint32(i) % c.rows
			box.AddEnt(BinaryEnt(None, v, ownSig(rng, 10, 5, v), 1))
			if open := box.box.words != nil; open != (i >= c.at) {
				t.Fatalf("%d rows of 126: box open = %v after %d adds, want it opened by add %d", c.rows, open, i, c.at)
			}
		}
		if box.fill != nil || box.full != nil || box.box.adds != c.at+10 || box.Total() != uint64(c.at+10) {
			t.Fatalf("%d rows of 126: the open box holds %d of %d adds", c.rows, box.box.adds, c.at+10)
		}
		box.Release()
	}
}

// A join that writes many entries to one vertex of a matrix takes the
// vertex's row once and adds into it (Row) where the shard has its box
// open, and appends the entries where it has not. That must be the same
// table as AddEnt makes of the same entries, for every outcome of the due
// rule — a box at the first add, one opened at a later chunk fill with the
// filled chunks moved in, none while a shard over boxCap is written, whose
// declaration holds all the same — read directly or absorbed into a
// declared destination. And a row is handed out only while a box is open.
func TestRowWritesAreEntryAdds(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for _, c := range []struct {
		name string
		rows uint32
	}{{"box at the first add", 8}, {"box at a chunk fill", 40}, {"over the cap", 261}} { // 126 to a row
		// Runs of entries that share their vertex, as a run-major join
		// writes them.
		type run struct {
			v    uint32
			ents []Ent
		}
		var runs []run
		total := 0
		for total < 6000 {
			r := run{v: uint32(rng.Intn(int(c.rows)))}
			for i := rng.Intn(12); i >= 0; i-- {
				r.ents = append(r.ents, BinaryEnt(None, r.v, ownSig(rng, 10, 5, r.v), uint64(1+rng.Intn(9))))
			}
			runs = append(runs, r)
			total += len(r.ents)
		}
		// write makes the table twice over, by AddEnt and by rows, and
		// returns how many rows it was handed.
		write := func() (byEnt, byRow *Flat, rowsTaken int) {
			byEnt, byRow = boxed(0, c.rows, 10, true), boxed(0, c.rows, 10, true)
			for _, r := range runs {
				for _, e := range r.ents {
					byEnt.AddEnt(e)
				}
				open := byRow.box != nil && byRow.box.words != nil
				row, rk := byRow.Row(r.v)
				if (row != nil) != open || (rk != nil) != open {
					t.Fatalf("%s: Row handed out a row %v, a ranking %v, with the box open %v", c.name, row != nil, rk != nil, open)
				}
				if row == nil {
					for _, e := range r.ents {
						byRow.AddEnt(e)
					}
					continue
				}
				for _, e := range r.ents {
					row[rk.Pos(e.S, palettes[10][r.v])] += e.C
				}
				rowsTaken++
			}
			return byEnt, byRow, rowsTaken
		}
		held := SlabsOut()
		byEnt, byRow, rowsTaken := write()
		if byRow.box == nil || (rowsTaken > 0) != (c.rows != 261) {
			t.Fatalf("%s: %d rows taken, the declaration kept %v", c.name, rowsTaken, byRow.box != nil)
		}
		if c.rows == 40 && rowsTaken == len(runs) {
			t.Fatalf("%s: the box was open at the first add", c.name)
		}
		sameTable(t, c.name, byRow, byEnt)
		byEnt.Release()
		byRow.Release()

		// The same again, read by Absorb into declared destinations instead.
		byEnt, byRow, _ = write()
		intoEnt, intoRow := boxed(0, c.rows, 10, true), boxed(0, c.rows, 10, true)
		if moved := intoEnt.Absorb(byEnt); moved != total {
			t.Fatalf("%s: Absorb moved %d entries; %d were added", c.name, moved, total)
		}
		intoRow.Absorb(byRow)
		sameTable(t, c.name+", absorbed", intoRow, intoEnt)
		for _, f := range []*Flat{byEnt, byRow, intoEnt, intoRow} {
			f.Release()
		}
		if SlabsOut() != held {
			t.Fatalf("%s: %d slabs kept", c.name, SlabsOut()-held)
		}
	}
}

// A leaf block's projection moves each shard's open box, whole, from the
// walk's table (None, v, α) to the block's (v, None, α): the entries must be
// exactly those a projection entry by entry makes, the walk's shard left
// empty and releasable, and every slab given back. A box moved into a shard
// of other rows — another partition, row count, colour count or colouring
// — or into one that holds entries must panic and leave the box where it
// was: read at other rows it would alias their cells.
func TestMoveBoxIsTheProjection(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	held := SlabsOut()
	for trial := 0; trial < 30; trial++ {
		k := 3 + rng.Intn(8)
		h := 1 + rng.Intn(k-1)
		lo, n := uint32(rng.Intn(1000)), uint32(1+rng.Intn(40))
		own := func(v uint32) sig.Sig { return ownSig(rng, k, h, v) }
		walk, entries := boxed(lo, n, k, true), new(Flat)
		adds := rng.Intn(3000)
		for i := 0; i <= adds; i++ {
			if i == adds/2 && trial%2 == 1 {
				walk.Len() // read, then written again: the move folds what was compacted back in
			}
			v := lo + uint32(rng.Intn(int(n)))
			e := BinaryEnt(None, v, own(v), uint64(1+rng.Intn(9)))
			walk.AddEnt(e)
			entries.AddEnt(e)
		}
		want := new(Flat)
		for _, e := range entries.Ents() {
			want.AddEnt(UnaryEnt(e.V(), e.S, e.C))
		}
		open := walk.box.words != nil

		recoloured := boxed(lo, n, k, false)
		recoloured.box.Colors = slices.Clone(recoloured.box.Colors)
		for name, dst := range map[string]*Flat{
			"another partition": boxed(lo+1, n, k, false),
			"more rows":         boxed(lo, n+1, k, false),
			"another k":         boxed(lo, n, k+1, false),
			"another colouring": recoloured,
			"an undeclared one": new(Flat),
			"one with entries":  boxed(lo, n, k, false),
		} {
			if name == "one with entries" {
				dst.AddEnt(UnaryEnt(lo, own(lo), 1))
			}
			func() {
				defer func() {
					if recover() == nil && open {
						t.Errorf("a box was moved into %s", name)
					}
				}()
				if ok := dst.MoveBox(walk); ok != open {
					t.Errorf("MoveBox into %s reported %v with the box open %v", name, ok, open)
				}
			}()
			if walk.box.words == nil && open {
				t.Fatalf("a refused move into %s took the box", name)
			}
			dst.Release()
		}

		out := boxed(lo, n, k, false)
		ok := out.MoveBox(walk)
		if ok != open {
			t.Fatalf("trial %d: MoveBox moved %v; the box was open %v", trial, ok, open)
		}
		if ok && (walk.Len() != 0 || walk.Total() != 0 || walk.box.words != nil) {
			t.Fatalf("trial %d: the moved box left %d entries behind", trial, walk.Len())
		}
		if !ok { // a shard whose box never opened is projected entry by entry
			for _, e := range walk.Ents() {
				out.AddEnt(UnaryEnt(e.V(), e.S, e.C))
			}
		}
		sameTable(t, "moved box", out, want)
		first := UnaryEnt(lo, own(lo), 1)
		out.AddEnt(first) // a moved box takes adds as its own
		want.AddEnt(first)
		sameTable(t, "moved box, added to", out, want)

		// And back, a U-shift shard into a V-shift one: a leaf block's output
		// becoming the first table of the start-free walk it annotates. It was
		// read above; more adds reopen its box, and the move folds what the
		// read compacted back in.
		for i := rng.Intn(3000); i >= 0; i-- {
			v := lo + uint32(rng.Intn(int(n)))
			e := UnaryEnt(v, own(v), uint64(1+rng.Intn(9)))
			out.AddEnt(e)
			want.AddEnt(e)
		}
		lifted, back := new(Flat), boxed(lo, n, k, true)
		for _, e := range want.Ents() {
			lifted.AddEnt(BinaryEnt(None, e.U(), e.S, e.C))
		}
		open = out.box.words != nil
		if ok := back.MoveBox(out); ok != open {
			t.Fatalf("trial %d: MoveBox back moved %v with the box open %v", trial, ok, open)
		} else if !ok {
			for _, e := range out.Ents() {
				back.AddEnt(BinaryEnt(None, e.U(), e.S, e.C))
			}
		}
		sameTable(t, "moved back", back, lifted)
		for _, f := range []*Flat{walk, entries, want, out, lifted, back} {
			f.Release()
		}
		if SlabsOut() != held {
			t.Fatalf("trial %d: %d slabs kept", trial, SlabsOut()-held)
		}
	}
}

// Rows hands out, vertex by vertex, exactly the runs Ents has, in every form
// a shard can be read in: a box open while written, a box opened at
// compaction (boxDense, over boxCap and a quarter full), chunks sorted by
// packed key, an over-cap declared shard too sparse to box, an undeclared
// walk shard keyed by V, and a box compacted and then written again — read
// by Next, and by At at every vertex of the partition. Total sums an open
// box's cells without sweeping it, and the scratch goes back on Close.
func TestRowsAreEntsRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	const lo = 500
	for _, c := range []struct {
		name           string
		rows           uint32
		n              int
		inV, undecl    bool
		readAt         int // the add before which the shard is read, if any
		h              int // the signatures' size: 5 is 126 cells a row at k = 10, 3 is 36
		boxedWhenRead  bool
		boxedAfterRead bool // the read opened a box it did not sweep
	}{
		{name: "box open while written", rows: 30, n: 4000, h: 3, boxedWhenRead: true},
		{name: "box opened at compaction", rows: 261, n: 10000, inV: true, h: 5, boxedAfterRead: true},
		{name: "chunks sorted", rows: 40, n: 500, h: 5},
		{name: "over the cap, sparse", rows: 261, n: 5000, h: 5},
		{name: "a walk's shard, undeclared", rows: 40, n: 3000, inV: true, undecl: true, h: 5},
		{name: "compacted, then written", rows: 30, n: 4000, readAt: 1500, h: 3, boxedWhenRead: true},
	} {
		for _, read := range []string{"Next", "At"} {
			held := SlabsOut()
			f, plain := new(Flat), new(Flat)
			if !c.undecl {
				f = boxed(lo, c.rows, 10, c.inV)
			}
			for i := 0; i < c.n; i++ {
				if i == c.readAt && i > 0 {
					f.Len()
				}
				v := lo + uint32(rng.Intn(int(c.rows)))
				s, n := ownSig(rng, 10, c.h, v), uint64(1+rng.Intn(9))
				e := UnaryEnt(v, s, n)
				if c.inV {
					e = BinaryEnt(None, v, s, n)
				}
				f.AddEnt(e)
				plain.AddEnt(e)
			}
			if open := f.box != nil && f.box.words != nil; open != c.boxedWhenRead {
				t.Fatalf("%s: box open before the read %v", c.name, open)
			}
			if got, want := f.Total(), plain.Total(); got != want || f.sorted != nil && c.boxedWhenRead {
				t.Fatalf("%s: Total %d, want %d; swept %v", c.name, got, want, f.sorted != nil)
			}
			want := plain.Ents()
			rows := f.Rows(nil)
			if open := f.box != nil && f.box.words != nil; open != (c.boxedWhenRead || c.boxedAfterRead) {
				t.Fatalf("%s: read from a box %v", c.name, open)
			}
			var got []Ent
			home := func(e Ent) uint32 { return uint32(e.VU >> rows.shift) }
			for v := uint32(lo); v < lo+c.rows; v++ {
				var run []Ent
				if read == "At" {
					run = rows.At(v)
				} else if run = rows.Next(); len(run) == 0 {
					break
				}
				for _, e := range run {
					if home(e) != home(run[0]) || read == "At" && home(e) != v {
						t.Fatalf("%s, %s: a run of vertex %d holds %+v", c.name, read, home(run[0]), e)
					}
				}
				got = append(got, run...)
			}
			if read == "Next" && len(rows.Next()) != 0 {
				t.Fatalf("%s: Next read past the last vertex", c.name)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s, %s: the rows hold %d entries, Ents %d, or they differ", c.name, read, len(got), len(want))
			}
			rows.Close()
			sameTable(t, c.name+", after its rows were read", f, plain)
			f.Release()
			plain.Release()
			if SlabsOut() != held {
				t.Fatalf("%s, %s: %d slabs kept", c.name, read, SlabsOut()-held)
			}
		}
	}
}

// A box larger than boxCap is not opened while its shard is written: the
// shard appends, keeping its declaration, and its chunks change hands whole
// when another shard of the shape absorbs it. Compaction then boxes them if
// the entries are at least a quarter of the cells (4·n ≥ 261·126 = 32 886:
// 10 000 entries, not 5 000), folding in what an earlier read compacted,
// and sorts them otherwise. Either way the shard reads as an undeclared one
// does.
func TestBoxOverCapKeepsChunks(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	// Size-5 signatures over 10 colours, 126 to an own row: 261 rows exceed
	// the cap, 260 do not.
	for _, c := range []struct {
		rows        uint32
		n           int
		readAt      int  // the add before which the shard is read, if any
		whileFilled bool // the box opens as the shard is written
		atCompact   bool // the box opens when the shard is compacted
	}{
		{260, 5000, 0, true, false},
		{261, 5000, 0, false, false},
		{261, 10000, 0, false, true},
		{261, 10000, 2500, false, true}, // 1 250 entries sorted, then 8 750 more boxed
	} {
		name := fmt.Sprintf("%d rows of 126, %d entries, read at %d", c.rows, c.n, c.readAt)
		box, stage, plain := boxed(0, c.rows, 10, true), boxed(0, c.rows, 10, true), new(Flat)
		for i := 0; i < c.n; i++ {
			if i == c.readAt && i > 0 {
				box.Len()
			}
			v := uint32(rng.Intn(int(c.rows)))
			e := BinaryEnt(None, v, ownSig(rng, 10, 5, v), 1)
			if i%2 == 0 {
				box.AddEnt(e)
			} else {
				stage.AddEnt(e)
			}
			plain.AddEnt(e)
		}
		chunk := stage.full
		box.Absorb(stage)
		if box.box == nil {
			t.Fatalf("%s: the declaration was dropped", name)
		}
		open := box.box.words != nil
		if open != c.whileFilled {
			t.Fatalf("%s: box open while written %v", name, open)
		}
		relinked := false
		for s := box.full; s != nil; s = s.next {
			relinked = relinked || s == chunk
		}
		if relinked == c.whileFilled {
			t.Fatalf("%s: the stage's chunks relinked %v", name, relinked)
		}
		box.compact(func() bool { open = box.box.words != nil; return false })
		if open != (c.whileFilled || c.atCompact) {
			t.Fatalf("%s: compacted from a box %v", name, open)
		}
		sameTable(t, name, box, plain)
		box.Release()
		plain.Release()
	}
}

// A count that wraps to exactly 0 is an empty cell, in every pending form:
// the key is absent afterwards.
func TestZeroSumIsAbsent(t *testing.T) {
	wrap := func(t *Flat, e Ent) {
		e.C = 1 << 63
		t.AddEnt(e)
		t.AddEnt(e)
	}
	box, pair := boxed(0, 4, 4, false), func(v uint32) sig.Sig { return sig.OwnOf(4, 2).Sigs[palettes[4][v]][0] }
	wrap(box, UnaryEnt(1, pair(1), 0))
	box.AddEnt(UnaryEnt(2, pair(2), 5))
	small, sorted := new(Flat), new(Flat)
	wrap(small, Binary(1, 2, 3).Ent(0))
	small.Add(Binary(1, 2, 4), 5)
	for i := 0; i < 200; i++ {
		wrap(sorted, Binary(uint32(i*97), uint32(i*89), 3).Ent(0))
	}
	sorted.Add(Binary(97, 89, 3), 5)
	// Over boxCap (261 rows of 126), boxed at compaction: 10 001 entries.
	late, own := boxed(0, 261, 10, false), sig.OwnOf(10, 5)
	for i := 0; i < 5000; i++ {
		v := uint32(i % 261)
		wrap(late, UnaryEnt(v, own.Sigs[palettes[10][v]][i%126], 0))
	}
	late.AddEnt(UnaryEnt(3, own.Sigs[palettes[10][3]][0], 5))
	for name, f := range map[string]*Flat{"box": box, "comparison sort": small, "records": sorted, "box at compaction": late} {
		if f.Len() != 1 || f.Total() != 5 {
			t.Errorf("%s: %d entries totalling %d, want the one whose count is 5", name, f.Len(), f.Total())
		}
		f.Release()
	}
}

// Both tiers of compaction against a builtin map: the record sort — keys of
// a few bits, keys of nearly 64 bits (X and Y recorded on a 2^20-vertex id
// range), all keys equal (a key of no bits), ids straddling a power of two —
// and the comparison sort of keys wider than a word, and of too few entries.
func TestCompactionTiers(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	in := func(lo, n int) uint32 { return uint32(lo + rng.Intn(n)) }
	for _, c := range []struct {
		name string
		n    int
		w    uint // the packed key's width; 0 = don't check
		tier string
		key  func() Key
	}{
		{"narrow", 4000, 12, "records", func() Key { return Binary(in(100, 16), in(48, 16), sig.Sig(in(0, 16))) }},
		{"all keys equal", 300, 0, "records", func() Key { return Binary(7, 9, 3) }},
		{"ids straddling a power of two", 500, 6, "records", func() Key { return Unary(in(4095, 37), 5) }},
		{"records", 4000, 38, "records", func() Key { return Binary(in(0, 18000), in(0, 18000), sig.Sig(in(1, 255))) }},
		{"records past wideMin", 9000, 38, "records", func() Key { return Binary(in(0, 18000), in(0, 18000), sig.Sig(in(1, 255))) }},
		{"wide records", 3000, 64, "records", func() Key {
			return Key{U: in(0, 1<<20), V: in(1<<19, 16), X: in(0, 1<<20), Y: in(0, 1<<18), S: sig.Sig(in(0, 4))}
		}},
		{"wider than a word", 3000, 84, "comparison", func() Key {
			return Key{U: in(0, 1<<20), V: in(0, 1<<20), X: in(0, 1<<20), Y: in(0, 1<<20), S: sig.Sig(in(0, 16))}
		}},
		{"a slot that is None only sometimes", 1000, 0, "comparison", func() Key { return randKey(rng, 30) }},
		{"too few", radixMin - 1, 0, "comparison", func() Key { return Binary(in(0, 5), in(0, 5), sig.Sig(in(0, 4))) }},
	} {
		want := make(map[Key]uint64)
		var f Flat
		for i := 0; i < c.n; i++ {
			k, cnt := c.key(), uint64(1+rng.Intn(9))
			for dup := 1 + rng.Intn(3); dup > 0; dup-- {
				want[k] += cnt
				f.Add(k, cnt)
			}
		}
		f.retire()
		p := scanChunks(f.full)
		tier := "records"
		if c.n < radixMin || p.w > 64 {
			tier = "comparison"
		}
		if c.w != 0 && p.w != c.w || tier != c.tier {
			t.Errorf("%s: keys pack into %d bits and compact by %s, want %d bits and %s", c.name, p.w, tier, c.w, c.tier)
		}
		ents := f.Ents()
		if len(ents) != len(want) {
			t.Fatalf("%s: %d entries, the map has %d", c.name, len(ents), len(want))
		}
		for i, e := range ents {
			if i > 0 && cmpEnt(ents[i-1], e) >= 0 {
				t.Fatalf("%s: entries %d and %d out of order: %+v, %+v", c.name, i-1, i, ents[i-1], e)
			}
			if want[e.Key()] != e.C {
				t.Fatalf("%s: %+v has count %d, the map %d", c.name, e.Key(), e.C, want[e.Key()])
			}
		}
		f.Release()
	}
}

// A compaction polls stop between its passes and, once it fires, gives
// back what it borrowed and leaves the table as pending as it was — at any
// poll, in any tier, and for a box. A box compaction opened over boxCap
// (261 rows of 126, a third full) is the pending form it leaves: the chunks
// are in it, and it is all the table holds.
func TestBuildStopsBetweenPasses(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	add := func(f *Flat, rows uint32, k, h int) {
		v := uint32(rng.Intn(int(rows)))
		f.AddEnt(UnaryEnt(v, ownSig(rng, k, h, v), 1))
	}
	for name, add := range map[string]func(f *Flat){
		"records":           func(f *Flat) { f.Add(Binary(uint32(rng.Intn(5000)), uint32(rng.Intn(5000)), 1), 1) },
		"box":               func(f *Flat) { add(f, 30, 6, 3) },
		"box at compaction": func(f *Flat) { add(f, 261, 10, 5) },
	} {
		f := new(Flat)
		switch name {
		case "box":
			f = boxed(0, 30, 6, false)
		case "box at compaction":
			f = boxed(0, 261, 10, false)
		}
		const n = 10000
		for polls := 1; ; polls++ {
			empty := SlabsOut()
			for i := 0; i < n; i++ {
				add(f)
			}
			held, left := SlabsOut(), polls
			got, ok := f.Build(func() bool { left--; return left == 0 })
			if ok {
				if left <= 0 || got == 0 || f.Total() != n {
					t.Fatalf("%s: a build that polled %d times of %d allowed finished with %d entries totalling %d", name, polls-left, polls, got, f.Total())
				}
				if polls == 1 {
					t.Fatalf("%s: the build never polled", name)
				}
				f.Release()
				break
			}
			if name == "box at compaction" {
				if f.box.words == nil || f.full != nil {
					t.Fatalf("%s: stopped at poll %d with the box open %v, chunks left %v", name, polls, f.box.words != nil, f.full != nil)
				}
				held = empty + 1
			}
			if got != 0 || SlabsOut() != held || f.Total() != n {
				t.Fatalf("%s: stopped at poll %d: %d entries reported, %d slabs kept, total %d of %d", name, polls, got, SlabsOut()-held, f.Total(), n)
			}
			if f.Len() == 0 || f.Total() != n { // the next read builds it after all
				t.Fatalf("%s: stopped at poll %d, the table is unreadable", name, polls)
			}
			f.Release()
		}
	}
}

// A words request takes the smallest slab class that fits it, however far
// below a chunk — a box of 36 rows of 7 takes 2 KiB, not a chunk's 8 — and
// gives it back; a slab of entries still takes a chunk at least, since a
// table's entries grow.
func TestWordsTakeTheSmallestClass(t *testing.T) {
	held := SlabsOut()
	for _, c := range []struct{ words, ents int }{
		{1, 1}, {4, 1}, {5, 2}, {36 * 7, 64}, {36 * 7 * 4, 256}, {chunkEnts*entWords + 1, 2 * chunkEnts},
	} {
		s, words := getWords(c.words)
		if len(words) != c.words || cap(s.ents) != c.ents || SlabsOut() != held+1 {
			t.Errorf("%d words: a slab of %d entries (%d slabs out), want %d", c.words, cap(s.ents), SlabsOut()-held, c.ents)
		}
		putSlab(s)
	}
	for _, n := range []int{1, chunkEnts - 1, chunkEnts} {
		if s := getSlab(n); cap(s.ents) != chunkEnts {
			t.Errorf("getSlab(%d) holds %d entries, want a chunk's %d", n, cap(s.ents), chunkEnts)
		} else {
			putSlab(s)
		}
	}
	if SlabsOut() != held {
		t.Fatalf("%d slabs kept", SlabsOut()-held)
	}
}

// A task may defer its scratch's return and grow the scratch after, as one
// that needs more words for a later vertex does: the deferred Return gives back what the scratch holds when it runs, so
// the last scratch comes back and none of the earlier ones twice.
func TestDeferredReturnGivesBackTheGrownScratch(t *testing.T) {
	held := SlabsOut()
	func() {
		var scratch Scratch
		defer scratch.Return()
		for n := 1; n <= 1<<14; n <<= 3 {
			scratch.Return()
			scratch = BorrowWords(n)
		}
		if SlabsOut() != held+1 {
			t.Fatalf("growing a scratch holds %d slabs, want 1", SlabsOut()-held)
		}
	}()
	if left := SlabsOut() - held; left != 0 {
		t.Fatalf("the deferred Return left %d slabs out", left)
	}
}

// A pending shard can be read where it lies: Chunks over appended and
// absorbed chunks hands out every entry, duplicates unfolded, and takes no
// slab — nothing is compacted, before the Release that follows either — so
// a reader that wants a sum of products, not order, never pays for a sort.
// Scratch borrowed beside it is a slab like any other until it is returned.
func TestChunksOverPendingNeverCompacts(t *testing.T) {
	start := SlabsOut()
	rng := rand.New(rand.NewSource(5))
	var f, lane Flat
	want := map[Key]uint64{}
	const n = 5*chunkEnts + 17
	for i := 0; i < n; i++ {
		k := Binary(uint32(rng.Intn(40)), uint32(rng.Intn(40)), sig.Sig(1+rng.Intn(7)))
		if want[k]++; i%3 == 0 {
			lane.Add(k, 1)
		} else {
			f.Add(k, 1)
		}
	}
	if moved := f.Absorb(&lane); moved != (n+2)/3 {
		t.Fatalf("Absorb moved %d of %d entries", moved, (n+2)/3)
	}
	if len(want) == n {
		t.Fatal("the test needs duplicate keys")
	}

	held := SlabsOut()
	scratch := BorrowWords(1000)
	if len(scratch.Words) != 1000 || SlabsOut() != held+1 {
		t.Fatalf("BorrowWords(1000) lent %d words in %d slabs", len(scratch.Words), SlabsOut()-held)
	}
	got, entries := map[Key]uint64{}, 0
	f.Chunks(func(ents []Ent) {
		if len(ents) == 0 {
			t.Error("Chunks handed out an empty chunk")
		}
		for _, e := range ents {
			got[e.Key()] += e.C
		}
		entries += len(ents)
	})
	scratch.Return()
	if entries != n || len(got) != len(want) {
		t.Fatalf("Chunks handed out %d entries under %d keys; %d were added under %d", entries, len(got), n, len(want))
	}
	for k, c := range want {
		if got[k] != c {
			t.Fatalf("key %+v: chunks sum to %d, %d were added", k, got[k], c)
		}
	}
	if f.sorted != nil || SlabsOut() != held {
		t.Fatalf("reading the pending chunks compacted them: sorted slab %v, %d slabs taken", f.sorted != nil, SlabsOut()-held)
	}
	f.Release()
	if f.sorted != nil || SlabsOut() != start {
		t.Fatalf("Release after Chunks: sorted slab %v, %d slabs out", f.sorted != nil, SlabsOut()-start)
	}
	if scratch.Words != nil {
		t.Fatal("a returned Scratch still holds its words")
	}
	scratch.Return() // a returned Scratch is the zero one: it holds nothing
	if SlabsOut() != start {
		t.Fatal("returning the zero Scratch moved the slab count")
	}
}
