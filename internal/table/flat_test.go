package table

import (
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
		{name: "dense64k/n50/k5", n: 64 << 10, verts: 50, k: 5, homeLo: 4090, homes: 36}, // 17 key bits, as cycle5-90k's largest shards: the dense index
		{name: "table1M/n18k/k8", n: 1 << 20, verts: 18000, k: 8, homes: 18000},
		{name: "box36/n18k/k8", n: 5 * 36 * 70 / 2, k: 8, homeLo: 4090, homes: 36, box: true},
		{name: "box36rows/n18k/k8", n: 5 * 36 * 70 / 2, k: 8, homeLo: 4090, homes: 36, box: true, rows: true},
	} {
		b.Run(c.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			keys := make([]Key, c.n)
			sized := sig.RankingOf(c.k, 4).Sigs
			for i := range keys {
				home := c.homeLo + uint32(rng.Intn(int(c.homes)))
				if c.box { // half of the box's cells, five times each
					keys[i] = Binary(None, home, sized[rng.Intn(len(sized))])
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
					f.SetBox(&box, Shape{Lo: c.homeLo, N: c.homes, K: uint8(c.k), Shift: 32})
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
		for _, k := range keys[i:j] {
			row[rk.Rank[k.S]]++
		}
		f.Added(j - i)
	}
}

// boxed returns an empty table declared a vertex×signature shard over the
// vertices [lo, lo+n) and k colours, the vertex in V (inV) or in U.
func boxed(lo, n uint32, k int, inV bool) *Flat {
	s := Shape{Lo: lo, N: n, K: uint8(k)}
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

// A shard declared a vertex×signature matrix accumulates in a box once it
// is due one; one that is not appends and sorts. Nothing a reader can see
// may differ: random (vertex, signature, count) streams — vertex in V or in
// U, heavy duplication, boxes that open at once, after some chunks or not
// at all — through both, across Absorb box←box and box←chunks, a box read
// and then written again, Release, and a box nothing was added to.
func TestBoxMatchesChunks(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 60; trial++ {
		k, inV := 3+rng.Intn(8), rng.Intn(2) == 0
		h := 1 + rng.Intn(k-1)
		lo, n := uint32(rng.Intn(1000)), uint32(1+rng.Intn(40))
		sigs := sig.RankingOf(k, h).Sigs
		ent := func() Ent {
			v, s, c := lo+uint32(rng.Intn(int(n))), sigs[rng.Intn(len(sigs))], uint64(1+rng.Intn(9))
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
		plain.Absorb(box) // and chunks←box: the box's entries move as a chunk
		if box.Len() != 0 {
			t.Fatal("Absorb chunks←box left entries behind")
		}

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

// A signature of another size than the box was opened for, or a vertex of
// another partition, must panic — never land in some other key's cell.
func TestBoxRejectsWhatItCannotIndex(t *testing.T) {
	for name, e := range map[string]Ent{
		"a signature of another size": UnaryEnt(12, 0b0111, 1),
		"a signature beyond k":        UnaryEnt(12, 1<<6|1, 1),
		"a vertex below the range":    UnaryEnt(9, 0b0011, 1),
		"a vertex above the range":    UnaryEnt(20, 0b0011, 1),
	} {
		func() {
			box := boxed(10, 10, 6, false)
			defer box.Release()
			box.AddEnt(UnaryEnt(12, 0b0101, 1))
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
		"a start vertex":    BinaryEnt(12, 3, 0b0101, 1),
		"a recorded vertex": Key{U: 12, V: None, X: 4, Y: None, S: 0b0101}.Ent(1),
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
// for 40 rows of 252 — and then holds everything added so far.
func TestBoxOpensWhenDue(t *testing.T) {
	sigs := sig.RankingOf(10, 5).Sigs
	for _, c := range []struct {
		rows uint32
		at   int // the add that opens the box
	}{{8, 1}, {9, 257}, {40, 1025}} {
		box := boxed(0, c.rows, 10, true)
		for i := 1; i <= c.at+10; i++ {
			box.AddEnt(BinaryEnt(None, uint32(i)%c.rows, sigs[i%len(sigs)], 1))
			if open := box.box.words != nil; open != (i >= c.at) {
				t.Fatalf("%d rows of 252: box open = %v after %d adds, want it opened by add %d", c.rows, open, i, c.at)
			}
		}
		if box.fill != nil || box.full != nil || box.box.adds != c.at+10 || box.Total() != uint64(c.at+10) {
			t.Fatalf("%d rows of 252: the open box holds %d of %d adds", c.rows, box.box.adds, c.at+10)
		}
		box.Release()
	}
}

// A join that writes many entries to one vertex of a matrix takes the
// vertex's row once and adds into it (Row, Added) where the shard has its
// box open, and appends the entries where it has not. That must be the same
// table as AddEnt makes of the same entries, for every outcome of the due
// rule — a box at the first add, one opened at a later chunk fill with the
// filled chunks moved in, none over boxCap — with the same Absorb count into
// a declared destination, which is what sim counts as messages. And a row
// is handed out only while a box is open.
func TestRowWritesAreEntryAdds(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	sigs := sig.RankingOf(10, 5).Sigs // 252 to a row
	for _, c := range []struct {
		name string
		rows uint32
	}{{"box at the first add", 8}, {"box at a chunk fill", 40}, {"over the cap", 131}} {
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
				r.ents = append(r.ents, BinaryEnt(None, r.v, sigs[rng.Intn(len(sigs))], uint64(1+rng.Intn(9))))
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
					row[rk.Rank[e.S]] += e.C
				}
				byRow.Added(len(r.ents))
				rowsTaken++
			}
			return byEnt, byRow, rowsTaken
		}
		held := SlabsOut()
		byEnt, byRow, rowsTaken := write()
		if kept := byRow.box != nil; kept != (rowsTaken > 0) || kept != (c.rows != 131) {
			t.Fatalf("%s: %d rows taken, a box kept %v", c.name, rowsTaken, kept)
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
		if movedEnt, movedRow := intoEnt.Absorb(byEnt), intoRow.Absorb(byRow); movedEnt != total || movedRow != total {
			t.Fatalf("%s: Absorb moved %d entries written as rows and %d added; %d were written", c.name, movedRow, movedEnt, total)
		}
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
// of other rows — another partition, row count or colour count — or into
// one that holds entries must panic and leave the box where it was: read
// at other rows it would alias their cells.
func TestMoveBoxIsTheProjection(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	held := SlabsOut()
	for trial := 0; trial < 30; trial++ {
		k := 3 + rng.Intn(8)
		h := 1 + rng.Intn(k-1)
		lo, n := uint32(rng.Intn(1000)), uint32(1+rng.Intn(40))
		sigs := sig.RankingOf(k, h).Sigs
		walk, entries := boxed(lo, n, k, true), new(Flat)
		adds := rng.Intn(3000)
		for i := 0; i <= adds; i++ {
			if i == adds/2 && trial%2 == 1 {
				walk.Len() // read, then written again: the move folds what was compacted back in
			}
			e := BinaryEnt(None, lo+uint32(rng.Intn(int(n))), sigs[rng.Intn(len(sigs))], uint64(1+rng.Intn(9)))
			walk.AddEnt(e)
			entries.AddEnt(e)
		}
		want := new(Flat)
		for _, e := range entries.Ents() {
			want.AddEnt(UnaryEnt(e.V(), e.S, e.C))
		}
		open := walk.box.words != nil

		for name, dst := range map[string]*Flat{
			"another partition": boxed(lo+1, n, k, false),
			"more rows":         boxed(lo, n+1, k, false),
			"another k":         boxed(lo, n, k+1, false),
			"an undeclared one": new(Flat),
			"one with entries":  boxed(lo, n, k, false),
		} {
			if name == "one with entries" {
				dst.AddEnt(UnaryEnt(lo, sigs[0], 1))
			}
			func() {
				defer func() {
					if recover() == nil && open {
						t.Errorf("a box was moved into %s", name)
					}
				}()
				if _, ok := dst.MoveBox(walk); ok != open {
					t.Errorf("MoveBox into %s reported %v with the box open %v", name, ok, open)
				}
			}()
			if walk.box.words == nil && open {
				t.Fatalf("a refused move into %s took the box", name)
			}
			dst.Release()
		}

		out := boxed(lo, n, k, false)
		cells, ok := out.MoveBox(walk)
		if ok != open || ok && cells != want.Len() {
			t.Fatalf("trial %d: MoveBox moved %v, %d cells; the box was open %v, the projection has %d entries", trial, ok, cells, open, want.Len())
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
		out.AddEnt(UnaryEnt(lo, sigs[0], 1)) // a moved box takes adds as its own
		want.AddEnt(UnaryEnt(lo, sigs[0], 1))
		sameTable(t, "moved box, added to", out, want)
		for _, f := range []*Flat{walk, entries, want, out} {
			f.Release()
		}
		if SlabsOut() != held {
			t.Fatalf("trial %d: %d slabs kept", trial, SlabsOut()-held)
		}
	}
}

// A box larger than boxCap is never opened: the shard appends, and reads
// the same.
func TestBoxOverCapKeepsChunks(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	sigs := sig.RankingOf(10, 5).Sigs // 252 to a row: 131 rows exceed the cap, 130 do not
	for _, n := range []uint32{130, 131} {
		box, plain := boxed(0, n, 10, true), new(Flat)
		for i := 0; i < 5000; i++ {
			e := BinaryEnt(None, uint32(rng.Intn(int(n))), sigs[rng.Intn(len(sigs))], 1)
			box.AddEnt(e)
			plain.AddEnt(e)
		}
		if kept := box.box != nil; kept != (n == 130) {
			t.Fatalf("%d rows of 252: box kept = %v", n, kept)
		}
		sameTable(t, "over the cap", box, plain)
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
	box := boxed(0, 4, 4, false)
	wrap(box, UnaryEnt(1, 0b11, 0))
	box.AddEnt(UnaryEnt(2, 0b11, 5))
	small, dense, sorted := new(Flat), new(Flat), new(Flat)
	wrap(small, Binary(1, 2, 3).Ent(0))
	small.Add(Binary(1, 2, 4), 5)
	for i := 0; i < 200; i++ {
		wrap(dense, Binary(uint32(i%10), uint32(i%7), 3).Ent(0))
		wrap(sorted, Binary(uint32(i*97), uint32(i*89), 3).Ent(0))
	}
	dense.Add(Binary(1, 2, 3), 5)
	sorted.Add(Binary(97, 89, 3), 5)
	for name, f := range map[string]*Flat{"box": box, "comparison sort": small, "dense index": dense, "records": sorted} {
		if f.Len() != 1 || f.Total() != 5 {
			t.Errorf("%s: %d entries totalling %d, want the one whose count is 5", name, f.Len(), f.Total())
		}
		f.Release()
	}
}

// Every tier of compaction against a builtin map: the dense index, the
// record sort — narrow keys, keys of nearly 64 bits (X and Y recorded on a
// 2^20-vertex id range), all keys equal, ids straddling a power of two —
// the comparison sort of keys wider than a word, and of too few entries.
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
		{"dense", 4000, 12, "index", func() Key { return Binary(in(100, 16), in(48, 16), sig.Sig(in(0, 16))) }},
		{"all keys equal", 300, 0, "index", func() Key { return Binary(7, 9, 3) }},
		{"ids straddling a power of two", 500, 6, "index", func() Key { return Unary(in(4095, 37), 5) }},
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
		switch {
		case c.n < radixMin || p.w > 64:
			tier = "comparison"
		case p.w < 40 && 1<<p.w <= denseFactor*3*c.n: // every key was added up to three times
			tier = "index"
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
// poll, in any tier, and for a box.
func TestBuildStopsBetweenPasses(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	sigs := sig.RankingOf(6, 3).Sigs
	for name, add := range map[string]func(f *Flat){
		"records": func(f *Flat) { f.Add(Binary(uint32(rng.Intn(5000)), uint32(rng.Intn(5000)), 1), 1) },
		"index":   func(f *Flat) { f.Add(Binary(uint32(rng.Intn(20)), uint32(rng.Intn(20)), 1), 1) },
		"box":     func(f *Flat) { f.AddEnt(UnaryEnt(uint32(rng.Intn(30)), sigs[rng.Intn(len(sigs))], 1)) },
	} {
		f := new(Flat)
		if name == "box" {
			f = boxed(0, 30, 6, false)
		}
		const n = 5000
		for polls := 1; ; polls++ {
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
	(Scratch{}).Return() // the zero Scratch holds nothing
	if SlabsOut() != start {
		t.Fatal("returning the zero Scratch moved the slab count")
	}
}
