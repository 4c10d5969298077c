package engine

import (
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/sig"
	"repro/internal/table"
)

func TestRunVisitsAllWorkers(t *testing.T) {
	c := NewCluster(3, 1000)
	visited := make([]atomic.Bool, c.P())
	c.Run(func(w int) { visited[w].Store(true) })
	for w := range visited {
		if !visited[w].Load() {
			t.Fatalf("partition %d not run", w)
		}
	}
}

func TestLoadAccounting(t *testing.T) {
	c := NewRuntime(SimName, 3, 3, 30) // three ranks of one partition each
	c.Run(func(w int) { c.AddLoad(w, int64(w)*10) })
	max, avg, total := LoadStats(c.Loads())
	if max != 20 || total != 30 || avg != 10 {
		t.Fatalf("stats = %d %f %d", max, avg, total)
	}
	if max, avg, total := LoadStats(nil); max != 0 || avg != 0 || total != 0 {
		t.Fatalf("stats of no workers = %d %f %d", max, avg, total)
	}
}

func TestShardedAccumulate(t *testing.T) {
	c := NewCluster(4, 40)
	s := NewSharded(c)
	// Route (v, v) unary entries to their owner via a superstep.
	c.Step(s, func(w int, to *Lanes) {
		if w != 0 {
			return
		}
		for v := uint32(0); v < 40; v++ {
			to.At(v).AddEnt(table.Unary(v, sig.Of(0)).Ent(2))
		}
	})
	if s.Len() != 40 || s.Total() != 80 {
		t.Fatalf("Len=%d Total=%d", s.Len(), s.Total())
	}
	// Every entry must live in its owner's shard.
	for w := 0; w < c.P(); w++ {
		s.Shard(w).Iter(func(k table.Key, _ uint64) bool {
			if c.Owner(k.U) != w {
				t.Errorf("entry %d in shard %d, owner %d", k.U, w, c.Owner(k.U))
			}
			return true
		})
	}
	n := 0
	s.Iter(func(table.Key, uint64) bool { n++; return n < 10 })
	if n != 10 {
		t.Fatalf("early stop visited %d", n)
	}
}

// Released arrays are recycled, the table that held them is not: a second
// Release does nothing — it must not hand the arrays of whichever table
// took them next back to the pool for a third to share — and any other use
// of a released table panics.
func TestReleaseTwiceSharesNoArrays(t *testing.T) {
	c := NewRuntime(SimName, 4, 4, 40) // four partitions of ten vertices
	dead := NewMatrix(c, 4, false)
	dead.Add(1, table.Unary(12, 0b11), 1)
	dead.Release()
	a := NewSharded(c)
	dead.Release()
	b := NewSharded(c)
	if &a.shards[0] == &b.shards[0] {
		t.Fatal("two live tables share one shard array")
	}
	a.Add(0, table.Unary(3, 1), 7)
	if a.Total() != 7 || b.Len() != 0 {
		t.Fatalf("a totals %d, b holds %d entries: want 7 and 0", a.Total(), b.Len())
	}
	a.Release()
	b.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("a released table could still be read")
		}
	}()
	dead.Shard(0)
}

// Owner divides by multiplying with a reciprocal; it must agree with the
// division it replaces for every block size — 1, where the reciprocal
// wraps, powers of two, and sizes around 2^20 — on the vertices either side
// of every partition boundary, the last vertices of the id space, and
// random ones.
func TestOwnerMatchesDivision(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	chunks := []int{1<<20 - 1, 1 << 20, 1<<20 + 1}
	for c := 1; c <= 4096; c++ {
		chunks = append(chunks, c)
	}
	for _, chunk := range chunks {
		for _, parts := range []int{1, 3, 512} {
			b := NewBlocks(parts, parts*chunk)
			if b.chunk != chunk {
				t.Fatalf("NewBlocks(%d, %d) cut blocks of %d, want %d", parts, parts*chunk, b.chunk, chunk)
			}
			vs := []uint32{0, ^uint32(0), ^uint32(0) - 1, 1 << 31}
			for w := 0; w <= parts; w++ {
				edge := uint32(w * chunk)
				vs = append(vs, edge-1, edge, edge+1)
			}
			for i := 0; i < 16; i++ {
				vs = append(vs, rng.Uint32(), uint32(rng.Intn(parts*chunk)))
			}
			for _, v := range vs {
				if got, want := b.Owner(v), min(int(v)/chunk, parts-1); got != want {
					t.Fatalf("%d partitions of %d: Owner(%d) = %d, division says %d", parts, chunk, v, got, want)
				}
			}
		}
	}
}

// Band and WorkerOf must be each other's inverse for every partition and
// worker count — multiples of one another or not: the bands tile the
// partitions in order, and a partition's home worker is the one whose band
// holds it.
func TestBandsPairWithWorkerOf(t *testing.T) {
	for parts := 1; parts <= 40; parts++ {
		for workers := 1; workers <= 9; workers++ {
			c := NewCounters(parts, workers)
			next := 0
			for g := 0; g < workers; g++ {
				lo, hi := c.Band(g)
				if lo != next || hi < lo {
					t.Fatalf("parts=%d workers=%d: band %d is [%d,%d), want it to start at %d", parts, workers, g, lo, hi, next)
				}
				for w := lo; w < hi; w++ {
					if c.WorkerOf(w) != g {
						t.Fatalf("parts=%d workers=%d: partition %d is in band %d, WorkerOf says %d", parts, workers, w, g, c.WorkerOf(w))
					}
				}
				next = hi
			}
			if next != parts {
				t.Fatalf("parts=%d workers=%d: bands cover [0,%d)", parts, workers, next)
			}
		}
	}
}

// With a partition count that is no multiple of the worker count (10 over
// 3: bands of 4, 3 and 3), a partition's load must land on the worker in
// whose band it runs, and a steal is exactly a task run outside the
// running worker's band.
func TestParallelLoadsAndStealsOffMultiple(t *testing.T) {
	p := NewParallel(3, 160)
	if p.P() != 10 {
		t.Fatalf("P = %d, want 10", p.P())
	}
	var offBand atomic.Int64
	p.run(func(g, w int) {
		p.AddLoad(w, int64(1)<<(4*w))
		if lo, hi := p.Band(g); w < lo || w >= hi {
			offBand.Add(1)
		}
	})
	want := []int64{0x1111, 0x111_0000, 0x111_0000000}
	for g, l := range p.Loads() {
		if l != want[g] {
			t.Errorf("worker %d load = %#x, want %#x (partitions of its band)", g, l, want[g])
		}
	}
	if p.Steals() != offBand.Load() {
		t.Errorf("Steals = %d, but %d tasks ran outside their worker's band", p.Steals(), offBand.Load())
	}
}
