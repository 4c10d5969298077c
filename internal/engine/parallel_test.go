package engine_test

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/dist"
	"repro/internal/engine"
	"repro/internal/sig"
	"repro/internal/table"
)

func TestParallelRunVisitsEveryPartitionOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		p := engine.NewParallel(workers, 1000)
		visits := make([]atomic.Int32, p.P())
		p.Run(func(w int) { visits[w].Add(1) })
		for w := range visits {
			if got := visits[w].Load(); got != 1 {
				t.Fatalf("workers=%d: partition %d run %d times", workers, w, got)
			}
		}
	}
}

// The grain rule follows the vertex count alone: a handful of partitions
// for a tiny graph, one per 16 vertices after that, 512 at most — at every
// worker count, one included.
func TestParallelGrainFollowsVertexCount(t *testing.T) {
	for _, c := range []struct{ n, parts int }{
		{0, 8}, {1, 8}, {7, 8}, {128, 8}, {160, 10}, {562, 35}, {1000, 62}, {8192, 512}, {18000, 512}, {1 << 20, 512},
	} {
		for _, workers := range []int{1, 2, 5} {
			if got := engine.NewParallel(workers, c.n).P(); got != c.parts {
				t.Errorf("%d vertices, %d workers: %d partitions, want %d", c.n, workers, got, c.parts)
			}
		}
	}
}

// A worker stuck on a long task must not strand the rest of the run: the
// other worker steals across bands. Partition 0's task blocks until every
// other partition has completed — possible only because whichever worker
// is not stuck keeps claiming tasks from both bands.
func TestParallelStealsImbalancedBands(t *testing.T) {
	p := engine.NewParallel(2, 2000)
	others := int32(p.P() - 1)
	var done atomic.Int32
	release := make(chan struct{})
	p.Run(func(w int) {
		if w == 0 {
			<-release
			return
		}
		if done.Add(1) == others {
			close(release)
		}
	})
	if p.Steals() == 0 {
		t.Error("no steals recorded despite a blocked worker")
	}
}

func TestCanonicalAndNew(t *testing.T) {
	if name, err := engine.Canonical("sim"); err != nil || name != engine.SimName {
		t.Fatalf("Canonical(sim) = %q, %v", name, err)
	}
	if name, err := engine.Canonical("parallel"); err != nil || name != engine.ParallelName {
		t.Fatalf("Canonical(parallel) = %q, %v", name, err)
	}
	if _, err := engine.Canonical("mpi"); err == nil {
		t.Fatal("Canonical accepted an unknown backend")
	}
	be, err := engine.New("parallel", 0, engine.Job{N: 100})
	if err != nil {
		t.Fatal(err)
	}
	if be.Name() != engine.ParallelName || be.Workers() < 1 {
		t.Fatalf("New(parallel): name %q workers %d", be.Name(), be.Workers())
	}
	sim, err := engine.New("sim", 0, engine.Job{N: 100})
	if err != nil {
		t.Fatal(err)
	}
	if sim.Name() != engine.SimName || sim.Workers() != 4 {
		t.Fatalf("New(sim): name %q workers %d, want sim/4", sim.Name(), sim.Workers())
	}
	if _, err := engine.New("mpi", 2, engine.Job{N: 100}); err == nil {
		t.Fatal("New accepted an unknown backend")
	}
}

// The conformance table: every runtime takes the same cases. width is
// simulated ranks for sim, worker goroutines for parallel, and partitions
// for the dist rank (the single rank of a loopback session, which owns
// them all).
var runtimes = []struct {
	name   string
	widths []int
	mk     func(t *testing.T, width, n int) engine.Backend
}{
	{"sim", []int{1, 4}, func(_ *testing.T, width, n int) engine.Backend { return engine.NewCluster(width, n) }},
	{"parallel", []int{1, 3, 8}, func(_ *testing.T, width, n int) engine.Backend { return engine.NewParallel(width, n) }},
	{"dist rank", []int{1, 7}, func(t *testing.T, width, n int) engine.Backend {
		be, stop := dist.LoopbackRank(width, n)
		t.Cleanup(stop)
		return be
	}},
}

var conformance = []struct {
	name  string
	check func(t *testing.T, be engine.Backend, n int)
}{
	{"Owner and Range tile [0,N) exactly", checkTiling},
	{"Deliver hands every count to its dst once, one run per dst at a time", checkDeliver},
	{"Step accumulates every count into its dst shard", checkStep},
	{"Loads sums to what AddLoad charged", checkLoads},
}

func TestDeliverRoutesEveryEmission(t *testing.T) {
	for _, rt := range runtimes {
		for _, width := range rt.widths {
			for _, c := range conformance {
				t.Run(fmt.Sprintf("%s/width %d/%s", rt.name, width, c.name), func(t *testing.T) {
					c.check(t, rt.mk(t, width, 400), 400)
				})
			}
		}
		// The block map again, over layouts the fixed size above misses:
		// more partitions than vertices, no vertices, ragged last blocks.
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 60; i++ {
			width, n := 1+rng.Intn(32), rng.Intn(2000)
			if i < 8 {
				n = i / 2 // 0..3 vertices
			}
			t.Run(fmt.Sprintf("%s/width %d/%d vertices tile", rt.name, width, n), func(t *testing.T) {
				checkTiling(t, rt.mk(t, width, n), n)
			})
		}
	}
}

func checkTiling(t *testing.T, be engine.Backend, n int) {
	next := uint32(0)
	for w := 0; w < be.P(); w++ {
		lo, hi := be.Range(w)
		if lo != next || hi < lo {
			t.Errorf("partition %d is [%d,%d), want it to start at %d", w, lo, hi, next)
		}
		for v := lo; v < hi; v++ {
			if be.Owner(v) != w {
				t.Errorf("Owner(%d) = %d, but partition %d's range holds it", v, be.Owner(v), w)
			}
		}
		next = hi
	}
	if int(next) != n {
		t.Errorf("ranges cover [0,%d), want [0,%d)", next, n)
	}
}

// checkDeliver has every vertex v send two counts, one to a near vertex's
// owner (mostly v's own partition: self-sends) and one scattered, so
// every destination hears from several producers at once. The consumer
// state is unsynchronized on purpose: the contract is that calls for one
// dst never overlap.
func checkDeliver(t *testing.T, be engine.Backend, n int) {
	targets := func(v uint32) [2]uint32 { return [2]uint32{(v + 7) % uint32(n), (v * 31) % uint32(n)} }
	got := make([]map[table.Key]uint64, be.P())
	srcs := make([][]uint32, be.P()) // producing partition of each count, in arrival order
	busy := make([]atomic.Int32, be.P())
	for i := range got {
		got[i] = make(map[table.Key]uint64)
	}
	steps := be.Steps()
	be.Deliver(func(w int, emit engine.Emit) {
		lo, hi := be.Range(w)
		for v := lo; v < hi; v++ {
			for i, to := range targets(v) {
				emit(be.Owner(to), []engine.Msg{{K: table.Key{U: v, V: to, X: uint32(i), Y: uint32(w)}, C: uint64(v) + 1}})
			}
		}
	}, func(dst int, run []engine.Msg) {
		if busy[dst].Add(1) != 1 {
			t.Errorf("two consume calls for partition %d overlap", dst)
		}
		for _, m := range run {
			got[dst][m.K] += m.C
			srcs[dst] = append(srcs[dst], m.K.Y)
		}
		busy[dst].Add(-1)
	})
	if be.Steps() != steps+1 {
		t.Errorf("Steps went %d → %d over one Deliver", steps, be.Steps())
	}
	delivered := 0
	for dst := range got {
		delivered += len(got[dst])
		for k, c := range got[dst] {
			if be.Owner(k.V) != dst || targets(k.U)[k.X] != k.V || c != uint64(k.U)+1 {
				t.Errorf("partition %d consumed %+v ×%d", dst, k, c)
			}
		}
		if be.Name() == engine.SimName {
			// sim alone promises an order: buffers arrive by source rank.
			for i := 1; i < len(srcs[dst]); i++ {
				if srcs[dst][i] < srcs[dst][i-1] {
					t.Errorf("sim rank %d consumed source %d after %d", dst, srcs[dst][i], srcs[dst][i-1])
				}
			}
		}
	}
	if delivered != 2*n {
		t.Errorf("%d distinct counts delivered, want %d", delivered, 2*n)
	}
	// What a message is differs by runtime: sim counts every emitted
	// count, self-sends included; parallel exchanges none; a dist rank
	// counts only what leaves it, and this one has no peer.
	want := int64(0)
	if be.Name() == engine.SimName {
		want = int64(2 * n)
	}
	if be.Messages() != want {
		t.Errorf("Messages = %d after emitting %d counts, want %d", be.Messages(), 2*n, want)
	}
}

// checkStep emits a random multiset of binary keys, duplicates included,
// and compares the table Step builds against a builtin map.
func checkStep(t *testing.T, be engine.Backend, n int) {
	rng := rand.New(rand.NewSource(11))
	want := make(map[table.Key]uint64)
	batches := make([][]engine.Msg, 100)
	for i := range batches {
		for j := rng.Intn(8); j > 0; j-- {
			k := table.Binary(uint32(rng.Intn(n)), uint32(rng.Intn(n/8)), sig.Of(uint8(rng.Intn(5))))
			m := engine.Msg{K: k, C: uint64(1 + rng.Intn(9))}
			batches[i] = append(batches[i], m)
			want[k] += m.C
		}
	}
	out := engine.NewSharded(be)
	steps := be.Steps()
	be.Step(out, func(w int, emit engine.Emit) {
		for i := w; i < len(batches); i += be.P() {
			for _, m := range batches[i] {
				emit(be.Owner(m.K.V), []engine.Msg{m})
			}
		}
	})
	if be.Steps() != steps+1 {
		t.Errorf("Steps went %d → %d over one Step", steps, be.Steps())
	}
	if out.Len() != len(want) {
		t.Errorf("table holds %d entries, want %d", out.Len(), len(want))
	}
	for k, c := range want {
		if got := out.Shard(be.Owner(k.V)).Get(k); got != c {
			t.Errorf("key %+v: %d in its owner's shard, want %d", k, got, c)
		}
	}
}

func checkLoads(t *testing.T, be engine.Backend, _ int) {
	be.Run(func(w int) { be.AddLoad(w, int64(w+1)) })
	loads := be.Loads()
	if len(loads) != be.Workers() {
		t.Errorf("len(Loads) = %d, Workers = %d", len(loads), be.Workers())
	}
	_, _, total := engine.LoadStats(loads)
	if want := int64(be.P() * (be.P() + 1) / 2); total != want {
		t.Errorf("Loads sums to %d, AddLoad charged %d", total, want)
	}
}
