package engine_test

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
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
// is not stuck keeps claiming tasks from both bands. sim's tasks go through
// the same stealing pool, but its workers are ranks, not goroutines: it
// finishes too, and reports no steal.
func TestParallelStealsImbalancedBands(t *testing.T) {
	for _, p := range []*engine.Runtime{engine.NewParallel(2, 2000), engine.NewCluster(2, 2000)} {
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
		if stole := p.Steals() != 0; stole != (p.Name() == engine.ParallelName) {
			t.Errorf("%s: Steals = %d with a blocked worker", p.Name(), p.Steals())
		}
	}
}

// A simulated rank is a band of the grain rule's partitions: sim cuts the
// partitions parallel cuts, at any rank count — more ranks than partitions
// included, the idle ones at no load — its per-rank Loads are the loads of
// Band(r)'s partitions, and every entry appended is a message, those of
// goroutine 0 and those a rank keeps included, where parallel counts none.
func TestSimRanksAreBands(t *testing.T) {
	for _, c := range []struct{ ranks, n int }{{1, 400}, {3, 400}, {4, 2000}, {8, 100}, {256, 100}, {300, 1000}} {
		sim, par := engine.NewCluster(c.ranks, c.n), engine.NewParallel(c.ranks, c.n)
		if sim.P() != par.P() || sim.Workers() != c.ranks {
			t.Fatalf("%d ranks over %d vertices: P = %d (parallel %d), Workers = %d", c.ranks, c.n, sim.P(), par.P(), sim.Workers())
		}
		for _, be := range []*engine.Runtime{sim, par} {
			out := engine.NewSharded(be)
			be.Step(out, func(w int, to *engine.Lanes) {
				be.AddLoad(w, int64(1+w*w))
				lo, hi := be.Range(w)
				for v := lo; v < hi; v++ {
					to.At(v).AddEnt(table.UnaryEnt(v, 1, 1))
					to.At(v * 31 % uint32(c.n)).AddEnt(table.UnaryEnt(v, 2, 1))
				}
			})
			if out.Len() != 2*c.n {
				t.Errorf("%s, %d ranks: the step delivered %d of %d entries", be.Name(), c.ranks, out.Len(), 2*c.n)
			}
			out.Release()
		}
		loads := sim.Loads()
		if len(loads) != c.ranks {
			t.Fatalf("%d ranks: len(Loads) = %d", c.ranks, len(loads))
		}
		for r, got := range loads {
			var want int64
			for lo, hi := sim.Band(r); lo < hi; lo++ {
				want += int64(1 + lo*lo)
			}
			if got != want {
				t.Errorf("%d ranks over %d vertices: rank %d's load = %d, its band's partitions were charged %d", c.ranks, c.n, r, got, want)
			}
		}
		if sim.Messages() != int64(2*c.n) || par.Messages() != 0 || sim.Steals() != 0 {
			t.Errorf("%d ranks: sim counted %d messages for %d entries and %d steals; parallel %d messages",
				c.ranks, sim.Messages(), 2*c.n, sim.Steals(), par.Messages())
		}
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

// The conformance table: every runtime takes the same cases. A rig is the
// backends of one run, one per process: a single one for sim and parallel,
// the two ranks of a solverless dist loopback session. width is simulated
// ranks for sim (300: more than the 25 partitions), worker goroutines for
// parallel, and partitions for dist, dealt to the two ranks in bands and
// run by three goroutines each: one partition leaves a rank with none, 24
// give every goroutine several to stage in one set of lanes.
type rig []engine.Backend

var runtimes = []struct {
	name   string
	widths []int
	mk     func(t *testing.T, width, n int) rig
}{
	{"sim", []int{1, 3, 4, 8, 300}, func(_ *testing.T, width, n int) rig { return rig{engine.NewCluster(width, n)} }},
	{"parallel", []int{1, 2, 3, 8}, func(_ *testing.T, width, n int) rig { return rig{engine.NewParallel(width, n)} }},
	{"dist rank", []int{1, 7, 24}, func(t *testing.T, width, n int) rig {
		bes, stop := dist.LoopbackRanks(2, width, n, 3)
		t.Cleanup(stop)
		return bes
	}},
}

var conformance = []struct {
	name  string
	check func(t *testing.T, r rig, n int)
}{
	{"Owner and Range tile [0,N) exactly", checkTiling},
	{"Deliver hands every count to its dst shard exactly once", checkLanes},
	{"Step accumulates every count into its dst shard, from lanes and from the Emit shim alike", checkStep},
	{"Step accumulates a vertex×signature matrix in boxes and in chunks alike", checkMatrix},
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

// step runs one superstep on every process of the rig at once, as the
// replicated solvers of a run do, each into a table of its own.
func (r rig) step(produce func(be engine.Backend, w int, to *engine.Lanes)) []*engine.Sharded {
	return r.stepInto(engine.NewSharded, produce)
}

// stepInto is step into tables made by mk.
func (r rig) stepInto(mk func(engine.Backend) *engine.Sharded, produce func(be engine.Backend, w int, to *engine.Lanes)) []*engine.Sharded {
	outs := make([]*engine.Sharded, len(r))
	var wg sync.WaitGroup
	for i, be := range r {
		outs[i] = mk(be)
		wg.Add(1)
		go func() {
			defer wg.Done()
			be.Step(outs[i], func(w int, to *engine.Lanes) { produce(be, w, to) })
		}()
	}
	wg.Wait()
	return outs
}

// home returns the index of the process that executes partition w.
func (r rig) home(w int) int {
	lo, hi := r[0].Range(w)
	for i, be := range r {
		if olo, ohi := be.Owned(); lo < hi && olo <= lo && hi <= ohi {
			return i
		}
	}
	return 0 // an empty partition: nothing is produced in it or addressed to it
}

func (r rig) sum(f func(be engine.Backend) int64) (total int64) {
	for _, be := range r {
		total += f(be)
	}
	return total
}

func checkTiling(t *testing.T, r rig, n int) {
	for _, be := range r {
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
}

// checkLanes has every vertex v append two entries, one homed at a near
// vertex (mostly in v's own partition: self-sends) and one scattered, so
// every destination hears from several producers at once; each entry names
// the partition that produced it. Every entry must turn up once, in the
// shard of its home vertex's partition, on the process that executes it.
func checkLanes(t *testing.T, r rig, n int) {
	targets := func(v uint32) [2]uint32 { return [2]uint32{(v + 7) % uint32(n), (v * 31) % uint32(n)} }
	steps := r[0].Steps()
	outs := r.step(func(be engine.Backend, w int, to *engine.Lanes) {
		lo, hi := be.Range(w)
		for v := lo; v < hi; v++ {
			for i, home := range targets(v) {
				to.At(home).AddEnt(table.Key{U: v, V: home, X: uint32(i), Y: uint32(w)}.Ent(uint64(v) + 1))
			}
		}
	})
	delivered, crossed := 0, int64(0)
	for i, be := range r {
		if be.Steps() != steps+1 {
			t.Errorf("Steps went %d → %d over one Step", steps, be.Steps())
		}
		for dst := 0; dst < be.P(); dst++ {
			ents := outs[i].Shard(dst).Ents()
			if len(ents) > 0 && r.home(dst) != i {
				t.Errorf("process %d holds %d entries of partition %d, which process %d executes", i, len(ents), dst, r.home(dst))
			}
			delivered += len(ents)
			for _, e := range ents {
				k := e.Key()
				if be.Owner(k.V) != dst || targets(k.U)[k.X] != k.V || e.C != uint64(k.U)+1 {
					t.Errorf("partition %d holds %+v ×%d", dst, k, e.C)
				}
				if r.home(int(k.Y)) != i {
					crossed++
				}
			}
		}
	}
	if delivered != 2*n {
		t.Errorf("%d distinct entries delivered, want %d", delivered, 2*n)
	}
	// What a message is differs by runtime: sim counts every appended
	// entry, self-sends included; parallel exchanges none; a dist rank
	// counts what leaves its process.
	want := map[string]int64{engine.SimName: int64(2 * n), engine.ParallelName: 0, engine.DistName: crossed}[r[0].Name()]
	if got := r.sum(engine.Backend.Messages); got != want {
		t.Errorf("Messages = %d after appending %d entries, want %d", got, 2*n, want)
	}
}

// checkStep appends a random multiset of binary keys, duplicates included,
// once straight to the lanes and once through the Emit/Batcher shim, and
// compares both tables against a builtin map.
func checkStep(t *testing.T, r rig, n int) {
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
	each := func(be engine.Backend, w int, f func(m engine.Msg)) {
		for i := w; i < len(batches); i += be.P() {
			for _, m := range batches[i] {
				f(m)
			}
		}
	}
	for form, produce := range map[string]func(be engine.Backend, w int, to *engine.Lanes){
		"lanes": func(be engine.Backend, w int, to *engine.Lanes) {
			each(be, w, func(m engine.Msg) { to.At(m.K.V).AddEnt(m.K.Ent(m.C)) })
		},
		"Emit shim": func(be engine.Backend, w int, emit engine.Emit) {
			b := (&engine.Batcher{}).Bind(emit)
			each(be, w, func(m engine.Msg) { b.Emit(be.Owner(m.K.V), m) })
			b.Flush()
		},
	} {
		steps := r[0].Steps()
		outs := r.step(produce)
		if r[0].Steps() != steps+1 {
			t.Errorf("%s: Steps went %d → %d over one Step", form, steps, r[0].Steps())
		}
		held := 0
		for _, out := range outs {
			held += out.Len()
		}
		if held != len(want) {
			t.Errorf("%s: tables hold %d entries, want %d", form, held, len(want))
		}
		for k, c := range want {
			dst := r[0].Owner(k.V)
			if got := outs[r.home(dst)].Shard(dst).Get(k); got != c {
				t.Errorf("%s: key %+v: %d in its owner's shard, want %d", form, k, got, c)
			}
		}
	}
}

// checkMatrix has every partition add (vertex, signature) counts for
// vertices all over the graph — every destination row hears from every
// producer, so on parallel several workers' boxes are added into one — into
// a table declared a matrix (the vertex in V, then in U) and into a plain
// one. With 252 signatures to a row a partition of up to 130 vertices
// keeps a box and a larger one chunks, which the widths here put on both
// sides. The two tables must hold the same entries, and sim must count
// every add as a message whichever form took it.
func checkMatrix(t *testing.T, r rig, n int) {
	const k, h, perTask = 10, 5, 300
	sigs := sig.RankingOf(k, h).Sigs
	for _, inV := range []bool{true, false} {
		produce := func(be engine.Backend, w int, to *engine.Lanes) {
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perTask; i++ {
				v, s, c := uint32(rng.Intn(n)), sigs[rng.Intn(40)], uint64(1+rng.Intn(9))
				e := table.UnaryEnt(v, s, c)
				if inV {
					e = table.BinaryEnt(table.None, v, s, c)
				}
				for dup := 0; dup < 3; dup++ {
					to.At(v).AddEnt(e)
				}
			}
		}
		msgs := r.sum(engine.Backend.Messages)
		boxed := r.stepInto(func(be engine.Backend) *engine.Sharded { return engine.NewMatrix(be, k, inV) }, produce)
		msgs = r.sum(engine.Backend.Messages) - msgs
		plain := r.step(produce)
		for i, be := range r {
			for dst := 0; dst < be.P(); dst++ {
				got, want := boxed[i].Shard(dst).Ents(), plain[i].Shard(dst).Ents()
				if !slices.Equal(got, want) {
					t.Errorf("inV=%v partition %d: the matrix holds %d entries, the plain table %d (or they differ)", inV, dst, len(got), len(want))
				}
			}
			boxed[i].Release()
			plain[i].Release()
		}
		if r[0].Name() == engine.SimName && msgs != int64(3*perTask*r[0].P()) {
			t.Errorf("inV=%v: sim counted %d messages for %d adds", inV, msgs, 3*perTask*r[0].P())
		}
	}
}

func checkLoads(t *testing.T, r rig, _ int) {
	for _, be := range r {
		be.Run(func(w int) { be.AddLoad(w, int64(w+1)) })
		if loads := be.Loads(); len(loads) != be.Workers() {
			t.Errorf("len(Loads) = %d, Workers = %d", len(loads), be.Workers())
		}
	}
	total := r.sum(func(be engine.Backend) int64 {
		_, _, total := engine.LoadStats(be.Loads())
		return total
	})
	if p := r[0].P(); total != int64(p*(p+1)/2) {
		t.Errorf("Loads sums to %d, AddLoad charged %d", total, p*(p+1)/2)
	}
}

// A pull step is one superstep: every partition's task runs once, writes its
// own shard of out and reads src's shards through the view it is handed;
// sim books the rows the tasks report reading from other partitions as
// messages and parallel books nothing. A runtime that executes a band of
// the partitions only — a dist rank or coordinator — cannot read the other
// shards, so it pulls nothing: no task runs and no superstep is counted,
// and its caller pushes instead.
func TestPullIsOneSuperstep(t *testing.T) {
	const n = 1000
	for _, be := range []*engine.Runtime{engine.NewCluster(3, n), engine.NewParallel(2, n)} {
		src := engine.NewSharded(be)
		for v := uint32(0); v < n; v++ {
			src.Add(be.Owner(v), table.Binary(table.None, v, 1), uint64(v))
		}
		src.Len() // compacted: the tasks' reads then write nothing
		out := engine.NewSharded(be)
		ran := make([]atomic.Int32, be.P())
		ok := be.Pull(out, src, func(w int, to *table.Flat, from *engine.Lanes) int {
			ran[w].Add(1)
			lo, hi := be.Range(w)
			remote := 0
			for v := lo; v < hi; v++ {
				u := (v + 1) % n // another partition's vertex, at a partition's end
				to.AddEnt(table.BinaryEnt(table.None, v, 1, from.At(u).Get(table.Binary(table.None, u, 1))))
				if u < lo || u >= hi {
					remote++
				}
			}
			return remote
		})
		if !ok {
			t.Fatalf("%s did not pull", be.Name())
		}
		for w := range ran {
			if ran[w].Load() != 1 {
				t.Fatalf("%s ran partition %d's task %d times", be.Name(), w, ran[w].Load())
			}
		}
		var want uint64
		for v := uint64(0); v < n; v++ {
			want += (v + 1) % n
		}
		if got := out.Total(); got != want {
			t.Fatalf("%s pulled %d, want %d", be.Name(), got, want)
		}
		msgs := int64(0)
		for w := 0; w < be.P() && be.Name() == engine.SimName; w++ {
			if lo, hi := be.Range(w); lo < hi {
				msgs++ // one row read across each vertex-holding partition's end
			}
		}
		if be.Steps() != 1 || be.Messages() != msgs {
			t.Fatalf("%s: %d supersteps, %d messages; want 1, %d", be.Name(), be.Steps(), be.Messages(), msgs)
		}
		src.Release()
		out.Release()
	}
	wired := engine.NewRuntime(engine.DistName, 0, 2, n).Wired(0, 1, 1, func(int64, []*engine.Sharded, *engine.Sharded) {
		t.Fatal("a pull went on the wire")
	})
	out := engine.NewSharded(wired)
	if wired.Pull(out, nil, func(int, *table.Flat, *engine.Lanes) int {
		t.Fatal("a rank ran a pull task")
		return 0
	}) || wired.Steps() != 0 {
		t.Fatalf("a wired runtime pulled: %d supersteps", wired.Steps())
	}
	out.Release()
}
