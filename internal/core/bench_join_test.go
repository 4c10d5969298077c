package core

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/decomp"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/sig"
	"repro/internal/table"
)

// Microbenchmarks for the solver's hot join loops over the flat
// signature-major layout. The workloads mirror a mid-size walk extension:
// a walk table of partial paths joined against the data graph's edges
// (edgeJoin) or a unary child table (nodeJoin).

// benchFixture holds one deterministic join workload.
type benchFixture struct {
	s   *solver
	cur *engine.Sharded // walk table
	ann *decomp.Block   // unary child annotation, s.tables[ann] populated
}

func newBenchFixture(b *testing.B) *benchFixture {
	b.Helper()
	rng := rand.New(rand.NewSource(31))
	const n = 4000
	g := gen.ErdosRenyi("bench", n, 6*n, rng)
	colors := make([]uint8, n)
	for i := range colors {
		colors[i] = uint8(rng.Intn(5))
	}
	be := engine.NewParallel(1, n)
	s := newSolver(context.Background(), g, colors, 5, be, DB)

	cur := engine.NewSharded(be)
	for i := 0; i < 20000; i++ {
		u := uint32(rng.Intn(n))
		v := uint32(rng.Intn(n))
		cur.Add(be.Owner(v), table.Binary(u, v, sig.Of(colors[u]).Add(colors[v])), 1)
	}

	ann := &decomp.Block{Kind: decomp.LeafEdge, Nodes: []int{0, 1}, Boundary: []int{0}}
	child := engine.NewSharded(be)
	for i := 0; i < 12000; i++ {
		u := uint32(rng.Intn(n))
		child.Add(be.Owner(u), table.Unary(u, sig.Of(colors[u]).Add(uint8(rng.Intn(5)))), 1)
	}
	s.tables[ann] = child
	return &benchFixture{s: s, cur: cur, ann: ann}
}

// BenchmarkNodeJoinInner times nodeJoin's inner loop: a scan of the dense
// walk slice against the cached CSR index of the child.
func BenchmarkNodeJoinInner(b *testing.B) {
	fx := newBenchFixture(b)
	// Warm the per-block CSR cache once; steady state reuses it, which is
	// the shipping shape (the DB solver joins the same annotation across
	// all L splits).
	fx.s.groupUnary(fx.ann)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fx.s.nodeJoin(fx.cur, pathStart{}, fx.ann, false)
	}
}

// BenchmarkEdgeJoinInner times edgeJoin's data-edge extension: a flat scan
// that packs each extended entry once and appends it to the lane of its new
// end vertex, and the sort and fold of the table that makes.
func BenchmarkEdgeJoinInner(b *testing.B) {
	fx := newBenchFixture(b)
	fx.cur.Len() // compact the walk table outside the timer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fx.s.edgeJoin(fx.cur, pathStart{}, pathStep{}, false).Release()
	}
}

// A warm lane step must not allocate per entry, nor per task: a lane takes
// its chunks from the slab pool and the table gives them back, so what a
// superstep allocates is its own bookkeeping, whatever it appends. An
// allocation creeping into At or AddEnt would be paid once per walk
// extension.
func TestLaneStepZeroAllocsPerEntry(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its Puts under the race detector")
	}
	const n, perTask = 8192, 1024
	be := engine.NewParallel(1, n)
	var got uint64
	step := func() {
		out := engine.NewSharded(be)
		be.Step(out, func(w int, to *engine.Lanes) {
			for i := uint32(0); i < perTask; i++ {
				v := (uint32(w)*perTask + i*2654435761) % n
				to.At(v).AddEnt(table.BinaryEnt(i, v, 1, 1))
			}
		})
		got = out.Total()
		out.Release()
	}
	step() // stock the slab pool
	entries := be.P() * perTask
	if allocs := testing.AllocsPerRun(10, step); allocs > 16 {
		t.Fatalf("a warm step allocated %.0f times to append %d entries; want a handful, none per entry", allocs, entries)
	}
	if got != uint64(entries) {
		t.Fatalf("the step delivered %d of %d entries", got, entries)
	}
}

// BenchmarkTrial times whole colourful counts on the benchmark's solver
// instances (DB, one colouring): the three paper-regime workloads on enron
// stand-ins at 1/scale, and the ms-scale solve the serving workloads make
// (scale 0: a 1000-vertex power-law graph) — on `parallel`, which the
// benchmark's workloads run, and on `sim`, the default backend, which none
// does: this is its standing timing. parallel's workers follow GOMAXPROCS,
// so `-cpu 1,2` is its scaling curve; sim simulates its default 4 ranks on
// as many goroutines.
func BenchmarkTrial(b *testing.B) {
	for _, c := range []struct {
		name, query string
		scale       int
	}{
		{"cycle10-3k", "brain3", 64},
		{"cycle5-90k", "glet2", 2},
		{"tree8-90k", "bintree8", 2},
		{"serve-1k", "cycle4", 0},
	} {
		g := gen.PowerLawGraph("load", 1000, 1.6, rand.New(rand.NewSource(1)))
		if c.scale > 0 {
			var ok bool
			if g, ok = gen.StandinByName("enron", c.scale, 1); !ok {
				b.Fatal("no enron stand-in")
			}
		}
		q := query.MustByName(c.query)
		colors := randColors(g.N(), q.K, rand.New(rand.NewSource(1)))
		for _, backend := range []string{engine.ParallelName, engine.SimName} {
			b.Run(c.name+"/"+backend, func(b *testing.B) {
				opts := Options{Algorithm: DB, Backend: backend}
				want := count(b, g, q, colors, opts) // also warms the plan cache and the heap
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if got := count(b, g, q, colors, opts); got != want {
						b.Fatalf("trial %d counted %d, the first counted %d", i, got, want)
					}
				}
			})
		}
	}
}

// Tables are built in slabs that dead tables gave back (table/slab.go), so
// once a first count has stocked the pool another one on the same
// instance allocates next to nothing: less than its mean table's bytes,
// where a solver that made every table from fresh memory would allocate
// all of them (and one that also grew them by doubling, as this one did,
// ten times that). The tables are counted where they are made — one per
// walk-step or leaf-projection span and one per cycle block under the root
// — not inferred from the superstep count, which sharing moves.
func TestRepeatedCountAllocatesLessThanOneTable(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its Puts under the race detector")
	}
	g, ok := gen.StandinByName("enron", 64, 1)
	if !ok {
		t.Fatal("no enron stand-in")
	}
	q := query.MustByName("brain2")
	colors := randColors(g.N(), q.K, rand.New(rand.NewSource(1)))
	opts := Options{Algorithm: DB, Backend: "parallel", Workers: 2}
	tr := obs.NewTrace(t.Name())
	want, _, err := CountColorfulContext(obs.WithTrace(context.Background(), tr), g, q, colors, opts)
	if err != nil {
		t.Fatal(err)
	}
	plan, _ := PickPlan(q)
	phases := tr.Snapshot().Phases
	built := uint64(phases[PhasePathJoin].Count + phases[PhaseLeafJoin].Count)
	for _, b := range plan.Blocks {
		if b.Kind == decomp.CycleBlock && b != plan.Root {
			built++
		}
	}
	// The pool is a sync.Pool: two collections in a row empty it. The best
	// of three counts is one no such pair fell into.
	const entBytes = 32
	var alloc, tables, meanTable uint64
	for try := 0; try < 3; try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, st, err := CountColorful(g, q, colors, opts)
		runtime.ReadMemStats(&after)
		if err != nil || got != want {
			t.Fatalf("count %d: %d, %v; the first counted %d", try+2, got, err, want)
		}
		tables = uint64(st.TableEntries) * entBytes
		meanTable = tables / built
		if a := after.TotalAlloc - before.TotalAlloc; try == 0 || a < alloc {
			alloc = a
		}
	}
	if alloc > meanTable {
		t.Errorf("a repeated count allocated %d KiB to build %d KiB of tables (mean table %d KiB)", alloc>>10, tables>>10, meanTable>>10)
	}
}
