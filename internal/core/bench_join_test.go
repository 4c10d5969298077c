package core

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/decomp"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/graph"
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

	cur := engine.NewSharded(be) // a walk's first edges: two vertices of two colours each
	for i := 0; i < 20000; i++ {
		u, v := uint32(rng.Intn(n)), uint32(rng.Intn(n))
		for colors[v] == colors[u] {
			v = uint32(rng.Intn(n))
		}
		cur.Add(be.Owner(v), table.Binary(u, v, sig.Of(colors[u]).Add(colors[v])), 1)
	}

	ann := &decomp.Block{Kind: decomp.LeafEdge, Nodes: []int{0, 1}, Boundary: []int{0}}
	child := engine.NewMatrix(be, 5, colors, false) // a leaf block's output: boxed (u, 2-colour set) rows
	for i := 0; i < 12000; i++ {
		u := uint32(rng.Intn(n))
		other := (colors[u] + 1 + uint8(rng.Intn(4))) % 5
		child.Add(be.Owner(u), table.Unary(u, sig.Of(colors[u]).Add(other)), 1)
	}
	s.tables[ann] = child
	return &benchFixture{s: s, cur: cur, ann: ann}
}

// BenchmarkNodeJoinInner times nodeJoin in its two forms. "start": a walk
// with a start, read a vertex's run at a time, each (U, XY) group combined
// with the child's box row at its end vertex and written as entries.
// "free": a start-free walk's box rows combined in place with the child's
// into the rows of a box (table.Row). "fused": the form a tree query runs,
// a data edge from those walk rows fused with the node step (pullNode),
// each edge row pulled into scratch and combined at once.
func BenchmarkNodeJoinInner(b *testing.B) {
	b.Run("start", func(b *testing.B) {
		fx := newBenchFixture(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fx.s.nodeJoin(fx.cur, pathStart{}, fx.ann).Release()
		}
	})
	b.Run("free", func(b *testing.B) {
		s, cur, ann := newFreeJoinFixture()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.nodeJoin(cur, pathStart{free: true}, ann).Release()
		}
	})
	b.Run("fused", func(b *testing.B) {
		s, cur, ann := newFreeJoinFixture()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.extend(cur, pathStart{free: true}, pathStep{nodeAnn: ann}).Release()
		}
	})
}

// newFreeJoinFixture returns a solver at k = 8 on a 4000-vertex graph, a
// start-free walk's table of size-3 signatures and a leaf block's output of
// size-2 ones, both boxed: a handful of counts in each vertex's rows of 21
// and 7 cells, as bintree8 fills them on a sparse graph.
func newFreeJoinFixture() (*solver, *engine.Sharded, *decomp.Block) {
	rng := rand.New(rand.NewSource(31))
	const n, k = 4000, 8
	g := gen.ErdosRenyi("bench", n, 6*n, rng)
	colors := make([]uint8, n)
	for i := range colors {
		colors[i] = uint8(rng.Intn(k))
	}
	be := engine.NewParallel(1, n)
	s := newSolver(context.Background(), g, colors, k, be, DB)
	cur, child := engine.NewMatrix(be, k, colors, true), engine.NewMatrix(be, k, colors, false)
	for v := uint32(0); v < n; v++ {
		own := sig.OwnOf(k, 3).Sigs[colors[v]]
		for i := 0; i < 6; i++ {
			cur.Add(be.Owner(v), table.Binary(table.None, v, own[rng.Intn(len(own))]), uint64(1+rng.Intn(4)))
		}
		own = sig.OwnOf(k, 2).Sigs[colors[v]]
		for i := 0; i < 3; i++ {
			child.Add(be.Owner(v), table.Unary(v, own[rng.Intn(len(own))]), 1)
		}
	}
	ann := &decomp.Block{Kind: decomp.LeafEdge, Nodes: []int{0, 1}, Boundary: []int{0}}
	s.tables[ann] = child
	return s, cur, ann
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
		fx.s.edgeJoin(fx.cur, pathStart{}, pathStep{}).Release()
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
// as many goroutines. tree8-1m and cycle5-1m run bintree8 and glet2 on an
// R-MAT graph of 2^17 vertices and 2^20 edges (edge factor 8), a design
// probe of the regime no ledger workload reaches (one iteration of
// cycle5-1m on parallel at -cpu 2 takes 0.89–0.94 s, in a process that
// peaks at 56–63 MB resident; one of tree8-1m about 0.4 s and 0.1 GB;
// 2-vCPU container). Each instance's graph is built inside its own
// sub-benchmark, so a run that leaves a case out does not pay for it.
func BenchmarkTrial(b *testing.B) {
	for _, c := range []struct {
		name, query string
		graph       func() *graph.Graph
	}{
		{"cycle10-3k", "brain3", enron(64)},
		{"cycle5-90k", "glet2", enron(2)},
		{"tree8-90k", "bintree8", enron(2)},
		{"serve-1k", "cycle4", func() *graph.Graph { return gen.PowerLawGraph("load", 1000, 1.6, rand.New(rand.NewSource(1))) }},
		{"tree8-1m", "bintree8", rmat17},
		{"cycle5-1m", "glet2", rmat17},
	} {
		b.Run(c.name, func(b *testing.B) {
			g, q := c.graph(), query.MustByName(c.query)
			colors := randColors(g.N(), q.K, rand.New(rand.NewSource(1)))
			for _, backend := range []string{engine.ParallelName, engine.SimName} {
				b.Run(backend, func(b *testing.B) {
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
		})
	}
}

// enron returns a builder of the enron stand-in at 1/scale.
func enron(scale int) func() *graph.Graph {
	return func() *graph.Graph {
		g, ok := gen.StandinByName("enron", scale, 1)
		if !ok {
			panic("no enron stand-in")
		}
		return g
	}
}

// rmat17 builds the Graph500 R-MAT graph of 2^17 vertices, edge factor 8.
func rmat17() *graph.Graph {
	return gen.RMAT("rmat17", 17, 8, gen.Graph500, rand.New(rand.NewSource(1)))
}

// Tables are built in slabs that dead tables gave back (table/slab.go), so
// once a first count has stocked the pool another one on the same
// instance allocates next to nothing: less than its mean table's bytes,
// where a solver that made every table from fresh memory would allocate
// all of them (and one that also grew them by doubling, as this one did,
// ten times that). The tables are counted where they are made — one per
// walk-step or leaf-projection span and one per cycle block under the root
// — not inferred from the superstep count, which sharing moves. A tree
// query's tables are all read where they lie, so it counts no table
// entries; what it must not do is allocate per partition task — the row
// scratch a reader gathers a box row into is a pooled slab — so its
// repeated count makes fewer allocations than it runs tasks.
func TestRepeatedCountAllocatesLessThanOneTable(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its Puts under the race detector")
	}
	g, ok := gen.StandinByName("enron", 64, 1)
	if !ok {
		t.Fatal("no enron stand-in")
	}
	for _, qn := range []string{"brain2", "bintree8"} {
		q := query.MustByName(qn)
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
		tasks := built * uint64(engine.NewParallel(2, g.N()).P())
		// The pool is a sync.Pool: two collections in a row empty it. The best
		// of three counts is one no such pair fell into.
		const entBytes = 32
		var alloc, mallocs, tables, meanTable uint64
		for try := 0; try < 3; try++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			got, st, err := CountColorful(g, q, colors, opts)
			runtime.ReadMemStats(&after)
			if err != nil || got != want {
				t.Fatalf("%s, count %d: %d, %v; the first counted %d", qn, try+2, got, err, want)
			}
			tables = uint64(st.TableEntries) * entBytes
			meanTable = tables / built
			if a, m := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs; try == 0 || a < alloc {
				alloc, mallocs = a, m
			}
		}
		if tables > 0 && alloc > meanTable {
			t.Errorf("%s: a repeated count allocated %d KiB to build %d KiB of tables (mean table %d KiB)", qn, alloc>>10, tables>>10, meanTable>>10)
		}
		if tables == 0 && mallocs >= tasks {
			t.Errorf("%s: a repeated count made %d allocations in %d partition tasks", qn, mallocs, tasks)
		}
	}
}

// BenchmarkColourBuckets times what a per-start pass lays before its
// starts (walkKeys): every vertex's walk key and the colour buckets of the
// vertices of degree above k, on one goroutine (parallel, one worker),
// into warm pooled storage. The instances are BenchmarkTrial's graphs:
// cycle5-90k's enron stand-in at scale 2 with glet2's five colours, and
// serve-1k's 1000-vertex power-law graph with cycle4's four.
func BenchmarkColourBuckets(b *testing.B) {
	for _, c := range []struct {
		name  string
		k     int
		graph func() *graph.Graph
	}{
		{"cycle5-90k", 5, enron(2)},
		{"serve-1k", 4, func() *graph.Graph { return gen.PowerLawGraph("load", 1000, 1.6, rand.New(rand.NewSource(1))) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			g := c.graph()
			colors := randColors(g.N(), c.k, rand.New(rand.NewSource(1)))
			s := newSolver(context.Background(), g, colors, c.k, engine.NewParallel(1, g.N()), DB)
			lay := func() {
				keys, bk := s.walkKeys(true)
				keys.Return()
				colourBucketPool.Put(bk)
			}
			lay()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lay()
			}
		})
	}
}
