package core

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/decomp"
	"repro/internal/engine"
	"repro/internal/gen"
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
	s := newSolver(context.Background(), g, colors, be, DB)

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
		fx.s.nodeJoin(fx.cur, fx.ann)
	}
}

// BenchmarkEdgeJoinInner times edgeJoin's data-edge extension loop: a
// flat scan emitting batched runs.
func BenchmarkEdgeJoinInner(b *testing.B) {
	fx := newBenchFixture(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fx.s.edgeJoin(fx.cur, pathSpec{}, pathStep{})
	}
}

// The batched emission path must not allocate per message: the solver's
// per-partition Batcher reuses one run buffer, and the parallel backend
// merges runs in place. An allocation creeping into Emit would be paid
// once per walk extension — exactly what batching exists to avoid.
func TestBatcherZeroAllocsPerMessage(t *testing.T) {
	var got int
	sink := func(dst int, run []engine.Msg) { got += len(run) }
	var eb engine.Batcher
	eb.Bind(sink) // first Bind allocates the run buffer
	const n = 8192
	m := engine.Msg{K: table.Unary(7, 1), C: 1}
	allocs := testing.AllocsPerRun(10, func() {
		eb.Bind(sink)
		for i := 0; i < n; i++ {
			eb.Emit(i%3, m)
		}
		eb.Flush()
	})
	if allocs != 0 {
		t.Fatalf("Batcher allocated %.0f times for %d messages; want 0", allocs, n)
	}
	if got == 0 {
		t.Fatal("sink never ran")
	}
}
