package engine_test

import (
	"math/rand"
	"testing"

	"repro/internal/engine"
	"repro/internal/table"
)

// BenchmarkStep prices a superstep's delivery alone, per entry: every
// partition task appends its share of 2^20 packed entries homed at random
// vertices — at 512 partitions every append goes to another lane than the
// last — and the backend hands the lanes to their owners' shards. Nothing
// is read, so nothing is sorted. parallel runs its 512 partitions on
// GOMAXPROCS workers (-cpu); sim runs 4 ranks, what the solver's default
// and the benchmark's probe give it: a simulated rank stages a lane per
// destination rank, so 512 of them would hold 2^18 lanes of a chunk each.
func BenchmarkStep(b *testing.B) {
	const n, entries = 1 << 14, 1 << 20
	rng := rand.New(rand.NewSource(1))
	homes := make([]uint32, entries)
	for i := range homes {
		homes[i] = uint32(rng.Intn(n))
	}
	for _, be := range []engine.Backend{engine.NewCluster(4, n), engine.NewParallel(0, n)} {
		b.Run(be.Name(), func(b *testing.B) {
			per := entries / be.P()
			step := func() {
				out := engine.NewSharded(be)
				be.Step(out, func(w int, to *engine.Lanes) {
					for i, v := range homes[w*per : (w+1)*per] {
						to.At(v).AddEnt(table.BinaryEnt(uint32(i), v, 1, 1))
					}
				})
				out.Release()
			}
			step() // stock the slab pool
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*entries), "ns/entry")
		})
	}
}
