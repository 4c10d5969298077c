package service

import (
	"sync/atomic"
	"testing"

	"repro/internal/core"
)

// Parallel microbenchmarks of the serving hot path's shared structures,
// isolated from HTTP and solver cost: what one Get or one Acquire/Release
// pair costs behind its single mutex as cores are added.
//
//	go test -run '^$' -bench 'CacheGet|RegistryAcquire' -cpu 1,2,4 ./internal/service/

func BenchmarkCacheGet(b *testing.B) {
	c := NewCache(4096, 0)
	const keys = 512
	for i := 0; i < keys; i++ {
		c.Put(TrialKey{Graph: uint64(i), Query: "k3:6:5:3", Seed: 1, Ranks: 4},
			TrialRun{Counts: []uint64{1, 2, 3}, Stats: make([]core.Stats, 3)})
	}
	var seq atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := seq.Add(1) * 7919
		for pb.Next() {
			i++
			k := TrialKey{Graph: i % keys, Query: "k3:6:5:3", Seed: 1, Ranks: 4}
			if _, ok := c.Get(k, 3); !ok {
				b.Error("warm key missing")
				return
			}
		}
	})
}

func BenchmarkRegistryAcquire(b *testing.B) {
	r := NewRegistry(0)
	const graphs = 8
	refs := make([]string, graphs)
	for i := 0; i < graphs; i++ {
		h, err := r.Add(GraphSpec{PowerLawN: 200, Alpha: 1.6, Seed: int64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		refs[i] = h.ID()
		h.Release()
	}
	var seq atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := seq.Add(1) * 7919
		for pb.Next() {
			i++
			h, ok := r.Acquire(refs[i%graphs])
			if !ok {
				b.Error("registered graph missing")
				return
			}
			h.Release()
		}
	})
}
