package engine

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// oversubscription is how many ownership partitions a parallel backend
// creates per worker. Finer partitions serve two purposes: band stealing
// has spare tasks to rebalance when the vertex blocks carry skewed work,
// and the per-partition merge locks stripe more finely than the worker
// count, so concurrent emits rarely collide on one shard.
const oversubscription = 4

// Parallel is the real shared-memory backend: P = workers ×
// oversubscription vertex partitions executed by a pool of `workers`
// goroutines with band stealing, and superstep deliveries merged directly
// into the destination table shard under a per-partition lock — no
// message buffers, no simulated ranks. Counts are bit-identical to the
// sim backend because every delivery is a commutative accumulation.
type Parallel struct {
	Blocks
	Counters
}

// NewParallel returns a parallel backend of the given worker count over n
// vertices; workers ≤ 0 means runtime.GOMAXPROCS(0).
func NewParallel(workers, n int) *Parallel {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	parts := workers
	if workers > 1 {
		parts = workers * oversubscription
	}
	return &Parallel{Blocks: NewBlocks(parts, n), Counters: NewCounters(parts, workers)}
}

// Name returns "parallel".
func (p *Parallel) Name() string { return ParallelName }

// Owned returns the whole vertex space: a single-process backend executes
// every partition itself.
func (p *Parallel) Owned() (lo, hi uint32) { return 0, uint32(p.n) }

// Reduce returns local unchanged: one process holds every partial total.
func (p *Parallel) Reduce(local uint64) (uint64, error) { return local, nil }

// ReduceVec returns local unchanged.
func (p *Parallel) ReduceVec(local []uint64) ([]uint64, error) { return local, nil }

// band returns the half-open partition interval a worker drains first.
func (p *Parallel) band(g int) (lo, hi int) {
	return g * p.parts / p.workers, (g + 1) * p.parts / p.workers
}

// Run executes f(w) exactly once for every partition w: each worker
// drains its own band through an atomic cursor, then steals from the
// other bands in rotation until every partition has run. Which worker ran
// a partition never affects results — partition state stays exclusive to
// the single f(w) call — so stealing trades determinism of schedule, not
// of outcome, for balance.
func (p *Parallel) Run(f func(w int)) {
	if p.workers == 1 {
		for w := 0; w < p.parts; w++ {
			f(w)
		}
		return
	}
	cursors := make([]atomic.Int64, p.workers)
	var wg sync.WaitGroup
	wg.Add(p.workers)
	for g := 0; g < p.workers; g++ {
		go func(g int) {
			defer wg.Done()
			for i := 0; i < p.workers; i++ {
				b := (g + i) % p.workers
				lo, hi := p.band(b)
				for {
					w := lo + int(cursors[b].Add(1)) - 1
					if w >= hi {
						break
					}
					if b != g {
						p.steals.Add(1)
					}
					f(w)
				}
			}
		}(g)
	}
	wg.Wait()
}

// Step runs one superstep whose deliveries accumulate into out.
func (p *Parallel) Step(out *Sharded, produce func(w int, emit Emit)) {
	p.Deliver(produce, out.Accumulate)
}

// Deliver runs one superstep with direct, bufferless delivery: every
// emitted run is handed to consume under the destination partition's
// lock. Nothing is buffered, counted or re-delivered — this is the
// backend the sim's message machinery exists to simulate. A single worker
// runs partitions one after another (see Run), so it delivers without
// the locks.
func (p *Parallel) Deliver(produce func(w int, emit Emit), consume func(dst int, run []Msg)) {
	p.Begin()
	deliver := consume
	if p.workers > 1 {
		deliver = p.Locked(consume)
	}
	p.Run(func(w int) { produce(w, deliver) })
}
