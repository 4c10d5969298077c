package engine

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// The grain rule: a parallel backend cuts the vertex space into
// partitions of partVertices vertices, whatever the worker count. A
// partition is at once the unit of scheduling (one task per superstep
// phase), of delivery (one staging lane per worker) and of table building
// (one shard, one sort), so on a skewed graph the hub block is many tasks
// and many cache-resident sorts rather than one of each. minParts keeps a
// tiny graph at a handful of partitions, each costing a task per phase
// whether or not it holds anything; maxParts bounds the lanes a producer
// appends to in turn — 512 tails of one cache line each are what an L1
// holds — and past it partitions grow with the graph.
const (
	partVertices = 16
	minParts     = 8
	maxParts     = 512
)

func partsFor(n int) int { return min(max(n/partVertices, minParts), maxParts) }

// Parallel is the real shared-memory backend: partsFor(n) vertex
// partitions executed by a pool of worker goroutines with band stealing.
// A superstep has two phases with a barrier between them and no locks in
// either: producers append what they emit to their own worker's staging
// lane for the destination, then every destination takes over the lanes
// addressed to it. Counts are bit-identical to the sim backend because
// every delivery is a commutative accumulation.
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
	parts := partsFor(n)
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

// paddedCursor keeps each band's task cursor on its own cache line.
type paddedCursor struct {
	atomic.Int64
	_ [56]byte
}

// Run executes f(w) exactly once for every partition w: each worker
// drains its own band through an atomic cursor, then steals from the
// other bands in rotation until every partition has run. Which worker ran
// a partition never affects results — partition state stays exclusive to
// the single f(w) call — so stealing trades determinism of schedule, not
// of outcome, for balance.
func (p *Parallel) Run(f func(w int)) { p.run(func(_, w int) { f(w) }) }

// run is Run for tasks that also want to know which worker g executes
// them. The calling goroutine is worker 0, so a single worker starts no
// goroutine at all.
func (p *Parallel) run(f func(g, w int)) {
	cursors := make([]paddedCursor, p.workers)
	work := func(g int) {
		for i := 0; i < p.workers; i++ {
			b := (g + i) % p.workers
			lo, hi := p.Band(b)
			for {
				w := lo + int(cursors[b].Add(1)) - 1
				if w >= hi {
					break
				}
				if b != g {
					p.steals.Add(1)
				}
				f(g, w)
			}
		}
	}
	var wg sync.WaitGroup
	wg.Add(p.workers - 1)
	for g := 1; g < p.workers; g++ {
		go func(g int) {
			defer wg.Done()
			work(g)
		}(g)
	}
	work(0)
	wg.Wait()
}

// Step runs one superstep that builds out: every worker appends to lanes
// of its own — a table of out's form that it alone writes, whichever tasks
// it runs — and after the barrier each destination shard absorbs the lanes
// addressed to it: chunks relinked as its pending region, a box added to its
// own cell by cell. Worker 0's lanes are out's own shards, so what it
// appends is never moved at all. Nothing is sorted until a shard is read.
func (p *Parallel) Step(out *Sharded, produce func(w int, to *Lanes)) {
	p.Begin()
	stages := make([]*Sharded, p.workers)
	lanes := make([]*Lanes, p.workers)
	for g := range lanes {
		stages[g] = out
		if g > 0 {
			stages[g] = out.stage()
		}
		lanes[g] = stages[g].Lanes(p.Blocks)
	}
	p.run(func(g, w int) { produce(w, lanes[g]) })
	p.Run(func(dst int) {
		for _, st := range stages[1:] {
			out.Shard(dst).Absorb(st.Shard(dst))
		}
	})
	for _, st := range stages[1:] {
		st.Release()
	}
}
