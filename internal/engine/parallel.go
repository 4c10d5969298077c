package engine

import "runtime"

// The grain rule: a single-process backend cuts the vertex space into
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

// NewCluster returns the sim backend: the paper's §7 runtime — p ranks
// (clamped to at least 1), a barrier, owner-side merge — simulated over n
// vertices, with message accounting faithful to the paper's metrics. It is
// the runtime parallel is, with ranks for workers and every staged entry
// counted: a simulated rank is a band of the grain rule's partitions.
func NewCluster(p, n int) *Runtime { return NewRuntime(SimName, partsFor(n), p, n) }

// NewParallel returns the parallel backend, the real shared-memory runtime,
// of the given worker count over n vertices; workers ≤ 0 means
// runtime.GOMAXPROCS(0).
func NewParallel(workers, n int) *Runtime {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return NewRuntime(ParallelName, partsFor(n), workers, n)
}
