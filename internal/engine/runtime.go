package engine

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// Blocks is the paper's 1D block distribution (§7): n vertices in parts
// contiguous partitions of ⌈n/parts⌉ vertices. It is the one place that
// decides how vertices map to partitions; every backend embeds it, and
// the processes of a dist run derive identical ownership from the same
// two integers, so no assignment table is ever stored or shipped.
type Blocks struct {
	parts, n, chunk int
	// recip is ⌊(2^64−1)/chunk⌋ + 1: the high word of recip·v is v/chunk for
	// every 32-bit v (the error recip·chunk − 2^64 is at most chunk, and
	// v·chunk < 2^64), so routing an entry costs a multiplication, not a
	// 64-bit division. chunk = 1 wraps it to 0: Owner branches on that.
	recip uint64
}

// NewBlocks returns the block map of n vertices over parts partitions
// (clamped to at least 1).
func NewBlocks(parts, n int) Blocks {
	if parts < 1 {
		parts = 1
	}
	chunk := (n + parts - 1) / parts
	if chunk < 1 {
		chunk = 1
	}
	return Blocks{parts: parts, n: n, chunk: chunk, recip: ^uint64(0)/uint64(chunk) + 1}
}

// P returns the partition count.
func (b Blocks) P() int { return b.parts }

// Owner returns the partition owning vertex v.
func (b Blocks) Owner(v uint32) int {
	w := int(v)
	if b.recip != 0 {
		hi, _ := bits.Mul64(b.recip, uint64(v))
		w = int(hi)
	}
	if w >= b.parts {
		w = b.parts - 1
	}
	return w
}

// Range returns the half-open vertex interval [lo, hi) owned by
// partition w.
func (b Blocks) Range(w int) (lo, hi uint32) {
	l := w * b.chunk
	h := l + b.chunk
	if w == b.parts-1 || h > b.n {
		h = b.n
	}
	if l > b.n {
		l = b.n
	}
	return uint32(l), uint32(h)
}

// Counters is what a superstep counts, embedded by every backend: the
// per-partition load counters of the paper's Figure 11 and the superstep,
// message and steal totals. Begin and Sent are the driving side, called by
// the embedding backend's own Step; the rest is the Backend interface's
// read side.
type Counters struct {
	workers int
	loads   []atomic.Int64 // per partition
	steps   atomic.Int64
	msgs    atomic.Int64
	steals  atomic.Int64
}

// NewCounters returns zeroed counters for parts partitions executed by
// workers workers (goroutines, simulated ranks or processes), each the
// home of one contiguous band of partitions (Band, WorkerOf).
func NewCounters(parts, workers int) Counters {
	return Counters{workers: workers, loads: make([]atomic.Int64, parts)}
}

// Workers returns the execution width the loads fold onto.
func (c *Counters) Workers() int { return c.workers }

// WorkerOf returns the home worker of partition w: ⌊w·workers/parts⌋.
// Loads charges w's load to it, parallel's workers drain their own band
// before stealing, and a dist rank executes exactly its band.
func (c *Counters) WorkerOf(w int) int { return w * c.workers / len(c.loads) }

// Band returns the half-open interval of partitions whose home worker is
// g — the inverse of WorkerOf for any partition count, multiple of the
// worker count or not: WorkerOf(w) = g iff ⌈g·parts/workers⌉ ≤ w <
// ⌈(g+1)·parts/workers⌉.
func (c *Counters) Band(g int) (lo, hi int) {
	parts := len(c.loads)
	return (g*parts + c.workers - 1) / c.workers, ((g+1)*parts + c.workers - 1) / c.workers
}

// AddLoad charges d projection-function operations to partition w.
func (c *Counters) AddLoad(w int, d int64) { c.loads[w].Add(d) }

// Loads returns a per-worker snapshot of the load counters.
func (c *Counters) Loads() []int64 {
	out := make([]int64, c.workers)
	for w := range c.loads {
		out[c.WorkerOf(w)] += c.loads[w].Load()
	}
	return out
}

// Steps returns the number of supersteps begun so far.
func (c *Counters) Steps() int64 { return c.steps.Load() }

// Messages returns the entries recorded by Sent.
func (c *Counters) Messages() int64 { return c.msgs.Load() }

// Steals returns the partition tasks run off their home worker.
func (c *Counters) Steals() int64 { return c.steals.Load() }

// Begin counts one superstep and returns its 1-based ordinal.
func (c *Counters) Begin() int64 { return c.steps.Add(1) }

// Sent counts n entries as exchanged messages.
func (c *Counters) Sent(n int) { c.msgs.Add(int64(n)) }

// RunEach calls f(w) exactly once for every partition w in [lo, hi), on
// up to workers goroutines pulling from one shared cursor, and waits. A
// single worker (or a single partition) runs inline.
func RunEach(workers, lo, hi int, f func(w int)) {
	if workers > hi-lo {
		workers = hi - lo
	}
	if workers <= 1 {
		for w := lo; w < hi; w++ {
			f(w)
		}
		return
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer wg.Done()
			for {
				w := lo + int(cursor.Add(1)) - 1
				if w >= hi {
					return
				}
				f(w)
			}
		}()
	}
	wg.Wait()
}

// LoadStats returns (max, avg, total) over per-worker loads.
func LoadStats(loads []int64) (max int64, avg float64, total int64) {
	for _, l := range loads {
		total += l
		if l > max {
			max = l
		}
	}
	if len(loads) > 0 {
		avg = float64(total) / float64(len(loads))
	}
	return max, avg, total
}
