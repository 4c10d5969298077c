package engine

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// Blocks is the paper's 1D block distribution (§7): n vertices in parts
// contiguous partitions of ⌈n/parts⌉ vertices. It is the one place that
// decides how vertices map to partitions; the runtime embeds it, and
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

// Counters is what a superstep counts, embedded by the runtime: the
// per-partition load counters of the paper's Figure 11 and the superstep,
// message and steal totals. Sent is the driving side (the runtime's Step, a
// dist rank's exchange); the rest is the Backend interface's read side.
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
func (c *Counters) Band(g int) (lo, hi int) { return band(g, len(c.loads), c.workers) }

// band returns the g-th of the workers contiguous bands that tile [0, parts).
func band(g, parts, workers int) (lo, hi int) {
	return (g*parts + workers - 1) / workers, ((g+1)*parts + workers - 1) / workers
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

// Sent counts n entries as exchanged messages.
func (c *Counters) Sent(n int) { c.msgs.Add(int64(n)) }

// Runtime is the superstep runtime, the one implementation of Backend: the
// block map, the counters, the band [lo, hi) of partitions this process
// executes and the goroutines that execute it, each the home of a sub-band
// it drains before stealing from the others'. sim, parallel, a dist rank
// and the dist coordinator are this type, and choose two things about the
// lanes a superstep's tasks append to: whether every staged entry counts as
// a message (counted, sim) and whether lanes leave the process (wire, dist).
type Runtime struct {
	Blocks
	Counters
	name    string
	lo, hi  int // the partitions this process executes
	conc    int // goroutines a phase runs on
	counted bool
	wire    func(step int64, stages []*Sharded, out *Sharded)
}

// NewRuntime returns a runtime called name over n vertices in parts
// partitions, dealt in bands to workers workers (at least 1) whose loads
// Loads reports. It executes every partition, on a goroutine per worker, and
// hands lanes over in memory — counted, if its name is SimName.
func NewRuntime(name string, parts, workers, n int) *Runtime {
	b, workers := NewBlocks(parts, n), max(workers, 1)
	return &Runtime{Blocks: b, Counters: NewCounters(b.parts, workers), name: name, hi: b.parts, conc: workers, counted: name == SimName}
}

// Wired makes r one process of a run of several, whose workers are
// processes: it executes partitions [lo, hi) only — none, for a coordinator
// — on conc goroutines, all staging in chunks, and every Step calls wire
// once its tasks are done and the staged lanes of [lo, hi) absorbed into
// out, with the superstep's ordinal. wire puts the stages' other lanes on
// the wire, holds the barrier and appends what arrives to out; the stages
// are released when it returns.
func (r *Runtime) Wired(lo, hi, conc int, wire func(step int64, stages []*Sharded, out *Sharded)) *Runtime {
	r.lo, r.hi, r.conc, r.wire = lo, hi, conc, wire
	return r
}

// Name is the backend's canonical name.
func (r *Runtime) Name() string { return r.name }

// Owned returns the vertex interval the band's partitions cover: all of
// [0, N) in a single process, empty for an empty band.
func (r *Runtime) Owned() (lo, hi uint32) {
	if r.lo < r.hi {
		lo, _ = r.Range(r.lo)
		_, hi = r.Range(r.hi - 1)
	}
	return lo, hi
}

// Reduce returns local unchanged: a process's own total is all it holds
// (the dist coordinator gathers the ranks').
func (r *Runtime) Reduce(local uint64) (uint64, error) { return local, nil }

// ReduceVec returns local unchanged.
func (r *Runtime) ReduceVec(local []uint64) ([]uint64, error) { return local, nil }

// paddedCursor keeps each band's task cursor on its own cache line.
type paddedCursor struct {
	atomic.Int64
	_ [56]byte
}

// Run executes f(w) exactly once for every partition w of the band. Which
// goroutine ran a partition never affects results — partition state stays
// exclusive to the single f(w) call — so stealing trades determinism of
// schedule, not of outcome, for balance.
func (r *Runtime) Run(f func(w int)) { r.run(func(_, w int) { f(w) }) }

// goroutines is how many goroutines a phase runs on: no more than it has
// partitions to give them.
func (r *Runtime) goroutines() int { return max(min(r.conc, r.hi-r.lo), 1) }

// run is Run for tasks that also want to know which goroutine g executes
// them: each drains its own sub-band of [lo, hi) through an atomic cursor,
// then steals from the others' in rotation. Only parallel counts the
// steals: sim's and dist's workers are ranks, and no rank runs another's
// partition. The calling goroutine is goroutine 0, so a single one starts
// none.
func (r *Runtime) run(f func(g, w int)) {
	conc, steals := r.goroutines(), !r.counted && r.wire == nil
	cursors := make([]paddedCursor, conc)
	work := func(g int) {
		for i := 0; i < conc; i++ {
			b := (g + i) % conc
			lo, hi := band(b, r.hi-r.lo, conc)
			for {
				w := r.lo + lo + int(cursors[b].Add(1)) - 1
				if w >= r.lo+hi {
					break
				}
				if b != g && steals {
					r.steals.Add(1)
				}
				f(g, w)
			}
		}
	}
	var wg sync.WaitGroup
	wg.Add(conc - 1)
	for g := 1; g < conc; g++ {
		go func(g int) {
			defer wg.Done()
			work(g)
		}(g)
	}
	work(0)
	wg.Wait()
}

// Step runs one superstep that builds out: every goroutine appends to lanes
// of its own — a stage, which it alone writes, whichever tasks it runs —
// and after the barrier each destination shard of the band absorbs the
// lanes addressed to it: chunks relinked as its pending region, a box added
// to its own cell by cell. Nothing is sorted until a shard is read. A stage
// is a table of out's form, and goroutine 0's is out itself, so what it
// appends is never moved at all — except that sim stages on every goroutine
// and counts each entry absorbed, a rank's to itself included and however
// many share a box's cell, as a message, and dist stages on every goroutine
// in chunks, the form it puts on the wire.
func (r *Runtime) Step(out *Sharded, produce func(w int, to *Lanes)) {
	step := r.steps.Add(1)
	stages := make([]*Sharded, r.goroutines())
	lanes := make([]*Lanes, len(stages))
	for g := range stages {
		switch {
		case r.wire != nil:
			stages[g] = newSharded(r.parts)
		case g > 0 || r.counted:
			stages[g] = out.stage()
		default:
			stages[g] = out
		}
		lanes[g] = &Lanes{Blocks: r.Blocks, shards: stages[g].shards}
	}
	if stages[0] == out {
		stages = stages[1:]
	}
	r.run(func(g, w int) { produce(w, lanes[g]) })
	r.run(func(_, dst int) {
		moved := 0
		for _, st := range stages {
			moved += out.Shard(dst).Absorb(st.Shard(dst))
		}
		if r.counted {
			r.Sent(moved)
		}
	})
	if r.wire != nil {
		r.wire(step, stages, out)
	}
	for _, st := range stages {
		st.Release()
	}
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
