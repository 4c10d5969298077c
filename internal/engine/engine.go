// Package engine provides the pluggable execution runtimes behind the
// solver (the Backend interface), all built on one superstep core
// (runtime.go): the paper's 1D block distribution of vertices (Blocks)
// and the counters a superstep keeps (Counters — the Figure 11 load
// metric, superstep and message totals, per-partition delivery locks).
// A superstep is produce / barrier / owner-side merge (§7): partition
// tasks scan their table shards and emit keyed counts addressed to the
// partition owning each key's home vertex, and the owner accumulates
// them. The sim backend (Cluster) materializes every count as a message
// between P goroutine "ranks" and counts it; the parallel backend
// (Parallel) stages emitted runs per worker and hands the stages to the
// destination shards whole; internal/dist runs the same supersteps
// across worker processes. All produce bit-identical counts.
package engine

import (
	"sync"
	"unsafe"

	"repro/internal/table"
)

// Cluster is the sim backend: a fixed set of P simulated ranks (one
// goroutine each) owning an n-vertex space in contiguous blocks, with
// per-superstep message accounting faithful to the paper's metrics.
type Cluster struct {
	Blocks
	Counters
}

// NewCluster returns a cluster of p workers over n vertices. p is clamped
// to at least 1.
func NewCluster(p, n int) *Cluster {
	b := NewBlocks(p, n)
	return &Cluster{Blocks: b, Counters: NewCounters(b.parts, b.parts)}
}

// Name returns "sim".
func (c *Cluster) Name() string { return SimName }

// Owned returns the whole vertex space: a single-process backend executes
// every partition itself.
func (c *Cluster) Owned() (lo, hi uint32) { return 0, uint32(c.n) }

// Reduce returns local unchanged: one process holds every partial total.
func (c *Cluster) Reduce(local uint64) (uint64, error) { return local, nil }

// ReduceVec returns local unchanged.
func (c *Cluster) ReduceVec(local []uint64) ([]uint64, error) { return local, nil }

// Run executes f(w) for every rank w, concurrently (one goroutine per
// rank), and waits.
func (c *Cluster) Run(f func(w int)) { RunEach(c.parts, 0, c.parts, f) }

// Step runs one superstep whose deliveries accumulate into out.
func (c *Cluster) Step(out *Sharded, produce func(w int, emit Emit)) {
	c.Deliver(produce, out.Accumulate)
}

// Deliver runs one message-faithful superstep: produce runs on every rank
// and its emitted runs are copied into per-(source, destination) buffers;
// after the barrier every buffered count — self-sends included — is
// counted as a message, and consume runs on every rank with the buffers
// addressed to it, in source-rank order (so the step is deterministic).
func (c *Cluster) Deliver(produce func(w int, emit Emit), consume func(dst int, run []Msg)) {
	c.Begin()
	out := make([][][]Msg, c.parts)
	c.Run(func(w int) {
		bufs := make([][]Msg, c.parts)
		produce(w, func(dst int, run []Msg) {
			bufs[dst] = append(bufs[dst], run...)
		})
		out[w] = bufs
	})
	sent := 0
	for _, bufs := range out {
		for _, b := range bufs {
			sent += len(b)
		}
	}
	c.Sent(sent)
	c.Run(func(w int) {
		for src := 0; src < c.parts; src++ {
			if msgs := out[src][w]; len(msgs) > 0 {
				consume(w, msgs)
			}
		}
	})
}

// Msg is one keyed count in flight between workers.
type Msg struct {
	K table.Key
	C uint64
}

// Emit delivers a run of messages, all addressed to partition dst, from a
// superstep's produce phase. The run slice is only valid during the call
// — backends copy or merge its contents before returning — and must not
// be retained. Batching is the point: a backend pays its per-delivery
// overhead (a lane lookup, a buffer append, a wire frame) once per run
// instead of once per message.
type Emit = func(dst int, run []Msg)

// batchRun is the Batcher's flush threshold. Large enough to amortize the
// per-run delivery cost (a lane lookup, a buffer append, a wire frame),
// small enough to stay resident in L1 while a run is being built
// (256 × 32 B = 8 KiB).
const batchRun = 256

// runPool recycles the Batchers' run buffers: a buffer is held only
// between a task's first Emit and its final Flush, so a process needs as
// many as it has tasks running at once, not one per partition.
var runPool = sync.Pool{New: func() any { return new([batchRun]Msg) }}

// Batcher accumulates per-message emissions into destination runs for a
// backend's batched Emit. Producers that naturally generate messages one
// at a time wrap emit in a Batcher; messages to the same destination
// coalesce into one run, and a destination switch or a full buffer
// flushes. A Batcher is single-task state: declare one inside the
// produce(w, …) call, Bind it, and Flush before returning. The zero value
// is ready to Bind; it borrows its run buffer from a process-wide pool at
// the first Emit and returns it in Flush, so the steady state allocates
// nothing.
type Batcher struct {
	emit Emit
	dst  int
	buf  *[batchRun]Msg
	n    int
}

// Bind points the batcher at a superstep's emit and returns it. Any
// buffered messages from a previous binding must already be flushed.
func (b *Batcher) Bind(emit Emit) *Batcher {
	b.emit = emit
	return b
}

// Emit appends m to the current run, handing the run to the bound emit
// first if m's destination differs or the run is full.
func (b *Batcher) Emit(dst int, m Msg) {
	if dst != b.dst || b.n == batchRun {
		b.send()
		b.dst = dst
	}
	if b.buf == nil {
		b.buf = runPool.Get().(*[batchRun]Msg)
	}
	b.buf[b.n] = m
	b.n++
}

// send hands the buffered run to the bound emit.
func (b *Batcher) send() {
	if b.n > 0 {
		b.emit(b.dst, b.buf[:b.n])
		b.n = 0
	}
}

// Flush hands the buffered run to the bound emit and gives the run buffer
// back. Must be called before the enclosing produce task returns.
func (b *Batcher) Flush() {
	b.send()
	if b.buf != nil {
		runPool.Put(b.buf)
		b.buf = nil
	}
}

// Sharded is a projection table distributed over a backend: one flat
// signature-major shard (table.Flat) per partition. The solver routes
// each entry to the shard of the owner of its home vertex (the paper
// stores (u,v,α) at the owner of v).
type Sharded struct {
	shards []shard
}

// shard keeps each partition's table on a cache line of its own: the
// tables sit in one array, every Add writes its table's header, and
// neighbouring partitions run on different workers.
type shard struct {
	table.Flat
	_ [64 - unsafe.Sizeof(table.Flat{})%64]byte
}

// NewSharded returns an empty sharded table on be.
func NewSharded(be Backend) *Sharded { return newSharded(be.P()) }

func newSharded(parts int) *Sharded { return &Sharded{shards: make([]shard, parts)} }

// Shard returns worker w's shard.
func (s *Sharded) Shard(w int) *table.Flat { return &s.shards[w].Flat }

// Add accumulates directly into worker w's shard (only from w's goroutine,
// or sequentially).
func (s *Sharded) Add(w int, k table.Key, cnt uint64) { s.shards[w].Add(k, cnt) }

// Len returns the total number of distinct entries.
func (s *Sharded) Len() int {
	n := 0
	for i := range s.shards {
		n += s.shards[i].Len()
	}
	return n
}

// Total returns the sum of all counts across shards.
func (s *Sharded) Total() uint64 {
	var t uint64
	for i := range s.shards {
		t += s.shards[i].Total()
	}
	return t
}

// Iter visits every entry across shards (sequentially; unspecified order).
func (s *Sharded) Iter(f func(table.Key, uint64) bool) {
	for i := range s.shards {
		stop := false
		s.shards[i].Iter(func(k table.Key, c uint64) bool {
			if !f(k, c) {
				stop = true
				return false
			}
			return true
		})
		if stop {
			return
		}
	}
}

// Accumulate is a ready-made consume phase that merges messages into the
// destination shard.
func (s *Sharded) Accumulate(w int, msgs []Msg) {
	sh := &s.shards[w].Flat
	for _, m := range msgs {
		sh.Add(m.K, m.C)
	}
}

// Release returns every shard's storage to the table slab pool and leaves
// the table empty. Call it when the table is dead: no slice obtained from
// a shard's Ents may be read afterwards.
func (s *Sharded) Release() {
	for i := range s.shards {
		s.shards[i].Release()
	}
}
