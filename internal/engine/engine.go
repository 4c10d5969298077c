// Package engine provides the execution runtime behind the solver (the
// Backend interface; Runtime, in runtime.go, is its one implementation):
// the paper's 1D block distribution of vertices (Blocks), the counters a
// superstep keeps (Counters — the Figure 11 load metric, superstep,
// message and steal totals), a band of partitions to execute and a pool of
// goroutines that execute it, stealing across sub-bands. A superstep is
// produce / barrier / owner-side merge (§7): partition tasks scan their
// table shards and append packed entries (table.Ent) to the lane of the
// partition owning each entry's home vertex (Lanes), every goroutine to
// lanes of its own, and after the barrier the owner takes the lanes
// addressed to it over whole, chunk by chunk. An entry is written once, in
// its stored form, at its destination. The backends are that one runtime
// and choose two things about its lanes: sim (NewCluster) has ranks for
// workers and counts as messages every staged entry and every row a pulled
// step reads from another partition; parallel (NewParallel) counts nothing;
// internal/dist runs a band per process and puts the lanes of partitions
// another process owns on the wire. All
// produce bit-identical counts. A superstep whose every task writes only its
// own partition's shard, reading any shard of a finished table, runs in pull
// form instead (Runtime.Pull): no lanes at all, in a process that holds every
// partition.
package engine

import (
	"sync"
	"unsafe"

	"repro/internal/table"
)

// Lanes is what a superstep hands a producing task: one append-only lane
// per destination partition, written by that task's worker alone. The
// producer packs each entry itself and appends it to the lane of its home
// vertex — to.At(v).AddEnt(e), both inlined into the join loop — and the
// backend moves the lanes to their owners after the barrier. A *Lanes is
// only valid during the produce call that received it.
type Lanes struct {
	Blocks
	shards []shard
}

// At returns the lane of the partition owning vertex v.
func (l *Lanes) At(v uint32) *table.Flat { return &l.shards[l.Owner(v)].Flat }

// Emit, Msg and Batcher are the producer's side of a superstep as it was
// before lanes — keyed counts handed over in per-destination runs — kept
// as a shim over Lanes for benchmark/probes.go, which a PR that claims a
// gain may not edit: Emit is the lanes themselves, and a Batcher packs
// each message into its destination's lane. Nothing else may use them;
// they go when probeEngine moves onto Lanes (ROADMAP, ledger round 2).
type Emit = *Lanes

// Msg is one keyed count.
type Msg struct {
	K table.Key
	C uint64
}

// Batcher appends messages to the lanes it is bound to.
type Batcher struct{ to *Lanes }

// Bind points the batcher at a superstep's lanes and returns it.
func (b *Batcher) Bind(emit Emit) *Batcher {
	b.to = emit
	return b
}

// Emit appends m to the lane of partition dst.
func (b *Batcher) Emit(dst int, m Msg) { b.to.shards[dst].AddEnt(m.K.Ent(m.C)) }

// Flush does nothing: an appended message is already where it belongs.
func (b *Batcher) Flush() {}

// Sharded is a projection table distributed over a backend: one flat
// signature-major shard (table.Flat) per partition. The solver routes
// each entry to the shard of the owner of its home vertex (the paper
// stores (u,v,α) at the owner of v).
type Sharded struct {
	*shardArrays      // nil once released
	matrix       bool // NewMatrix made the table: the shards are declared
}

// shardArrays is a table's storage: its shards and, once it has been a
// matrix, their box headers.
type shardArrays struct {
	shards []shard
	boxes  []table.Box
}

// arraysPool recycles released tables' arrays — the arrays only: a *Sharded
// belongs to whoever made it, so a stale one can never reach another
// table's shards. A superstep makes a table and a stage per worker, 64
// bytes a shard and as much again for a matrix's headers: at 512
// partitions, the bulk of what a trial would otherwise allocate.
var arraysPool sync.Pool

// shard keeps each partition's table on a cache line of its own: the
// tables sit in one array, every Add writes its table's header, and
// neighbouring partitions run on different workers.
type shard struct {
	table.Flat
	_ [64 - unsafe.Sizeof(table.Flat{})%64]byte
}

// NewSharded returns an empty sharded table on be.
func NewSharded(be Backend) *Sharded { return newSharded(be.P()) }

func newSharded(parts int) *Sharded {
	a, _ := arraysPool.Get().(*shardArrays)
	if a == nil || len(a.shards) != parts {
		a = &shardArrays{shards: make([]shard, parts)}
	}
	return &Sharded{shardArrays: a}
}

// NewMatrix returns an empty sharded table on be whose every key will be
// one vertex and a signature over k colours — a start-free walk's table
// (inV: the vertex is the key's V, its U is None) or a unary projection
// (the vertex is U, V is None): the |V| × C(k,h) count matrix of the tree
// DP. The caller answers for that: an entry with a vertex in the other half
// or a recorded X or Y has no cell to land in, and only the first entry of
// each box is checked (table.Shape). Each shard is told its partition's
// rows and accumulates them in place where they fit a box; readers see the
// same sorted entries either way.
func NewMatrix(be Backend, k int, inV bool) *Sharded {
	shape := table.Shape{K: uint8(k)}
	if inV {
		shape.Shift = 32
	}
	return newSharded(be.P()).declare(func(w int) table.Shape {
		lo, hi := be.Range(w)
		shape.Lo, shape.N = lo, hi-lo
		return shape
	})
}

// declare tells every shard of s, which is empty, its shape.
func (s *Sharded) declare(shape func(w int) table.Shape) *Sharded {
	if s.boxes == nil {
		s.boxes = make([]table.Box, len(s.shards))
	}
	s.matrix = true
	for w := range s.shards {
		s.shards[w].SetBox(&s.boxes[w], shape(w))
	}
	return s
}

// stage returns an empty table of s's form for a producer to append to in
// s's stead: a box is absorbed into a box cell by cell.
func (s *Sharded) stage() *Sharded {
	st := newSharded(len(s.shards))
	if s.matrix {
		st.declare(func(w int) table.Shape { return s.boxes[w].Shape })
	}
	return st
}

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

// Release returns every shard's storage to the table slab pool and the
// shard arrays, emptied and undeclared, to the pool the next table's come
// from. Call it when the table is dead: no slice obtained from a shard's
// Ents may be used afterwards, and any use of s but another Release, which
// does nothing, panics on the missing arrays.
func (s *Sharded) Release() {
	a := s.shardArrays
	if a == nil {
		return
	}
	s.shardArrays, s.matrix = nil, false
	for i := range a.shards {
		a.shards[i].Release()
		a.shards[i].Flat = table.Flat{}
	}
	arraysPool.Put(a)
}
