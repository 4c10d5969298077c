package engine

import (
	"context"
	"fmt"
	"os"
	"sort"
	"sync"

	"repro/internal/decomp"
	"repro/internal/graph"
	"repro/internal/query"
	"repro/internal/table"
)

// Backend is the pluggable execution runtime behind the solver phases.
// The algorithm layer (internal/core) is written entirely against this
// interface: a backend owns the vertex space in P contiguous partitions,
// runs partition tasks, and moves the entries a superstep's tasks append
// to their destination lanes (Lanes) into the table shard of the partition
// that owns them. There is one implementation, Runtime: vertex-grained
// partitions dealt to workers in contiguous bands, a band's tasks run on a
// pool of goroutines that steal from one another, every goroutine appends
// to lanes of its own, and each destination shard takes the lanes addressed
// to it over after a barrier — no lock, nothing sorted until a shard is
// read. A worker's vertices are its band's. The three backends are that
// runtime, each with its own choice of what a worker is and what becomes of
// the lanes:
//
//   - "sim" (NewCluster): the paper's §7 distributed runtime simulated in
//     shared memory. The workers are P simulated ranks, each a band of the
//     partitions the grain rule cuts from the vertex count (partsFor), on a
//     goroutine each; every goroutine stages, and every staged entry is
//     counted as a message as its owner absorbs it. Message and load
//     counters are faithful to the paper's metrics (Figure 11).
//   - "parallel" (NewParallel): the real shared-memory runtime — the same
//     partitions on GOMAXPROCS-scaled worker goroutines; goroutine 0
//     appends to the output's own shards, nothing is counted.
//   - "dist" (internal/dist): real multi-process supersteps — the workers
//     are processes reached over a length-prefixed wire protocol, every
//     process runs the same solver (SPMD) on a runtime that executes its
//     rank's band alone, and the staged lanes of partitions another
//     process owns are encoded into one batch per destination process and
//     exchanged at the superstep barrier (Runtime.Wired). Registered only
//     when a worker topology is configured (dist.Enable).
//
// Counts are bit-identical across backends, partition counts, and worker
// counts: every table operation is a commutative uint64 accumulation, so
// delivery order and partition boundaries cannot change a result.
type Backend interface {
	// Name is the backend's canonical name ("sim", "parallel", "dist").
	Name() string
	// P is the number of vertex-ownership partitions (= table shards).
	// Run and Step index tasks and shards by partition.
	P() int
	// Workers is the number of workers the P partitions — as many as the
	// vertex count asks for, more or fewer than workers — are dealt to in
	// bands, and the length of Loads: simulated ranks for sim (a goroutine
	// each, as far as there are partitions to give them), worker goroutines
	// for parallel, worker processes for dist.
	Workers() int
	// Owner returns the partition owning vertex v (1D block distribution).
	Owner(v uint32) int
	// Range returns the half-open vertex interval [lo, hi) owned by
	// partition w.
	Range(w int) (lo, hi uint32)
	// Owned returns the half-open vertex interval whose partitions this
	// process executes. Single-process backends own the whole space
	// [0, N); a dist worker rank owns its contiguous block; the dist
	// coordinator owns nothing ([0, 0)). The solver uses it for the
	// degenerate phases that enumerate vertices directly instead of
	// scanning owned table shards.
	Owned() (lo, hi uint32)
	// Run executes f(w) exactly once for every locally owned partition w,
	// concurrently. f has exclusive use of partition w's state (table
	// shards, partial slots indexed by w) for the duration of its call.
	Run(f func(w int))
	// Step runs one superstep: produce runs for every owned partition and
	// appends packed entries to the lanes it is handed, each to the lane of
	// its home vertex (to.At(v).AddEnt(e)); when Step returns, every entry
	// appended by this process is pending in out's destination shard
	// (locally owned destinations) or has been handed to the owning process
	// (remote destinations), and every entry addressed to a locally owned
	// partition — by any process — is pending in its shard. Entries with
	// equal keys are summed when the shard is first read — or as they land,
	// where out is a vertex×signature matrix (NewMatrix): sim and parallel
	// then stage in boxes of out's shape and add them in cell by cell, dist
	// stages chunks, as it puts on the wire, and adds them entry by entry.
	// The lanes are only valid during the call and only from the task that
	// received them. A step whose tasks stop early (a canceled run) still moves
	// what was appended into out: no staged chunk outlives Step.
	Step(out *Sharded, produce func(w int, to *Lanes))
	// Pull runs a superstep that builds out in pull form: each task writes
	// its own partition's shard of out — or, with out nil, nothing: a root
	// cycle's join sums what it reads — reads src's shards at any vertex and
	// returns how many rows it read from other partitions' (Runtime.Pull).
	// It reports false, running nothing, where not every shard of src is in
	// this process (dist); the caller then runs the step's push form (Step).
	Pull(out, src *Sharded, task func(w int, to *table.Flat, from *Lanes) int) bool
	// Reduce combines per-process partial totals into the global total:
	// single-process backends return local unchanged; the dist
	// coordinator gathers every rank's contribution and sums. It is
	// called once, after the last superstep, and is the point where a
	// distributed run's failures (lost worker, canceled job) surface.
	Reduce(local uint64) (uint64, error)
	// ReduceVec is Reduce for per-vertex counts: entries are summed
	// elementwise across processes (each vertex is owned by exactly one
	// partition, so exactly one process contributes to each slot).
	ReduceVec(local []uint64) ([]uint64, error)
	// AddLoad charges d projection-function operations to partition w
	// (the paper's Figure 11 load metric).
	AddLoad(w int, d int64)
	// Loads returns a per-worker snapshot of the load counters (partition
	// loads folded onto the worker whose band owns them; per worker node
	// for dist). LoadStats summarizes it.
	Loads() []int64
	// Messages is the number of messages exchanged, and means something
	// different on each backend: sim counts every entry a pushed step
	// appends, including those a rank addresses to itself, and every row a
	// pulled step's partition reads from another; dist counts only
	// entries addressed to a partition of another process; parallel hands
	// lanes over whole and reports 0. The sim and dist numbers are not
	// comparable with each other. sim's adds two units: a pushed entry is
	// one count cell, a pulled row is a row of C(k−1, h−1) cells — or, in a
	// root cycle's pulled join, a vertex's run of the streamed walk's parent
	// — read once per arc that reads it, so a remote row read by several of
	// a partition's vertices counts once for each. A pulled root join books
	// those remote runs, not the entries its push form would append. The
	// number is neither the volume the push form moved nor the rows a
	// ghost-row exchange would ship.
	Messages() int64
	// Steals is the number of partition tasks executed by a worker other
	// than the partition's home worker; always 0 for sim and dist, whose
	// workers are ranks: the goroutines that run a rank's partitions steal
	// from one another all the same, and no rank runs another's.
	Steals() int64
	// Steps is the number of supersteps executed so far (Step calls and
	// Pull calls that ran). The count is deterministic for a given plan — it
	// depends only on the solver's phase structure, not on scheduling — and identical
	// across backends, which makes it the natural x-axis for per-superstep
	// telemetry (the paper's Figures 11–15) and a unit of work for the
	// ROADMAP's cost model.
	Steps() int64
}

// Canonical backend names.
const (
	SimName      = "sim"
	ParallelName = "parallel"
	DistName     = "dist"
)

// JobMode selects what a distributed job computes.
type JobMode int32

const (
	// ModeCount computes the scalar colorful-match count.
	ModeCount JobMode = iota
	// ModePerVertex computes per-vertex counts grouped by the anchor.
	ModePerVertex
)

// Job is the full context of one counting run, handed to the backend
// factory. Single-process backends only need N; the dist backend ships
// the rest to its worker processes so every rank can run the same solver
// (SPMD) over its owned partitions.
type Job struct {
	// N is the vertex-space size. Required; equals Graph.N() when Graph
	// is set.
	N int
	// Graph, Colors, Query, and Plan describe the run. Plan is the
	// concrete decomposition tree the local solver will traverse — the
	// dist backend serializes it structurally so remote ranks enumerate
	// the same splits.
	Graph  *graph.Graph
	Colors []uint8
	Query  *query.Graph
	Plan   *decomp.Tree
	// Algorithm is the cycle-solver choice (core.Algorithm's integer
	// value; engine cannot import core).
	Algorithm int
	// Mode and Anchor select scalar vs per-vertex counting.
	Mode   JobMode
	Anchor int
	// Ctx bounds the run. The dist coordinator watches it so a canceled
	// run tears its remote job down even if the local solver returns
	// without reaching Reduce.
	Ctx context.Context
}

// Factory builds a backend for one run. workers ≤ 0 means the backend's
// own default width (4 simulated ranks for sim, GOMAXPROCS workers for
// parallel); dist's width is its worker processes, whatever workers says.
type Factory func(workers int, job Job) (Backend, error)

var (
	regMu    sync.RWMutex
	registry = map[string]Factory{}
)

// Register installs (or replaces) the factory for a backend name. The
// built-in single-process backends register themselves at init; the dist
// backend registers when a worker topology is configured (dist.Enable),
// so "dist" is only a valid request on processes wired to a cluster.
func Register(name string, f Factory) {
	regMu.Lock()
	defer regMu.Unlock()
	registry[name] = f
}

// Names returns the registered backend names, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func lookup(name string) (Factory, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	f, ok := registry[name]
	return f, ok
}

func init() {
	Register(SimName, func(workers int, job Job) (Backend, error) {
		if workers <= 0 {
			workers = 4 // the historical core default rank count
		}
		return NewCluster(workers, job.N), nil
	})
	Register(ParallelName, func(workers int, job Job) (Backend, error) {
		return NewParallel(workers, job.N), nil
	})
}

// BackendEnv names the environment variable consulted when a backend name
// is left empty: it lets the whole test suite (and any embedding binary
// that doesn't thread the knob) run under a non-default backend, which is
// how CI exercises tier-1 tests under every runtime.
const BackendEnv = "SUBGRAPH_BACKEND"

// resolve maps a backend name to its canonical form and factory: an empty
// name falls back to $SUBGRAPH_BACKEND and then to "sim"; names without a
// registered factory are errors (so "dist" is rejected on processes with
// no worker topology configured). The env var is read per call — it
// resolves once per solver construction, not on a hot path, and caching
// it would make t.Setenv in tests silently ineffective.
func resolve(name string) (string, Factory, error) {
	if name == "" {
		name = os.Getenv(BackendEnv)
	}
	if name == "" {
		name = SimName
	}
	f, ok := lookup(name)
	if !ok {
		return "", nil, fmt.Errorf("engine: unknown backend %q (registered: %v)", name, Names())
	}
	return name, f, nil
}

// Canonical resolves a backend name to its canonical form (see resolve).
func Canonical(name string) (string, error) {
	name, _, err := resolve(name)
	return name, err
}

// New builds the named backend for one run. workers ≤ 0 picks the
// backend's default concurrency, decided by the backend's own factory.
func New(name string, workers int, job Job) (Backend, error) {
	_, f, err := resolve(name)
	if err != nil {
		return nil, err
	}
	return f(workers, job)
}
