package dist

import (
	"fmt"
	"runtime"

	"repro/internal/engine"
	"repro/internal/table"
)

// rank is the worker-side engine.Backend: the same global partition
// topology as the coordinator's Coord, but executing the contiguous block
// of partitions assigned to this rank. Every task appends to lanes of its
// own; at the superstep barrier the lanes of locally owned partitions are
// absorbed into their shards and the others are encoded, a chunk at a
// time, into one batch per destination rank. Its Messages are the entries
// it addressed to other ranks — unlike sim's, entries that stay on the
// rank are not messages.
type rank struct {
	topo
	engine.Counters
	rank int
	j    *wjob
	conc int

	pLo, pHi int // owned partition interval
}

func newRank(t topo, r int, j *wjob, conc int) *rank {
	if conc <= 0 {
		conc = runtime.GOMAXPROCS(0)
	}
	rk := &rank{topo: t, Counters: engine.NewCounters(t.P(), t.ranks), rank: r, j: j, conc: conc}
	rk.pLo, rk.pHi = rk.Band(r)
	return rk
}

// Name returns "dist".
func (r *rank) Name() string { return engine.DistName }

// Owned returns the vertex interval covered by this rank's partitions
// (empty when it owns none).
func (r *rank) Owned() (lo, hi uint32) {
	if r.pLo < r.pHi {
		lo, _ = r.Range(r.pLo)
		_, hi = r.Range(r.pHi - 1)
	}
	return lo, hi
}

// Run executes f over this rank's owned partitions on conc goroutines.
func (r *rank) Run(f func(w int)) { engine.RunEach(r.conc, r.pLo, r.pHi, f) }

// Step runs produce over owned partitions, each task appending to a stage
// of its own (so nothing is locked), then hands the stages over: lanes of
// owned partitions are absorbed into out, the rest go to their ranks at the
// barrier, and the other ranks' entries for this one are appended as they
// arrive. Whatever happens at the barrier, every staged chunk is back in
// the slab pool when Step returns.
func (r *rank) Step(out *engine.Sharded, produce func(w int, to *engine.Lanes)) {
	st := r.Begin()
	stages := make([]*engine.Sharded, r.pHi-r.pLo)
	r.Run(func(w int) {
		stages[w-r.pLo] = engine.NewSharded(r)
		produce(w, stages[w-r.pLo].Lanes(r.Blocks))
	})
	r.Run(func(dst int) {
		for _, stage := range stages {
			out.Shard(dst).Absorb(stage.Shard(dst))
		}
	})
	r.exchange(st, stages, out)
	for _, stage := range stages {
		stage.Release()
	}
}

// exchange sends one batch per other rank (empty included — the batch is
// the barrier token) holding the staged chunks of that rank's partitions,
// signals StepDone to the coordinator, then awaits the other ranks'
// batches for this superstep and appends their entries to out's shards,
// single-threaded. Any transport failure latches the job failure, which
// cancels the job context; the solver unwinds at its next poll and the
// error surfaces in the coordinator's Reduce.
func (r *rank) exchange(st int64, stages []*engine.Sharded, out *engine.Sharded) {
	for dr := 0; dr < r.ranks; dr++ {
		if dr == r.rank {
			continue
		}
		var bm batchMsg
		for dst, hi := r.Band(dr); dst < hi; dst++ {
			for _, stage := range stages {
				stage.Shard(dst).Chunks(func(ents []table.Ent) {
					bm.Lanes = append(bm.Lanes, wireLane{Dst: int32(dst), Ents: ents})
					r.Sent(len(ents))
				})
			}
		}
		payload, err := encodePayload(bm)
		if err != nil {
			r.j.fail(err)
			return
		}
		f := &frame{Kind: kStepBatch, Job: r.j.id, Step: st, Src: int32(r.rank), Dst: int32(dr), Payload: payload}
		if err := r.j.w.send(f); err != nil {
			r.j.fail(err)
			return
		}
	}
	done := &frame{Kind: kStepDone, Job: r.j.id, Step: st, Src: int32(r.rank)}
	if err := r.j.w.send(done); err != nil {
		r.j.fail(err)
		return
	}
	payloads, err := r.j.await(st)
	if err != nil {
		return // already latched
	}
	for _, p := range payloads {
		var bm batchMsg
		if err := decodePayload(p, &bm); err != nil {
			r.j.fail(fmt.Errorf("dist: bad step batch: %w", err))
			return
		}
		for _, l := range bm.Lanes {
			dst := int(l.Dst)
			if dst < r.pLo || dst >= r.pHi {
				r.j.fail(fmt.Errorf("dist: received entries for partition %d outside owned [%d,%d)", dst, r.pLo, r.pHi))
				return
			}
			sh := out.Shard(dst)
			for _, e := range l.Ents {
				sh.AddEnt(e)
			}
		}
	}
}

// Reduce is the identity worker-side: the global reduction happens on the
// coordinator, which gathers this rank's JobDone report.
func (r *rank) Reduce(local uint64) (uint64, error) { return local, nil }

// ReduceVec is the identity worker-side; the owned block is extracted
// from the full-length vector when building the JobDone report.
func (r *rank) ReduceVec(local []uint64) ([]uint64, error) { return local, nil }
