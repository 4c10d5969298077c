package dist

import (
	"fmt"
	"runtime"

	"repro/internal/engine"
	"repro/internal/table"
)

// rank is the worker-side engine.Backend: the engine's runtime over the
// same global partition topology as the coordinator's Coord, executing the
// contiguous band of partitions assigned to this rank and wired to
// exchange. At the superstep barrier the staged lanes of the band's
// partitions have been absorbed into their shards; the others are encoded,
// a chunk at a time, into one batch per destination rank. Its Messages are
// the entries it addressed to other ranks — unlike sim's, entries that stay
// on the rank are not messages.
type rank struct {
	*engine.Runtime
	rank int
	j    *wjob
}

// newRank returns rank r of a job whose n vertices are cut into parts
// partitions dealt to ranks ranks, running its tasks on conc goroutines
// (≤ 0: GOMAXPROCS).
func newRank(ranks, parts, n, r int, j *wjob, conc int) *rank {
	if conc <= 0 {
		conc = runtime.GOMAXPROCS(0)
	}
	rk := &rank{Runtime: engine.NewRuntime(engine.DistName, parts, ranks, n), rank: r, j: j}
	lo, hi := rk.Band(r)
	rk.Wired(lo, hi, conc, rk.exchange)
	return rk
}

// exchange sends one batch per other rank (empty included — the batch is
// the barrier token) holding the staged chunks of that rank's partitions,
// signals StepDone to the coordinator, then awaits the other ranks'
// batches for this superstep and appends their entries to out's shards,
// single-threaded. Whatever happens here, the runtime has every staged
// chunk back in the slab pool when its Step returns. Any transport failure
// latches the job failure, which cancels the job context; the solver
// unwinds at its next poll and the error surfaces in the coordinator's
// Reduce.
func (r *rank) exchange(st int64, stages []*engine.Sharded, out *engine.Sharded) {
	for dr := 0; dr < r.Workers(); dr++ {
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
			if lo, hi := r.Band(r.rank); dst < lo || dst >= hi {
				r.j.fail(fmt.Errorf("dist: received entries for partition %d outside owned [%d,%d)", dst, lo, hi))
				return
			}
			sh := out.Shard(dst)
			for _, e := range l.Ents {
				sh.AddEnt(e)
			}
		}
	}
}
