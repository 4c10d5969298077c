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
	n    uint32 // the job's vertices and colours, which bound what a batch may hold
	k    int
	j    *wjob
}

// newRank returns rank r of a job whose n vertices are cut into parts
// partitions (≤ 0: the grain rule's, as a job's are) dealt to ranks ranks,
// with k colours, running its tasks on conc goroutines (≤ 0: GOMAXPROCS).
func newRank(ranks, parts, n, k, r int, j *wjob, conc int) *rank {
	if conc <= 0 {
		conc = runtime.GOMAXPROCS(0)
	}
	rk := &rank{Runtime: engine.NewRuntime(engine.DistName, parts, ranks, n), rank: r, n: uint32(n), k: k, j: j}
	lo, hi := rk.Band(r)
	rk.Wired(lo, hi, conc, rk.exchange)
	return rk
}

// exchange sends one batch per other rank (empty included — the batch is
// the barrier token) holding the staged chunks of that rank's partitions,
// signals StepDone to the coordinator, then awaits the other ranks'
// batches for this superstep and appends their entries to out's shards,
// single-threaded, raising out's bound to the largest a sender declared. Whatever happens here, the runtime has every staged
// chunk back in the slab pool when its Step returns. Any transport failure
// latches the job failure, which cancels the job context; the solver
// unwinds at its next poll and the error surfaces in the coordinator's
// Reduce.
//
// With no stages the superstep is a Replicate: the batch to every other
// rank holds the shards of out in this rank's band, each lane addressed to
// the partition it comes from, and what arrives is appended to the shards
// of those partitions, outside the band.
func (r *rank) exchange(st int64, stages []*engine.Sharded, out *engine.Sharded) {
	replicate := stages == nil
	for dr := 0; dr < r.Workers(); dr++ {
		if dr == r.rank {
			continue
		}
		bm := batchMsg{Max: out.Max}
		lane := func(dst int, sh *table.Flat) {
			sh.Chunks(func(ents []table.Ent) {
				bm.Lanes = append(bm.Lanes, wireLane{Dst: int32(dst), Ents: ents})
				r.Sent(len(ents))
			})
		}
		if replicate {
			for src, hi := r.Band(r.rank); src < hi; src++ {
				lane(src, out.Shard(src))
			}
		}
		for dst, hi := r.Band(dr); dst < hi; dst++ {
			for _, stage := range stages {
				lane(dst, stage.Shard(dst))
			}
		}
		payload, err := encodePayload(bm)
		if err != nil {
			r.j.fail(err)
			return
		}
		f := &frame{Kind: kStepBatch, Job: r.j.id, Step: st, Src: int32(r.rank), Dst: int32(dr), Payload: payload}
		if err := r.j.w.conn.writeFrame(f); err != nil {
			r.j.fail(err)
			return
		}
	}
	done := &frame{Kind: kStepDone, Job: r.j.id, Step: st, Src: int32(r.rank)}
	if err := r.j.w.conn.writeFrame(done); err != nil {
		r.j.fail(err)
		return
	}
	payloads, err := r.j.await(st, r.Workers()-1)
	if err != nil {
		return // already latched
	}
	for _, p := range payloads {
		var bm batchMsg
		if err := decodePayload(p, &bm); err != nil {
			r.j.fail(fmt.Errorf("dist: bad step batch: %w", err))
			return
		}
		out.Max = max(out.Max, bm.Max)
		for _, l := range bm.Lanes {
			dst := int(l.Dst)
			if lo, hi := r.Band(r.rank); dst < 0 || dst >= r.P() || (dst < lo || dst >= hi) != replicate {
				r.j.fail(fmt.Errorf("dist: received entries for partition %d, owned [%d,%d), in a superstep that replicates: %v", dst, lo, hi, replicate))
				return
			}
			if err := r.check(dst, l.Ents); err != nil {
				r.j.fail(err)
				return
			}
			sh := out.Shard(dst)
			for _, e := range l.Ents {
				sh.AddEnt(e)
			}
		}
	}
}

// check refuses a lane of entries no rank of the job could have sent to
// partition dst: one homed outside dst's vertices (at V, or at U where V is
// None, as every producer routes), one naming a vertex ≥ N other than None,
// or one whose signature holds a colour ≥ k.
func (r *rank) check(dst int, ents []table.Ent) error {
	lo, hi := r.Range(dst)
	for _, e := range ents {
		home := e.V()
		if home == table.None {
			home = e.U()
		}
		if home < lo || home >= hi {
			return fmt.Errorf("dist: partition %d [%d,%d) received an entry homed at vertex %d", dst, lo, hi, home)
		}
		for _, v := range [...]uint32{e.U(), e.V(), e.X(), e.Y()} {
			if v >= r.n && v != table.None {
				return fmt.Errorf("dist: partition %d received an entry naming vertex %d of %d", dst, v, r.n)
			}
		}
		if uint64(e.S)>>r.k != 0 {
			return fmt.Errorf("dist: partition %d received signature %#x, which holds a colour ≥ k = %d", dst, e.S, r.k)
		}
	}
	return nil
}
