package dist

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/engine"
)

// rank is the worker-side engine.Backend: the same global partition
// topology as the coordinator's Coord, but executing the contiguous block
// of partitions assigned to this rank. Emits to locally owned partitions
// merge directly under per-partition locks; emits to remote partitions
// are buffered per destination rank and shipped as one batch each at the
// superstep barrier. Its Messages are the keyed counts it addressed to
// other ranks — unlike sim's, counts that stay on the rank are not
// messages.
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

// Step runs one superstep whose deliveries accumulate into out.
func (r *rank) Step(out *engine.Sharded, produce func(w int, emit engine.Emit)) {
	r.Deliver(produce, out.Accumulate)
}

// Deliver runs produce over owned partitions, exchanges remote batches at
// the barrier, and hands incoming counts to consume. Runs emitted to
// local destinations are consumed immediately under the destination
// partition's lock (the consume contract — never concurrent for one dst —
// holds because remote batches are applied strictly after all local
// production). Runs emitted to remote destinations are buffered into the
// per-destination-rank wire batch under one lock acquisition.
func (r *rank) Deliver(produce func(w int, emit engine.Emit), consume func(dst int, run []engine.Msg)) {
	st := r.Begin()
	local := r.Locked(consume)
	bufs := make([][]wireMsg, r.ranks)
	bufMu := make([]sync.Mutex, r.ranks)
	r.Run(func(w int) {
		produce(w, func(dst int, run []engine.Msg) {
			dr := r.WorkerOf(dst)
			if dr == r.rank {
				local(dst, run)
				return
			}
			r.Sent(len(run))
			bufMu[dr].Lock()
			for i := range run {
				bufs[dr] = append(bufs[dr], wireMsg{Dst: int32(dst), K: run[i].K, C: run[i].C})
			}
			bufMu[dr].Unlock()
		})
	})
	r.exchange(st, bufs, consume)
}

// exchange sends one batch per other rank (empty included — the batch is
// the barrier token), signals StepDone to the coordinator, then awaits
// the other ranks' batches for this superstep and applies them
// single-threaded, regrouping consecutive same-destination wire messages
// into runs over a reusable scratch buffer so the consumer sees the same
// batched shape local emits have. Any transport failure latches the job
// failure, which cancels the job context; the solver unwinds at its next
// poll and the error surfaces in the coordinator's Reduce.
func (r *rank) exchange(st int64, bufs [][]wireMsg, apply func(dst int, run []engine.Msg)) {
	for dr := 0; dr < r.ranks; dr++ {
		if dr == r.rank {
			continue
		}
		payload, err := encodePayload(batchMsg{Msgs: bufs[dr]})
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
	var scratch []engine.Msg
	for _, p := range payloads {
		var bm batchMsg
		if err := decodePayload(p, &bm); err != nil {
			r.j.fail(fmt.Errorf("dist: bad step batch: %w", err))
			return
		}
		msgs := bm.Msgs
		for i := 0; i < len(msgs); {
			dst := int(msgs[i].Dst)
			if dst < r.pLo || dst >= r.pHi {
				r.j.fail(fmt.Errorf("dist: received count for partition %d outside owned [%d,%d)", dst, r.pLo, r.pHi))
				return
			}
			scratch = scratch[:0]
			j := i
			for j < len(msgs) && int(msgs[j].Dst) == dst {
				scratch = append(scratch, engine.Msg{K: msgs[j].K, C: msgs[j].C})
				j++
			}
			apply(dst, scratch)
			i = j
		}
	}
}

// Reduce is the identity worker-side: the global reduction happens on the
// coordinator, which gathers this rank's JobDone report.
func (r *rank) Reduce(local uint64) (uint64, error) { return local, nil }

// ReduceVec is the identity worker-side; the owned block is extracted
// from the full-length vector when building the JobDone report.
func (r *rank) ReduceVec(local []uint64) ([]uint64, error) { return local, nil }
