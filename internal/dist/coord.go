package dist

import (
	"fmt"
	"sync/atomic"

	"repro/internal/engine"
)

// Coord is the engine.Backend the coordinator process hands to its local
// solver: the engine's runtime with an empty band, a rank that owns zero
// partitions. The solver's Run calls are no-ops here (all partition work
// happens on the workers, whose replicated solvers make the same calls over
// their own partitions; local-only phases are observed at the next
// barrier), its Step calls run nothing and block at the global superstep
// barrier — so a trace span around them measures the real distributed
// phase; a failed job returns at once and the failure surfaces in Reduce —
// and Reduce gathers the per-rank answers into the global one. Its own
// counters stay zero until then; gather fills them from the rank reports,
// so Loads is per worker node and Messages is the number of entries that
// crossed a process boundary (each counted once, at its sender). That is
// not the sim backend's Messages, which also counts every entry a rank
// keeps.
type Coord struct {
	*engine.Runtime
	job     *cjob
	entries atomic.Int64 // table entries on the workers; set by gather
}

// newCoord returns the coordinator's backend for job j, over the topology
// its ranks derive from the same three integers.
func newCoord(ranks, parts, n int, j *cjob) *Coord {
	barrier := func(step int64, _ []*engine.Sharded, _ *engine.Sharded) { _ = j.barrier(step) }
	return &Coord{Runtime: engine.NewRuntime(engine.DistName, parts, ranks, n).Wired(0, 0, 1, barrier), job: j}
}

// Reduce gathers every rank's final report and returns the global count.
// This is where a lost worker, a remote error, or an SPMD divergence
// surfaces as the run's error.
func (d *Coord) Reduce(local uint64) (uint64, error) {
	dones, err := d.gather()
	if err != nil {
		return 0, err
	}
	total := local
	for _, m := range dones {
		total += m.Count
	}
	return total, nil
}

// ReduceVec assembles the global per-vertex vector from each rank's owned
// block.
func (d *Coord) ReduceVec(local []uint64) ([]uint64, error) {
	dones, err := d.gather()
	if err != nil {
		return nil, err
	}
	for rank, m := range dones {
		if int(m.OwnedHi) > len(local) || m.OwnedLo > m.OwnedHi ||
			int(m.OwnedHi-m.OwnedLo) != len(m.PerVertex) {
			return nil, fmt.Errorf("dist: worker %d reported per-vertex block [%d,%d) with %d entries",
				rank, m.OwnedLo, m.OwnedHi, len(m.PerVertex))
		}
		for i, v := range m.PerVertex {
			local[int(m.OwnedLo)+i] += v
		}
	}
	return local, nil
}

// gather waits for all rank reports, validates the SPMD invariant
// (identical superstep counts everywhere), takes the reported counters
// over as its own, and retires the job. Each rank's load is charged to
// the first partition of its block, which Loads folds back onto that
// rank.
func (d *Coord) gather() (map[int]*jobDoneMsg, error) {
	dones, err := d.job.gather()
	if err != nil {
		return nil, err
	}
	steps := d.Steps()
	for rank, m := range dones {
		if m.Steps != steps {
			err := fmt.Errorf("dist: worker %d ran %d supersteps, coordinator ran %d (SPMD divergence)", rank, m.Steps, steps)
			d.job.fail(err)
			return nil, err
		}
	}
	for rank, m := range dones {
		if lo, hi := d.Band(rank); lo < hi {
			d.AddLoad(lo, m.Load)
		}
		d.Sent(int(m.Msgs))
		d.entries.Add(m.Entries)
	}
	d.job.c.removeJob(d.job.id)
	return dones, nil
}

// TableEntriesHint reports the projection-table entries materialized on
// the workers (the coordinator's own shards stay empty); core adds it to
// its local count when snapshotting Stats.
func (d *Coord) TableEntriesHint() int64 { return d.entries.Load() }
