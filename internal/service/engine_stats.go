package service

import (
	"sync"

	"repro/internal/core"
	"repro/internal/dist"
)

// EngineBackendStats are one execution backend's counters accumulated
// across every estimate the service actually computed on it (cache
// replays don't re-run the engine and so don't count). Load is the
// paper's projection-function-operations metric; Messages is simulated
// messages — entries a pushed step appends plus rows a pulled step reads
// from another partition, two units (engine.Backend.Messages), always 0
// for parallel; Steals is stolen partition tasks (always 0 for sim).
type EngineBackendStats struct {
	Runs      uint64 `json:"runs" metric:"engine_runs_total" help:"Estimations computed, by execution backend."`
	Workers   int    `json:"workers" metric:"engine_workers" help:"Worker/rank count of the latest run, by execution backend."`
	TotalLoad int64  `json:"totalLoad" metric:"engine_load_total" help:"Projection-function operations executed, by execution backend."`
	MaxLoad   int64  `json:"maxLoad" metric:"engine_max_load" help:"Largest per-rank load of any run, by execution backend."`
	Messages  int64  `json:"messages" metric:"engine_messages_total" help:"Simulated messages exchanged, by execution backend."`
	Steals    int64  `json:"steals" metric:"engine_steals_total" help:"Partition tasks stolen, by execution backend."`
	// Supersteps counts executed engine supersteps — deterministic for a
	// given plan and identical across backends, so it is the natural unit
	// for the planned cost model (work per superstep, not per wall-second).
	Supersteps int64 `json:"supersteps" metric:"engine_supersteps_total" help:"Engine supersteps executed, by execution backend."`
}

// DistNodeStats is one distributed worker node's transport counters,
// cumulative since the process connected to it. Populated only when the
// server runs with a dist cluster (Options.DistStats).
type DistNodeStats = dist.NodeStats

// EngineStats is the /v1/stats "engine" section: which backend the
// service runs by default, at what width, and what every backend that has
// actually run has done so far.
type EngineStats struct {
	Backend  string                        `json:"backend"` // service default
	Workers  int                           `json:"workers" metric:"engine_default_workers" help:"Ranks/workers a request runs on when it names none."`
	Backends map[string]EngineBackendStats `json:"backends" metric:"{backend}"`
	// Dist lists the distributed backend's worker nodes, present only
	// when the process is wired to a dist cluster.
	Dist []DistNodeStats `json:"dist,omitempty"`
}

// engineTracker accumulates per-backend engine counters. It is touched
// once per computed estimate — a rate bounded by the worker pool, not by
// request throughput — so a single mutex is plenty.
type engineTracker struct {
	mu     sync.Mutex
	byName map[string]*EngineBackendStats
}

func newEngineTracker() *engineTracker {
	return &engineTracker{byName: make(map[string]*EngineBackendStats)}
}

// record folds one finished run's accumulated trial stats into the
// backend's counters.
func (t *engineTracker) record(st core.Stats) {
	t.mu.Lock()
	b := t.byName[st.Backend]
	if b == nil {
		b = &EngineBackendStats{}
		t.byName[st.Backend] = b
	}
	b.Runs++
	b.Workers = st.Workers
	b.TotalLoad += st.TotalLoad
	if st.MaxLoad > b.MaxLoad {
		b.MaxLoad = st.MaxLoad
	}
	b.Messages += st.Messages
	b.Steals += st.Steals
	b.Supersteps += st.Supersteps
	t.mu.Unlock()
}

// snapshot copies the per-backend counters for the stats endpoint.
func (t *engineTracker) snapshot() map[string]EngineBackendStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]EngineBackendStats, len(t.byName))
	for name, b := range t.byName {
		out[name] = *b
	}
	return out
}
