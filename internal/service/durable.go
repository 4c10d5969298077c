package service

import (
	"context"
	"errors"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/durable"
)

// DurabilityOptions configure the service's persistence layer: an
// append-only record log (internal/durable) that persists trial-cache
// runs and terminal jobs, replayed on boot before the service accepts
// traffic. With Dir empty — the default — the service is purely
// in-memory, exactly as before.
type DurabilityOptions struct {
	// Dir is the data directory; empty disables persistence.
	Dir string
	// Fsync is the log's sync policy: durable.FsyncAlways,
	// durable.FsyncInterval (default), or durable.FsyncNever.
	Fsync string
	// FsyncEvery is the interval policy's cadence (≤ 0 means 100ms).
	FsyncEvery time.Duration
	// CompactBytes triggers snapshot+truncate once the log exceeds it
	// (≤ 0 means 64 MiB).
	CompactBytes int64
}

// DurableStats is the persistence layer's /v1/stats section.
type DurableStats = durable.Stats

// setupDurable opens the durable log, installs its replayed state (cache
// runs and terminal jobs), and wires the append hooks. Called from Open
// before any request can arrive, so replay never races traffic.
func (s *Service) setupDurable() error {
	d := s.opts.Durability
	if d.Dir == "" {
		return nil
	}
	log, state, err := durable.Open(durable.Options{
		Dir:          d.Dir,
		Fsync:        d.Fsync,
		FsyncEvery:   d.FsyncEvery,
		CompactBytes: d.CompactBytes,
		Snapshot:     s.durableSnapshot,
		Logger:       s.logger,
	})
	if err != nil {
		return err
	}
	for _, r := range state.Runs {
		// Put clones, so the replayed record's slices stay the log's own.
		s.cache.Put(r.Key(), TrialRun{Counts: r.Counts, Stats: r.Stats})
	}
	now := time.Now()
	restored := 0
	for i := range state.Jobs {
		if s.jobs.restore(&state.Jobs[i], now) {
			restored++
		}
	}
	s.durable = log
	s.jobs.onTerminal = s.persistJob
	s.logger.Info("durable state replayed",
		"dir", d.Dir, "runs", len(state.Runs),
		"jobs", restored, "expiredJobs", len(state.Jobs)-restored,
		"truncatedBytes", state.TruncatedBytes)
	return nil
}

// persistRun appends one trial stream's accumulated state, mirroring the
// cache.Put that just stored it. The slices are the run's own
// (Session.Run returns fresh copies and the cache clones on Put), so the
// log's writer goroutine can encode them without a copy here.
func (s *Service) persistRun(tk TrialKey, run TrialRun) {
	if s.durable == nil {
		return
	}
	s.durable.AppendRun(durable.NewRunRecord(tk, run.Counts, run.Stats))
}

// persistJob is the job manager's onTerminal hook, invoked under its
// mutex at every terminal transition. It only builds a record and
// enqueues (the append path never blocks), so the global critical
// section grows by an allocation, not an I/O.
func (s *Service) persistJob(j *job) {
	if s.durable == nil || !persistable(j) {
		return
	}
	s.durable.AppendJob(jobRecord(j))
}

// persistable decides which terminal jobs earn a log record. Three classes
// do not:
//
//   - Jobs settled with ErrClosed are the shutdown sweep, not real
//     outcomes — a restart must not resurrect them as failed.
//   - Jobs refused with core.ErrCountOverflow computed nothing that a
//     restart could use: the count they asked for does not fit.
//   - Jobs answered purely from the result cache (born done, zero fresh
//     trials). Their estimate is reconstructible bit for bit from the
//     runs log, so persisting them would add no information — but it
//     would put a gob encode on the writer goroutine for every cache
//     hit, which at serving throughput (thousands of hits per second)
//     costs real cores. Skipping them is what keeps the durability tax
//     on the hot serving path inside the benchmark's 5% budget; the
//     price is that a pure-hit job's id does not outlive the process,
//     while any job that computed, failed, or was canceled keeps its id
//     across restarts.
func persistable(j *job) bool {
	return !errors.Is(j.err, ErrClosed) && !errors.Is(j.err, core.ErrCountOverflow) && !(j.state == JobDone && j.cached)
}

// durableSnapshot supplies the compaction state: every resident cache
// run plus every retained terminal job. Runs on the log's writer
// goroutine; the exports take the cache mutex and the jobs mutex
// briefly and hand back live slices, safe because stored runs and
// terminal estimates are replaced, never mutated in place.
func (s *Service) durableSnapshot() ([]durable.RunRecord, []durable.JobRecord) {
	return s.cache.Export(), s.jobs.exportTerminal()
}

// jobRecord converts a terminal job to its persisted form. The estimate
// is shared, not cloned: a terminal job's estimate is never rewritten
// (outcome clones for callers), so the log's writer can read it safely.
func jobRecord(j *job) durable.JobRecord {
	rec := durable.JobRecord{
		ID:          j.id,
		State:       string(j.state),
		Graph:       j.graphName,
		Query:       j.queryName,
		Cached:      j.cached,
		Coalesced:   j.coalesced,
		TrialsTotal: j.trialsTotal,
		TrialsDone:  j.trialsDone,
		Created:     j.created,
		Started:     j.started,
		Finished:    j.finished,
		Expires:     j.expires,
	}
	if j.err != nil {
		rec.Error = j.err.Error()
	}
	if j.state == JobDone {
		est := j.est
		rec.Estimate = &est
	}
	return rec
}

// restore registers one replayed terminal job: already done (or failed,
// or canceled), channel closed, addressable by its original id. TTL
// still applies — records past their expiry are dropped, and a replayed
// job expires exactly when the original would have. Returns false for
// expired, malformed, or duplicate records.
func (m *jobManager) restore(rec *durable.JobRecord, now time.Time) bool {
	if !rec.Expires.After(now) {
		return false
	}
	j := &job{
		id:          rec.ID,
		graphName:   rec.Graph,
		queryName:   rec.Query,
		cached:      rec.Cached,
		coalesced:   rec.Coalesced,
		trialsTotal: rec.TrialsTotal,
		trialsDone:  rec.TrialsDone,
		created:     rec.Created,
		started:     rec.Started,
		finished:    rec.Finished,
		expires:     rec.Expires,
		done:        make(chan struct{}),
	}
	switch JobState(rec.State) {
	case JobDone:
		if rec.Estimate == nil {
			return false
		}
		j.state = JobDone
		j.est = *rec.Estimate
	case JobCanceled:
		j.state = JobCanceled
		j.err = context.Canceled
	case JobFailed:
		j.state = JobFailed
		j.err = errors.New(rec.Error)
	default:
		return false
	}
	close(j.done)
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.byID[j.id]; dup {
		return false
	}
	m.byID[j.id] = j
	m.order = append(m.order, j)
	m.terminal++
	m.bumpID(j.id)
	return true
}

// bumpID advances the id counter past a replayed job's id, so fresh jobs
// in the restarted process never collide with persisted ones.
func (m *jobManager) bumpID(id string) {
	n, err := strconv.ParseUint(strings.TrimPrefix(id, "j"), 10, 64)
	if err != nil {
		return
	}
	for {
		cur := m.nextID.Load()
		if cur >= n || m.nextID.CompareAndSwap(cur, n) {
			return
		}
	}
}

// exportTerminal snapshots every retained terminal job for compaction,
// oldest first (the replay keeps first-per-id, so order only matters for
// determinism). Jobs are filtered the same way the append hook filters
// them, so a compacted snapshot never carries records the live log
// would not.
func (m *jobManager) exportTerminal() []durable.JobRecord {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]durable.JobRecord, 0, m.terminal)
	for _, j := range m.order {
		if !j.state.Terminal() || !persistable(j) {
			continue
		}
		out = append(out, jobRecord(j))
	}
	return out
}
