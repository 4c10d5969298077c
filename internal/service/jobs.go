package service

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/coloring"
	"repro/internal/obs"
)

// ErrUnknownJob is returned when a request references a job id the
// manager does not hold (never submitted, or expired out of retention).
var ErrUnknownJob = errors.New("service: unknown job")

// clone deep-copies an estimate's slices: retained job results and their
// callers must not share backing arrays, or a caller mutating
// result.Counts would corrupt the value replayed to every later fetch.
func clone(e coloring.Estimate) coloring.Estimate {
	e.Counts = append([]uint64(nil), e.Counts...)
	if e.Stats.Loads != nil {
		e.Stats.Loads = append([]int64(nil), e.Stats.Loads...)
	}
	return e
}

// ErrJobNotDone is returned when a job's result is requested before the
// job reached a terminal state.
var ErrJobNotDone = errors.New("service: job not finished")

// ErrJobCanceled is returned when a canceled job's result is requested:
// the result is gone (410), which is distinct from the requester itself
// disconnecting (499) — a client fetching another party's canceled job
// completed its own request just fine.
var ErrJobCanceled = errors.New("service: job canceled")

// JobState is one job's lifecycle position.
type JobState string

const (
	// JobQueued: submitted, waiting for a worker.
	JobQueued JobState = "queued"
	// JobRunning: a worker is computing the estimate.
	JobRunning JobState = "running"
	// JobDone: finished with a result (possibly replayed from the cache).
	JobDone JobState = "done"
	// JobFailed: finished with an error (bad run, or deadline expired).
	JobFailed JobState = "failed"
	// JobCanceled: canceled by the client before finishing.
	JobCanceled JobState = "canceled"
)

// Terminal reports whether the state is final.
func (st JobState) Terminal() bool {
	return st == JobDone || st == JobFailed || st == JobCanceled
}

// JobProgress reports per-trial progress of a running estimation.
// TrialsTotal is the job's trial bound: the fixed trial count, or — for
// precision-targeted jobs — the adaptive MaxTrials worst case, which an
// early stop leaves unreached (TrialsDone < TrialsTotal on a done job
// means the precision target was met early). Mean and CV are the running
// statistics over the landed trials: the observed coefficient of
// variation is what the adaptive stopping rule drives below the declared
// target.
type JobProgress struct {
	TrialsDone  int     `json:"trialsDone"`
	TrialsTotal int     `json:"trialsTotal"`
	Mean        float64 `json:"mean,omitempty"`
	CV          float64 `json:"cv,omitempty"`
}

// JobInfo is the wire description of one job. The result itself is not
// embedded: fetch it once the state is terminal, so the result body stays
// byte-identical to the synchronous estimate body.
type JobInfo struct {
	ID    string   `json:"id"`
	State JobState `json:"state"`
	Graph string   `json:"graph"`
	Query string   `json:"query"`
	// Cached: the job was answered from the result cache at submit time.
	Cached bool `json:"cached"`
	// Coalesced: the job attached to an identical in-flight job instead of
	// computing independently (singleflight).
	Coalesced bool        `json:"coalesced"`
	Progress  JobProgress `json:"progress"`
	Error     string      `json:"error,omitempty"`
	CreatedAt time.Time   `json:"createdAt"`
	StartedAt *time.Time  `json:"startedAt,omitempty"`
	// FinishedAt and ElapsedMS are set once the state is terminal;
	// ExpiresAt is when the finished job falls out of retention.
	FinishedAt *time.Time `json:"finishedAt,omitempty"`
	ElapsedMS  float64    `json:"elapsedMs,omitempty"`
	ExpiresAt  *time.Time `json:"expiresAt,omitempty"`
}

// flight is one scheduled computation, shared by every job whose cache
// key matches (singleflight): the first cache-missing submission creates
// the flight, identical concurrent submissions attach to it, and the
// flight's context is canceled once every attached job has detached — so
// one client giving up never kills another client's computation, and a
// computation nobody waits for stops burning its worker.
type flight struct {
	key      Key
	cancel   context.CancelFunc
	jobs     []*job // attached waiters (guarded by jobManager.mu)
	running  bool
	finished bool
	// tr is the flight's span timeline, shared by every attached job: one
	// computation, one trace. Written once at flight creation.
	tr *obs.Trace
	// prog is the single source of per-trial progress: one snapshot per
	// landed trial, published atomically so a reader never pairs trial
	// N's count with trial N-1's statistics.
	prog atomic.Pointer[flightProgress]
}

// flightProgress is the running-statistics snapshot a flight publishes
// after every landed trial, for job polling and the SSE stream.
type flightProgress struct {
	done     int
	mean, cv float64
}

// progress returns the flight's latest snapshot (zero before any trial).
func (fl *flight) progress() flightProgress {
	if p := fl.prog.Load(); p != nil {
		return *p
	}
	return flightProgress{}
}

// job is one submitted estimation with its own id and lifecycle. Several
// jobs may share one flight; canceling a job only cancels the flight when
// no other job remains attached.
type job struct {
	id          string
	state       JobState
	graphName   string
	queryName   string
	cached      bool
	coalesced   bool
	trialsTotal int
	trialsDone  int // frozen at finalize; live jobs read the flight counter
	created     time.Time
	started     time.Time // zero until a worker picks the flight up
	finished    time.Time // zero until terminal
	expires     time.Time // terminal + TTL: when the job leaves retention
	est         coloring.Estimate
	err         error
	fl          *flight       // nil for cache-replayed jobs
	done        chan struct{} // closed exactly once, at the terminal transition
	timer       *time.Timer   // per-job deadline watchdog
	// tr is the job's span timeline (the flight's shared trace for
	// computed jobs, a minimal replay trace for cache hits). Written once
	// before the job is published under the manager mutex; every Trace
	// method is nil-safe, so pre-observability constructors need no guard.
	tr *obs.Trace
}

// JobsStats are the job manager's observability counters. LockWait
// measures contention on the manager's own mutex (job ids and lifecycle);
// the singleflight index has its own lock, reported separately.
type JobsStats struct {
	Submitted uint64 `json:"submitted"`
	Coalesced uint64 `json:"coalesced"`
	Canceled  uint64 `json:"canceled"`
	Expired   uint64 `json:"expired"`
	Active    int    `json:"active"`   // queued or running
	Retained  int    `json:"retained"` // all jobs still addressable by id
	LockWait
	Singleflight SingleflightStats `json:"singleflight"`
}

// SingleflightStats describe the in-flight index: how many keys are
// currently flying and how contended its lock is.
type SingleflightStats struct {
	Keys int `json:"keys"`
	LockWait
}

// jobManager tracks every job by id, the in-flight singleflight index,
// and TTL'd retention of finished jobs. Two locks, one per structure: mu
// guards the jobs, inflightMu the key → flight index. mu is crossed by
// every request, so its per-request critical sections (submission,
// cache-hit registration, result fetch) allocate nothing: ids come from
// an atomic counter and estimates are cloned outside — an allocation
// that hits a GC assist while holding a hot mutex convoys every
// concurrent request behind it. Flight completion (finishFlight) does
// still clone per attached job under the lock; it runs once per
// computed estimate, so its rate is bounded by the worker pool, not by
// request throughput.
//
// The lock order is strictly inflightMu before mu: any path that needs
// both takes inflightMu first. A flight found in the index under
// inflightMu therefore cannot finish (finishFlight removes it under the
// same lock before settling waiters), which is what makes
// attach-on-lookup race-free.
type jobManager struct {
	mu         waitMutex
	byID       map[string]*job
	order      []*job // submission order: oldest first, for sweeps and listings
	inflightMu waitMutex
	inflight   map[Key]*flight
	nextID     atomic.Uint64
	ttl        time.Duration
	maxJobs    int
	terminal   int       // finished jobs currently retained
	nextSweep  time.Time // earliest time the next time-based sweep runs
	sweepGap   time.Duration

	submitted uint64
	coalesced uint64
	canceled  uint64
	expired   uint64

	// onTerminal, when set, observes every terminal transition under the
	// manager mutex — the durability layer's append hook. It must not
	// block (the durable append path only enqueues). Installed once,
	// before the service accepts traffic.
	onTerminal func(*job)
}

func newJobManager(ttl time.Duration, maxJobs int) *jobManager {
	gap := ttl / 4
	if gap > time.Minute {
		gap = time.Minute
	}
	if gap <= 0 {
		gap = time.Minute
	}
	return &jobManager{
		byID:     make(map[string]*job),
		inflight: make(map[Key]*flight),
		ttl:      ttl,
		maxJobs:  maxJobs,
		sweepGap: gap,
	}
}

// assignID gives the job its id; ids are drawn outside the mutex so the
// formatting (an allocation) stays off the critical section.
func (m *jobManager) assignID(j *job) {
	j.id = fmt.Sprintf("j%d", m.nextID.Add(1))
}

// registerLocked adds a job (already carrying its id) to the index.
func (m *jobManager) registerLocked(j *job) {
	if j.id == "" {
		m.assignID(j)
	}
	m.byID[j.id] = j
	m.order = append(m.order, j)
	m.submitted++
	m.maybeSweepLocked(time.Now())
}

// maybeSweepLocked bounds sweep cost on the submission path: the full
// O(retained) pass runs only when the retention cap is exceeded or the
// time-based cadence (a fraction of the TTL) comes due — not on every
// submission under the global mutex.
func (m *jobManager) maybeSweepLocked(now time.Time) {
	if m.terminal <= m.maxJobs && now.Before(m.nextSweep) {
		return
	}
	m.sweepLocked(now)
	m.nextSweep = now.Add(m.sweepGap)
}

// attachLocked wires a job onto a flight as one more waiter. The flight's
// trace replaces the job's own: a coalesced job reports the timeline of
// the computation that actually serves it.
func (m *jobManager) attachLocked(fl *flight, j *job) {
	if len(fl.jobs) > 0 {
		j.coalesced = true
		m.coalesced++
	}
	if fl.tr != nil {
		j.tr = fl.tr
	}
	j.fl = fl
	fl.jobs = append(fl.jobs, j)
	if fl.running {
		j.state = JobRunning
		j.started = time.Now()
	}
}

// addCached registers a job that was answered from the result cache: it
// is born done. est must be the caller's own copy (the cache Get already
// cloned it); ownership passes to the job, so the hot cache-hit path
// pays no allocation under the manager's mutex.
func (m *jobManager) addCached(j *job, est coloring.Estimate) {
	if j.id == "" {
		m.assignID(j)
	}
	relabel(&est, j.queryName, j.graphName)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.registerLocked(j)
	j.cached = true
	m.finalizeOwnedLocked(j, est, nil, time.Now())
}

// flightStarted marks the flight (and every job still queued on it)
// running; called by the worker as it picks the flight up.
func (m *jobManager) flightStarted(fl *flight) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if fl.finished {
		return
	}
	fl.running = true
	now := time.Now()
	for _, j := range fl.jobs {
		if j.state == JobQueued {
			j.state = JobRunning
			j.started = now
		}
	}
}

// finishFlight settles a flight exactly once: the first caller (the
// worker's fn with the real outcome, or the scheduler's drop path with a
// cancellation) wins, every still-attached job is finalized with it, and
// the flight leaves the singleflight index. The index lock is taken
// before the manager mutex (the lock order), so the removal and the
// settling are atomic with respect to attach-on-lookup.
func (m *jobManager) finishFlight(fl *flight, est coloring.Estimate, err error) {
	m.inflightMu.Lock()
	m.mu.Lock()
	if fl.finished {
		m.mu.Unlock()
		m.inflightMu.Unlock()
		return
	}
	fl.finished = true
	if m.inflight[fl.key] == fl {
		delete(m.inflight, fl.key)
	}
	now := time.Now()
	for _, j := range fl.jobs {
		if !j.state.Terminal() {
			m.finalizeLocked(j, est, err, now)
		}
	}
	fl.jobs = nil
	m.mu.Unlock()
	m.inflightMu.Unlock()
	fl.cancel() // release the flight context's resources
}

// finalizeLocked moves a job to its terminal state and wakes waiters.
// Each successful job gets its own deep copy stamped with its own display
// names: coalesced jobs share one flight but not backing arrays, and a
// follower must not replay the owner's request names.
func (m *jobManager) finalizeLocked(j *job, est coloring.Estimate, err error, now time.Time) {
	if err == nil {
		est = clone(est)
		relabel(&est, j.queryName, j.graphName)
	}
	m.finalizeOwnedLocked(j, est, err, now)
}

// finalizeOwnedLocked is finalizeLocked for an estimate the job already
// owns outright (cloned and relabeled by the caller, outside the mutex).
func (m *jobManager) finalizeOwnedLocked(j *job, est coloring.Estimate, err error, now time.Time) {
	m.terminal++
	j.finished = now
	j.expires = now.Add(m.ttl)
	// Freeze progress: a canceled follower's snapshot must not keep
	// advancing with the shared flight it detached from.
	if j.fl != nil {
		j.trialsDone = j.fl.progress().done
	}
	if j.timer != nil {
		j.timer.Stop()
		j.timer = nil
	}
	switch {
	case err == nil:
		j.state = JobDone
		// The estimate's own trial count is the effective one: a
		// precision job that stopped early finishes with trialsDone below
		// the trialsTotal bound — that gap is the saved compute.
		if est.Trials > 0 {
			j.trialsDone = est.Trials
		} else {
			j.trialsDone = j.trialsTotal
		}
		j.est = est
	case errors.Is(err, context.Canceled):
		j.state = JobCanceled
		j.err = err
	default:
		j.state = JobFailed
		j.err = err
	}
	close(j.done)
	// The single terminal-transition point: every path — computed,
	// cache-replayed, canceled, failed, swept at shutdown — lands here
	// exactly once, so the persistence hook observes each job once.
	if m.onTerminal != nil {
		m.onTerminal(j)
	}
}

// detach finalizes one job early — client cancel (cause Canceled) or
// per-job deadline (cause DeadlineExceeded) — without touching its
// flight's other waiters. When the detaching job was the flight's last
// waiter, the flight's context is canceled so the computation stops
// mid-trial, and the flight leaves the singleflight index immediately so
// new arrivals start fresh instead of attaching to a dying run. Reports
// whether the job was still live.
func (m *jobManager) detach(j *job, cause error) bool {
	m.inflightMu.Lock()
	m.mu.Lock()
	if j.state.Terminal() {
		m.mu.Unlock()
		m.inflightMu.Unlock()
		return false
	}
	m.finalizeLocked(j, coloring.Estimate{}, cause, time.Now())
	if errors.Is(cause, context.Canceled) {
		m.canceled++
	}
	fl := j.fl
	var cancelFlight bool
	if fl != nil && !fl.finished {
		live := fl.jobs[:0]
		for _, w := range fl.jobs {
			if w != j {
				live = append(live, w)
			}
		}
		fl.jobs = live
		if len(live) == 0 {
			cancelFlight = true
			if m.inflight[fl.key] == fl {
				delete(m.inflight, fl.key)
			}
		}
	}
	m.mu.Unlock()
	m.inflightMu.Unlock()
	if cancelFlight {
		fl.cancel()
	}
	return true
}

// sweepLocked drops finished jobs past their TTL, then evicts the oldest
// finished jobs beyond the retention low-water mark. Active jobs are
// never dropped. Sweeping down to lowWater rather than exactly to the cap
// is what keeps the cap amortized: evicting to the cap itself would put a
// saturated manager one submission below the trigger again, degenerating
// into a full O(retained) scan under the global mutex on every request.
func (m *jobManager) sweepLocked(now time.Time) {
	// Only a sweep that found the cap exceeded drains to the low-water
	// mark; purely time-based (TTL) sweeps leave retention at the cap.
	low := m.maxJobs
	if m.terminal > m.maxJobs {
		low = m.lowWaterLocked()
	}
	keep := m.order[:0]
	for _, j := range m.order {
		if j.state.Terminal() && (!j.expires.After(now) || m.terminal > low) {
			m.terminal--
			delete(m.byID, j.id)
			m.expired++
			continue
		}
		keep = append(keep, j)
	}
	for i := len(keep); i < len(m.order); i++ {
		m.order[i] = nil
	}
	m.order = keep
}

// lowWaterLocked is the retention level a cap-triggered sweep drains to:
// 1/8 below MaxJobs, so successive sweeps are at least maxJobs/8
// submissions apart.
func (m *jobManager) lowWaterLocked() int {
	low := m.maxJobs - m.maxJobs/8
	if low < 1 {
		low = 1
	}
	return low
}

// get resolves a job by id. Only the looked-up job's own TTL is checked
// (an expired one is dropped and reported unknown); the full sweep runs
// on register and list, so poll-heavy traffic doesn't rescan the whole
// retention list under the lock on every lookup.
func (m *jobManager) get(id string) (*job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.byID[id]
	if !ok {
		return nil, false
	}
	if j.state.Terminal() && !j.expires.After(time.Now()) {
		m.terminal--
		delete(m.byID, id)
		for i, o := range m.order {
			if o == j {
				m.order = append(m.order[:i], m.order[i+1:]...)
				break
			}
		}
		m.expired++
		return nil, false
	}
	return j, true
}

// infoLocked snapshots one job for the wire.
func (m *jobManager) infoLocked(j *job) JobInfo {
	info := JobInfo{
		ID:        j.id,
		State:     j.state,
		Graph:     j.graphName,
		Query:     j.queryName,
		Cached:    j.cached,
		Coalesced: j.coalesced,
		CreatedAt: j.created,
		Progress:  JobProgress{TrialsTotal: j.trialsTotal},
	}
	if j.state.Terminal() {
		info.Progress.TrialsDone = j.trialsDone
		if j.state == JobDone {
			info.Progress.Mean = j.est.MeanColorful
			info.Progress.CV = j.est.CV
		}
	} else if j.fl != nil {
		p := j.fl.progress()
		info.Progress.TrialsDone = p.done
		info.Progress.Mean = p.mean
		info.Progress.CV = p.cv
	}
	if !j.started.IsZero() {
		t := j.started
		info.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		info.FinishedAt = &t
		info.ElapsedMS = float64(j.finished.Sub(j.created).Microseconds()) / 1000
		e := j.expires
		info.ExpiresAt = &e
	}
	if j.err != nil {
		info.Error = j.err.Error()
	}
	return info
}

func (m *jobManager) snapshot(j *job) JobInfo {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.infoLocked(j)
}

// list snapshots every retained job, newest first.
func (m *jobManager) list() []JobInfo {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sweepLocked(time.Now())
	out := make([]JobInfo, 0, len(m.order))
	for i := len(m.order) - 1; i >= 0; i-- {
		out = append(out, m.infoLocked(m.order[i]))
	}
	return out
}

// outcome converts a terminal job into the sync-path result. The estimate
// is cloned so callers can mutate their copy without corrupting the
// retained one; the clone happens after unlocking — a terminal job's
// estimate is never rewritten, so only the struct read needs the mutex.
func (m *jobManager) outcome(j *job) (EstimateResult, error) {
	m.mu.Lock()
	if !j.state.Terminal() {
		m.mu.Unlock()
		return EstimateResult{}, fmt.Errorf("%w (%s is %s)", ErrJobNotDone, j.id, j.state)
	}
	if j.state == JobCanceled {
		m.mu.Unlock()
		// Both sentinels are wrapped: errors.Is sees the cancellation
		// cause and the gone-result condition.
		return EstimateResult{}, fmt.Errorf("%w (%w)", ErrJobCanceled, j.err)
	}
	if j.err != nil {
		err := j.err
		m.mu.Unlock()
		return EstimateResult{}, err
	}
	res := EstimateResult{
		Estimate: j.est,
		Cached:   j.cached,
		Elapsed:  j.finished.Sub(j.created),
	}
	m.mu.Unlock()
	res.Estimate = clone(res.Estimate)
	return res, nil
}

// arm starts the job's deadline watchdog: when it fires before the job
// finishes, the job fails with DeadlineExceeded and detaches from its
// flight.
func (m *jobManager) arm(j *job, d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if j.state.Terminal() {
		return
	}
	j.timer = time.AfterFunc(d, func() { m.detach(j, context.DeadlineExceeded) })
}

// shutdown settles every live job with ErrClosed — a retryable 503 on
// the wire, not the 499 reserved for genuine client cancels — and then
// cancels their flights so a closing service doesn't wait minutes for
// detached long runs: the canceled solvers exit within one check
// interval, and the scheduler's drain finishes promptly.
func (m *jobManager) shutdown() {
	m.mu.Lock()
	now := time.Now()
	seen := make(map[*flight]bool)
	var cancels []context.CancelFunc
	for _, j := range m.order {
		if j.state.Terminal() {
			continue
		}
		if fl := j.fl; fl != nil && !fl.finished && !seen[fl] {
			seen[fl] = true
			cancels = append(cancels, fl.cancel)
		}
		m.finalizeLocked(j, coloring.Estimate{}, ErrClosed, now)
	}
	m.mu.Unlock()
	for _, cancel := range cancels {
		cancel()
	}
}

func (m *jobManager) stats() JobsStats {
	m.inflightMu.Lock()
	sf := SingleflightStats{Keys: len(m.inflight), LockWait: m.inflightMu.wait()}
	m.inflightMu.Unlock()
	m.mu.Lock()
	defer m.mu.Unlock()
	return JobsStats{
		Singleflight: sf,
		Submitted:    m.submitted,
		Coalesced:    m.coalesced,
		Canceled:     m.canceled,
		Expired:      m.expired,
		Active:       len(m.order) - m.terminal,
		Retained:     len(m.order),
		LockWait:     m.mu.wait(),
	}
}
