package coloring

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/query"
)

// The estimator is one loop (§2): draw a coloring, count its colorful
// matches exactly, repeat, scale. Session is that loop. Its colorings come
// from one deterministic Stream, every trial it runs is run by ExtendTo,
// when it stops is decided by one rule — Adaptive, walked over the counts
// so far — and its counts become an Estimate in Assemble. A fixed-trial
// run is the rule with no Precision target, which fires at MaxTrials and
// nowhere earlier; a precision-targeted run can stop before it because the
// estimate is an average of i.i.d. per-coloring counts, so the trials a
// target relative error needs can be decided while running from the
// observed variance (§3; Malík et al. 2019 stop by sample-variance
// confidence intervals).

// Defaults of the adaptive stopping rule.
const (
	DefaultConfidence = 0.95
	DefaultMinTrials  = 3
	DefaultMaxTrials  = 1024
)

// TrialMeasurement is the name under which each trial's wall time is
// reported to a ctx-attached obs.Trace. It is an Observe (sink-only
// measurement), not a span: a trial envelops every solver-phase span
// recorded inside it, so adding it to the trace's phase totals would
// double-count against the job's wall time — but the per-backend trial
// latency histograms still want the distribution.
const TrialMeasurement = "trial"

// Precision declares a target accuracy: the estimate's two-sided
// Confidence-level confidence interval (normal approximation over the
// per-trial counts) should have half-width at most RelErr of the mean.
// The zero value (RelErr 0) means "no target": fixed-trial estimation.
type Precision struct {
	// RelErr is the target relative error (0.1 = ±10%); must be > 0 for
	// the target to be enabled.
	RelErr float64
	// Confidence is the two-sided confidence level in (0,1); ≤ 0 means
	// DefaultConfidence.
	Confidence float64
}

// Enabled reports whether a target is declared.
func (p Precision) Enabled() bool { return p.RelErr > 0 }

// z returns the two-sided normal quantile of the confidence level: the
// half-width of the CI is z·s/√T.
func (p Precision) z() float64 {
	c := p.Confidence
	if c <= 0 {
		c = DefaultConfidence
	}
	if c >= 1 {
		return math.Inf(1)
	}
	return math.Sqrt2 * math.Erfinv(c)
}

// Adaptive is the stopping rule of every run: it fires at the first trial
// count in [MinTrials, MaxTrials] whose observed CI meets the Precision
// target, and at MaxTrials regardless. With no target declared (Precision
// not Enabled) it fires at MaxTrials and nowhere earlier — a fixed-trial
// run.
type Adaptive struct {
	Precision
	// MinTrials is the earliest trial the rule may fire at (≤ 0 means
	// DefaultMinTrials, clamped to ≥ 2 — below two trials there is no
	// variance estimate).
	MinTrials int
	// MaxTrials caps the run (≤ 0 means DefaultMaxTrials, or DefaultTrials
	// with no target declared).
	MaxTrials int
}

func (a Adaptive) withDefaults() Adaptive {
	if a.MinTrials <= 0 {
		a.MinTrials = DefaultMinTrials
	}
	if a.MinTrials < 2 {
		a.MinTrials = 2
	}
	if a.MaxTrials <= 0 {
		a.MaxTrials = DefaultMaxTrials
		if !a.Enabled() {
			a.MaxTrials = DefaultTrials
		}
	}
	if a.MinTrials > a.MaxTrials {
		a.MinTrials = a.MaxTrials
	}
	return a
}

// StopAt applies the stopping rule to a prefix of per-trial colorful
// counts: it returns the first trial count t in [MinTrials, min(len,
// MaxTrials)] at which z·s/√t ≤ RelErr·mean (a zero-variance prefix —
// including the all-zero one — always qualifies; with no target declared
// nothing does), or MaxTrials when the prefix already spans the cap. It is
// a pure function of the count sequence, which is what makes runs
// replayable: walking the rule over cached trials stops at exactly the
// trial the original run stopped at.
func (a Adaptive) StopAt(counts []uint64) (int, bool) {
	a = a.withDefaults()
	z := a.z()
	n := min(len(counts), a.MaxTrials)
	if !a.Enabled() {
		n = 0 // no target to meet: only the cap below fires
	}
	var mean, m2 float64 // Welford running mean and sum of squared deviations
	for t := 1; t <= n; t++ {
		x := float64(counts[t-1])
		d := x - mean
		mean += d / float64(t)
		m2 += d * (x - mean)
		if t < a.MinTrials {
			continue
		}
		variance := m2 / float64(t-1)
		if z*math.Sqrt(variance/float64(t)) <= a.RelErr*mean {
			return t, true
		}
	}
	if len(counts) >= a.MaxTrials {
		return a.MaxTrials, true
	}
	return 0, false
}

// RelCI returns the estimate's observed relative confidence-interval
// half-width at the given confidence level (≤ 0 means DefaultConfidence):
// z·s/(√T·mean), the quantity the adaptive stopping rule drives below
// RelErr. A single-trial or zero-mean-with-spread estimate has no finite
// CI and reports +Inf; an exactly-zero estimate (all counts zero) has a
// zero-width interval.
func (e Estimate) RelCI(confidence float64) float64 {
	if e.MeanColorful == 0 {
		if e.Trials > 1 && e.VarColorful == 0 {
			return 0
		}
		return math.Inf(1)
	}
	if e.Trials < 2 {
		return math.Inf(1)
	}
	z := Precision{Confidence: confidence}.z()
	return z * math.Sqrt(e.VarColorful/float64(e.Trials)) / e.MeanColorful
}

// Stream is the one source of colorings: a deterministic sequence drawn
// one at a time, a function of (n, k, seed) alone, so every run over the
// same seed sees identical trials.
type Stream struct {
	n, k  int
	rng   *rand.Rand
	drawn int
}

// NewStream starts the coloring stream for an n-vertex graph and a k-node
// query at the given seed.
func NewStream(n, k int, seed int64) *Stream {
	return &Stream{n: n, k: k, rng: rand.New(rand.NewSource(seed))}
}

// Next draws the stream's next coloring.
func (s *Stream) Next() []uint8 {
	s.drawn++
	return Random(s.n, s.k, s.rng)
}

// Skip advances the stream past the next trials colorings without
// materializing them (the RNG advances exactly as Next would).
func (s *Stream) Skip(trials int) {
	for i := 0; i < trials; i++ {
		s.drawn++
		for j := 0; j < s.n; j++ {
			s.rng.Intn(s.k)
		}
	}
}

// Drawn reports how many colorings have been drawn or skipped.
func (s *Stream) Drawn() int { return s.drawn }

// Assemble builds the Estimate over exactly these per-trial counts and
// engine stats: counts are copied, stats accumulated in trial order, and
// the §2 scaling applied. It is the single place counts become an
// Estimate — a Session's snapshots and the service's cache replays both
// come through it — so a prefix-sliced or cache-extended estimate is
// bit-identical to a cold run with the same effective trial count.
func Assemble(graphName string, q *query.Graph, counts []uint64, stats []core.Stats) Estimate {
	est := Estimate{
		Query:  q.Name,
		Graph:  graphName,
		K:      q.K,
		Trials: len(counts),
		Counts: append([]uint64(nil), counts...),
	}
	for _, st := range stats {
		accumulate(&est.Stats, st)
	}
	est.finalize(q)
	return est
}

// AccumulateStats folds a slice of per-trial engine stats into one rollup,
// in trial order — the same fold Assemble applies, plus the scheduling
// telemetry (Steals) an Estimate leaves out.
func AccumulateStats(stats []core.Stats) core.Stats {
	var out core.Stats
	for _, st := range stats {
		accumulate(&out, st)
		out.Steals += st.Steals
	}
	return out
}

// Session is the estimator: it runs deterministic coloring trials from a
// seeded trial stream and snapshots the estimate at any prefix. However a
// Session reaches T trials — one Next at a time, one ExtendTo at any
// parallelism, preloaded from a cache and extended — its estimate at T is
// the same, bit for bit. Sessions are not safe for concurrent use;
// ExtendTo's internal workers are the one sanctioned concurrency.
type Session struct {
	g     *graph.Graph
	q     *query.Graph
	copts core.Options
	seed  int64

	stream    *Stream // lazily seeded and skipped to the next trial index
	preloaded int     // trials seeded from a cache rather than computed here

	counts []uint64
	stats  []core.Stats

	mu      sync.Mutex // guards the running tallies and onTrial during parallel chunks
	done    int
	sum     float64
	sumsq   float64
	onTrial func(done int, mean, cv float64)
}

// NewSession prepares an estimation of q in g. Only Seed and Core are read
// from opts; Trials and Parallel belong to Run. The plan is resolved once
// up front: trials share it, and the calibration behind the default
// planner should not run concurrently per trial.
func NewSession(g *graph.Graph, q *query.Graph, opts Options) (*Session, error) {
	copts := opts.Core
	if copts.Plan == nil {
		plan, err := core.PickPlan(q)
		if err != nil {
			return nil, err
		}
		copts.Plan = plan
	}
	return &Session{g: g, q: q, copts: copts, seed: opts.Seed}, nil
}

// OnTrial registers a callback fired after every trial that lands (and
// once at Preload) with the session's trial count at that moment and the
// running mean and CV over those trials. During a parallel ExtendTo the
// callback is invoked from worker goroutines under the session's mutex —
// serialized and in done order — so it must be cheap and must not call
// back into the session.
func (s *Session) OnTrial(fn func(done int, mean, cv float64)) { s.onTrial = fn }

// Preload seeds the session with trials 0..len(counts)-1 computed earlier
// (by another session or run over the same trial stream): the coloring
// stream skips past them and the next trial is len(counts). The slices
// pass into the session's ownership. It is an error to preload a session
// that has already accumulated trials.
func (s *Session) Preload(counts []uint64, stats []core.Stats) error {
	if len(s.counts) > 0 {
		return fmt.Errorf("coloring: Preload on a session with %d trials", len(s.counts))
	}
	if len(counts) != len(stats) {
		return fmt.Errorf("coloring: Preload counts/stats length mismatch: %d vs %d", len(counts), len(stats))
	}
	s.counts = counts
	s.stats = stats
	s.preloaded = len(counts)
	s.resum()
	if s.onTrial != nil && s.done > 0 {
		mean, cv := s.tally()
		s.onTrial(s.done, mean, cv)
	}
	return nil
}

// resum recomputes the running tallies from the count prefix (after
// Preload or a rolled-back chunk).
func (s *Session) resum() {
	s.done = len(s.counts)
	s.sum, s.sumsq = 0, 0
	for _, c := range s.counts {
		f := float64(c)
		s.sum += f
		s.sumsq += f * f
	}
}

// tally returns the running mean and CV of the landed trials. Telemetry
// only: the Estimate's own statistics come from Assemble's two-pass
// computation.
func (s *Session) tally() (mean, cv float64) {
	if s.done == 0 {
		return 0, 0
	}
	n := float64(s.done)
	mean = s.sum / n
	if s.done > 1 && mean > 0 {
		variance := (s.sumsq - n*mean*mean) / (n - 1)
		if variance > 0 {
			cv = math.Sqrt(variance) / mean
		}
	}
	return mean, cv
}

// land records one computed trial's count in the tallies and fires the
// callback. The callback runs under the session mutex — that is what
// makes the "serialized, in done order" contract hold when parallel
// ExtendTo workers land trials concurrently (done=5 must never be
// published after done=6); it is also why OnTrial callbacks must be
// cheap and must not call back into the session.
func (s *Session) land(x uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.done++
	f := float64(x)
	s.sum += f
	s.sumsq += f * f
	if s.onTrial != nil {
		mean, cv := s.tally()
		s.onTrial(s.done, mean, cv)
	}
}

// coloringAt returns trial i's coloring. Callers consume indexes
// sequentially; the stream is (re)aligned by skipping when needed, so a
// rolled-back chunk cannot desynchronize it.
func (s *Session) coloringAt(i int) []uint8 {
	if s.stream == nil || s.stream.Drawn() != i {
		s.stream = NewStream(s.g.N(), s.q.K, s.seed)
		s.stream.Skip(i)
	}
	return s.stream.Next()
}

// Trials returns the number of trials accumulated so far (preloaded and
// computed).
func (s *Session) Trials() int { return len(s.counts) }

// Computed returns the number of trials this session computed itself
// (excluding preloaded ones) — the share whose engine work actually ran
// here.
func (s *Session) Computed() int { return len(s.counts) - s.preloaded }

// Counts exposes the accumulated per-trial colorful counts; read-only —
// the stopping rule walks it between trials.
func (s *Session) Counts() []uint64 { return s.counts }

// Run returns copies of the accumulated per-trial counts and stats, for
// storage in a trial-granular cache or log: what a replay needs to
// reproduce the estimate, so without the scheduling telemetry (Steals).
func (s *Session) Run() ([]uint64, []core.Stats) {
	stats := append([]core.Stats(nil), s.stats...)
	for i := range stats {
		stats[i].Steals = 0
	}
	return append([]uint64(nil), s.counts...), stats
}

// ComputedStats accumulates the engine stats of only the trials this
// session computed itself, so observability layers don't re-count cached
// trials' work.
func (s *Session) ComputedStats() core.Stats {
	return AccumulateStats(s.stats[s.preloaded:])
}

// Next runs one more trial and returns its colorful count.
func (s *Session) Next(ctx context.Context) (uint64, error) {
	i := len(s.counts)
	if err := s.ExtendTo(ctx, i+1, 1); err != nil {
		return 0, err
	}
	return s.counts[i], nil
}

// ExtendTo advances the session to the given trial count, running up to
// parallel trials concurrently (≤ 1 means serial); a session already at
// or past it is a no-op. It is the one trial loop — the only caller of the
// solver in this package. Results are bit-identical at any parallelism:
// colorings are drawn sequentially up front and counts land at their
// trial index. On error (including cancellation) the whole chunk is
// rolled back and the session stays at its prior trial count.
func (s *Session) ExtendTo(ctx context.Context, trials, parallel int) error {
	if ctx == nil {
		ctx = context.Background()
	}
	start := len(s.counts)
	if trials <= start {
		return nil
	}
	m := trials - start
	colorings := make([][]uint8, m)
	for j := range colorings {
		colorings[j] = s.coloringAt(start + j)
	}
	s.counts = append(s.counts, make([]uint64, m)...)
	s.stats = append(s.stats, make([]core.Stats, m)...)
	if parallel < 1 {
		parallel = 1
	}
	if parallel > m {
		parallel = m
	}
	var (
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
		next     atomic.Int64
	)
	wg.Add(parallel)
	for w := 0; w < parallel; w++ {
		go func() {
			defer wg.Done()
			for {
				j := int(next.Add(1)) - 1
				if j >= m {
					return
				}
				if err := ctx.Err(); err != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					errMu.Unlock()
					return
				}
				begin := time.Now()
				cnt, st, err := core.CountColorfulContext(ctx, s.g, s.q, colorings[j], s.copts)
				if err != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("coloring: trial %d: %w", start+j, err)
					}
					errMu.Unlock()
					return
				}
				obs.FromContext(ctx).Observe(TrialMeasurement, time.Since(begin))
				s.counts[start+j] = cnt
				s.stats[start+j] = st
				s.land(cnt)
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		s.counts = s.counts[:start]
		s.stats = s.stats[:start]
		s.resum()
		return firstErr
	}
	return nil
}

// RunUntil advances the session until the stopping rule fires and returns
// the stopping trial count — the prefix EstimateAt should snapshot. A rule
// with a target is consulted after every chunk of max(parallel, 1) trials;
// a chunk that overshoots the stopping trial leaves the extra trials in
// the session (valid cached work) but the returned stop point is the
// rule's, so the estimate matches a serial run exactly. A rule without one
// can only fire at MaxTrials, so the run is a single chunk up to there.
// A positive budget bounds the wall-clock time: once exceeded the session
// stops at its current trial count (at least one chunk always runs);
// budget stops are a time-based safety valve and are not replayable the
// way rule stops are.
func (s *Session) RunUntil(ctx context.Context, ad Adaptive, parallel int, budget time.Duration) (int, error) {
	ad = ad.withDefaults()
	var deadline time.Time
	if budget > 0 {
		deadline = time.Now().Add(budget)
	}
	for {
		if stop, ok := ad.StopAt(s.counts); ok {
			return stop, nil
		}
		if !deadline.IsZero() && !time.Now().Before(deadline) && len(s.counts) > 0 {
			return len(s.counts), nil
		}
		next := ad.MaxTrials
		if ad.Enabled() {
			next = min(len(s.counts)+max(parallel, 1), ad.MaxTrials)
		}
		if err := s.ExtendTo(ctx, next, parallel); err != nil {
			return 0, err
		}
	}
}

// Estimate snapshots the estimate over every accumulated trial.
func (s *Session) Estimate() Estimate { return s.EstimateAt(len(s.counts)) }

// EstimateAt snapshots the estimate over the first t trials — bit-identical
// to Run with Trials: t at the same seed. t is clamped to the accumulated
// trial count.
func (s *Session) EstimateAt(t int) Estimate {
	if t > len(s.counts) {
		t = len(s.counts)
	}
	return Assemble(s.g.Name, s.q, s.counts[:t], s.stats[:t])
}
