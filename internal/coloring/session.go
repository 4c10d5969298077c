package coloring

import (
	"context"
	"fmt"
	"math"
	"math/rand"
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
	DefaultMaxTrials  = 1024
)

// firstStop is the earliest trial count at which a rule with a target may
// fire. Stopping sooner stops on the streams whose spread happens to look
// small: over 1000 seeds of TestErrorBarsHoldTheirLevel, a ±20%-at-90%
// rule landed within 20% of glet1's exact count in 0.848 of them when it
// could fire at 3 trials, and 0.878 at 8, against a bound of 0.872.
const firstStop = 8

// TrialMeasurement is the name under which each trial's wall time is
// reported to a ctx-attached obs.Trace. It is an Observe (sink-only
// measurement), not a span: a trial envelops every solver-phase span
// recorded inside it, so adding it to the trace's phase totals would
// double-count against the job's wall time — but the per-backend trial
// latency histograms still want the distribution.
const TrialMeasurement = "trial"

// Precision declares a target accuracy: the estimate's two-sided
// Confidence-level confidence interval (Student's t over the per-trial
// counts) should have half-width at most RelErr of the mean.
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

// relHalfWidth is the observed relative half-width of the confidence
// interval over t trials of the given mean and sample variance:
// q·s/(√t·mean), q the quantile of t trials. It is +Inf below two trials,
// where there is no variance estimate, and at a zero mean, which meets no
// relative target: an all-zero prefix bounds the count instead (noMatch).
// The stopping rule, Estimate.RelCI and the library's Session.Met all read
// the interval here.
func (p Precision) relHalfWidth(t int, mean, variance float64) float64 {
	if t < 2 || mean <= 0 {
		return math.Inf(1)
	}
	return p.quantile(t) * math.Sqrt(variance/float64(t)) / mean
}

// noMatch reports whether t all-zero trials of a k-node query put its
// count below one match at confidence c: any one match is colourful in a
// trial with probability k!/kᵏ, so were the count ≥ 1, t all-zero trials
// would occur with probability at most (1 − k!/kᵏ)ᵗ. At c = 0.9 that takes
// 59 trials at k = 5, 149 at k = 6, 957 at k = 8 and 6 345 at k = 10.
func noMatch(k, t int, c float64) bool {
	return t >= firstStop && math.Pow(1-1/ScaleFactor(k), float64(t)) <= 1-c
}

// quantile returns the two-sided quantile of the confidence level for an
// interval over t ≥ 2 trials: the half-width of the CI is quantile·s/√t.
// The sample deviation s is itself estimated from the t trials, so the
// quantile is Student's t with t−1 degrees of freedom, not the normal one
// it tends to: 2.13 at t = 5 and 90%, where the normal quantile is 1.645,
// too narrow an interval for a handful of trials. Up to 30 degrees of
// freedom it is solved for exactly, by bisection on the distribution's
// closed form (Abramowitz & Stegun 26.7.3–4); beyond, it is the normal
// quantile corrected by the first four terms of its expansion in 1/ν
// (26.7.5), which are within 10⁻⁶ of it there.
func (p Precision) quantile(t int) float64 {
	c := p.Confidence
	if c <= 0 {
		c = DefaultConfidence
	}
	if c >= 1 || t < 2 {
		return math.Inf(1)
	}
	nu := t - 1
	if nu > 30 {
		x, n := math.Sqrt2*math.Erfinv(c), float64(nu)
		x2 := x * x
		g1 := x * (x2 + 1) / 4
		g2 := x * ((5*x2+16)*x2 + 3) / 96
		g3 := x * (((3*x2+19)*x2+17)*x2 - 15) / 384
		g4 := x * ((((79*x2+776)*x2+1482)*x2-1920)*x2 - 945) / 92160
		return x + (g1+(g2+(g3+g4/n)/n)/n)/n
	}
	hi := 1.0
	for within(hi, nu) < c {
		hi *= 2
	}
	lo := 0.0
	for i := 0; i < 64; i++ {
		if mid := (lo + hi) / 2; within(mid, nu) < c {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// within is P(|T| ≤ x) for T Student's t with nu degrees of freedom, in
// closed form (Abramowitz & Stegun 26.7.3–4): with θ = atan(x/√nu), a sum of
// nu/2 powers of cos θ.
func within(x float64, nu int) float64 {
	th := math.Atan(x / math.Sqrt(float64(nu)))
	sin, cos := math.Sincos(th)
	term, sum, from := 1.0, 1.0, 2 // nu even: sin θ·(1 + ½cos²θ + (1·3)/(2·4)cos⁴θ + …)
	if nu%2 == 1 {                 // nu odd: (2/π)(θ + sin θ·(cos θ + ⅔cos³θ + …)), no sum at nu = 1
		term, sum, from = cos, cos, 3
		if nu == 1 {
			sum = 0
		}
	}
	for j := from; j < nu; j += 2 {
		term *= cos * cos * float64(j-1) / float64(j)
		sum += term
	}
	if nu%2 == 0 {
		return sin * sum
	}
	return 2 / math.Pi * (th + sin*sum)
}

// Adaptive is the stopping rule of every run: it fires at the first trial
// count from firstStop on whose observed CI meets the Precision target, or
// whose trials are all zero and enough to bound the count below one match
// at the target's confidence (noMatch), and at MaxTrials regardless. With
// no target declared (Precision not Enabled) it fires at MaxTrials and
// nowhere earlier — a fixed-trial run.
type Adaptive struct {
	Precision
	// MaxTrials caps the run (≤ 0 means DefaultMaxTrials, or DefaultTrials
	// with no target declared).
	MaxTrials int
}

// WithDefaults returns the rule with its defaults filled in: the
// confidence level (DefaultConfidence) and the cap. The rule reads them
// the same way unfilled, so only a key built from the rule needs this.
func (a Adaptive) WithDefaults() Adaptive {
	if a.Confidence <= 0 {
		a.Confidence = DefaultConfidence
	}
	if a.MaxTrials <= 0 {
		a.MaxTrials = DefaultMaxTrials
		if !a.Enabled() {
			a.MaxTrials = DefaultTrials
		}
	}
	return a
}

// StopAt applies the stopping rule to a prefix of per-trial colorful
// counts of a k-node query: it returns the first trial count t in
// [firstStop, min(len, MaxTrials)] at which the CI's relative half-width
// (relHalfWidth) is at most RelErr — a zero-variance prefix with a nonzero
// mean always qualifies — or at which an all-zero prefix bounds the count
// below one match (noMatch; the estimate is then 0, and
// Estimate.BelowOne, not RelCI, reports it); with no target declared
// nothing does. Failing those, it returns MaxTrials when the prefix already
// spans the cap. It is a pure function of k and the count sequence, which
// is what makes runs replayable: walking the rule over cached trials stops
// at exactly the trial the original run stopped at.
func (a Adaptive) StopAt(k int, counts []uint64) (int, bool) {
	a = a.WithDefaults()
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
		if t >= firstStop && a.relHalfWidth(t, mean, m2/float64(t-1)) <= a.RelErr || mean == 0 && noMatch(k, t, a.Confidence) {
			return t, true
		}
	}
	if len(counts) >= a.MaxTrials {
		return a.MaxTrials, true
	}
	return 0, false
}

// BelowOne reports whether the estimate's trials are all zero and enough
// of them to put the count below one match at the given confidence level
// (≤ 0 means DefaultConfidence): where the adaptive rule stops a run whose
// relative target a zero mean can never meet.
func (e Estimate) BelowOne(confidence float64) bool {
	if confidence <= 0 {
		confidence = DefaultConfidence
	}
	return e.MeanColorful == 0 && noMatch(e.K, e.Trials, confidence)
}

// RelCI returns the estimate's observed relative confidence-interval
// half-width at the given confidence level (≤ 0 means DefaultConfidence):
// q·s/(√T·mean), q the quantile of T trials (Precision.quantile): the
// quantity the adaptive stopping rule drives below RelErr. A single-trial
// or zero-mean estimate has no finite relative CI and reports +Inf.
func (e Estimate) RelCI(confidence float64) float64 {
	return Precision{Confidence: confidence}.relHalfWidth(e.Trials, e.MeanColorful, e.VarColorful)
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
// Session reaches T trials — one Next at a time, one ExtendTo, preloaded
// from a cache and extended — its estimate at T is the same, bit for bit.
// Sessions are not safe for concurrent use.
type Session struct {
	g     *graph.Graph
	q     *query.Graph
	copts core.Options
	seed  int64

	stream    *Stream // lazily seeded and skipped to the next trial index
	preloaded int     // trials seeded from a cache rather than computed here

	counts  []uint64
	stats   []core.Stats
	onTrial func(done int, mean, cv float64)
}

// NewSession prepares an estimation of q in g. Only Seed and Core are read
// from opts; Trials belongs to Run. The plan is resolved once up front:
// trials share it, and the calibration behind the default planner should
// not run per trial.
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
// running mean and CV over those trials. It runs on the goroutine that runs
// the trials, between two of them, so it must be cheap and must not call
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
	if s.onTrial != nil && len(counts) > 0 {
		mean, cv := s.tally()
		s.onTrial(len(counts), mean, cv)
	}
	return nil
}

// tally returns the running mean and CV of the landed trials. Telemetry
// only: the Estimate's own statistics come from Assemble's two-pass
// computation.
func (s *Session) tally() (mean, cv float64) {
	done := len(s.counts)
	if done == 0 {
		return 0, 0
	}
	var sum, sumsq float64
	for _, c := range s.counts {
		f := float64(c)
		sum += f
		sumsq += f * f
	}
	n := float64(done)
	mean = sum / n
	if done > 1 && mean > 0 {
		variance := (sumsq - n*mean*mean) / (n - 1)
		if variance > 0 {
			cv = math.Sqrt(variance) / mean
		}
	}
	return mean, cv
}

// coloringAt returns trial i's coloring. Callers consume indexes
// sequentially; the stream is (re)aligned by skipping when needed, so a
// rolled-back ExtendTo cannot desynchronize it.
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
	if err := s.ExtendTo(ctx, i+1); err != nil {
		return 0, err
	}
	return s.counts[i], nil
}

// ExtendTo advances the session to the given trial count, one trial after
// another on the calling goroutine; a session already at or past it is a
// no-op. It is the one trial loop — the only caller of the solver in this
// package. On error (cancellation between or inside trials included) every
// trial of the call is rolled back and the session stays at its prior
// trial count.
func (s *Session) ExtendTo(ctx context.Context, trials int) error {
	if ctx == nil {
		ctx = context.Background()
	}
	start := len(s.counts)
	for i := start; i < trials; i++ {
		if err := s.trial(ctx, i); err != nil {
			s.counts = s.counts[:start]
			s.stats = s.stats[:start]
			return err
		}
	}
	return nil
}

// trial runs trial i, the session's next, and lands its count and
// stats; the callback hears of it.
func (s *Session) trial(ctx context.Context, i int) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	colors := s.coloringAt(i)
	begin := time.Now()
	cnt, st, err := core.CountColorfulContext(ctx, s.g, s.q, colors, s.copts)
	if err != nil {
		return fmt.Errorf("coloring: trial %d: %w", i, err)
	}
	obs.FromContext(ctx).Observe(TrialMeasurement, time.Since(begin))
	s.counts = append(s.counts, cnt)
	s.stats = append(s.stats, st)
	if s.onTrial != nil {
		mean, cv := s.tally()
		s.onTrial(len(s.counts), mean, cv)
	}
	return nil
}

// RunUntil advances the session one trial at a time until the stopping
// rule fires and returns the stopping trial count — the prefix EstimateAt
// should snapshot. A rule without a target can only fire at MaxTrials, so
// that run is one ExtendTo up to there. The last two arguments are
// ignored: they were a trial concurrency and a wall-clock budget, and
// benchmark/serving.go still passes them — ROADMAP shrink (f) deletes
// them with that call.
func (s *Session) RunUntil(ctx context.Context, ad Adaptive, _ int, _ time.Duration) (int, error) {
	ad = ad.WithDefaults()
	for {
		if stop, ok := ad.StopAt(s.q.K, s.counts); ok {
			return stop, nil
		}
		next := ad.MaxTrials
		if ad.Enabled() {
			next = len(s.counts) + 1
		}
		if err := s.ExtendTo(ctx, next); err != nil {
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
