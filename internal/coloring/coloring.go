// Package coloring implements the outer loop of color coding (§2, §8.6):
// random colorings, the k^k/k! unbiased estimator for match counts, and
// multi-trial statistics (mean, variance, and the paper's coefficient of
// variation).
//
// The loop is written once. Session (session.go) is the only estimator:
// colorings come from one Stream, Session.ExtendTo is the only code that
// calls the solver, Adaptive is the only stopping rule (a fixed-trial run
// is the rule with no target) and Assemble the only place counts become an
// Estimate. Run, the library's Estimate and the service's jobs are each
// "NewSession, RunUntil, EstimateAt".
package coloring

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/query"
)

// Random returns a uniformly random coloring of n vertices with k colors.
func Random(n, k int, rng *rand.Rand) []uint8 {
	colors := make([]uint8, n)
	for i := range colors {
		colors[i] = uint8(rng.Intn(k))
	}
	return colors
}

// ScaleFactor returns k^k/k!, the §2 normalization: the expected colorful
// count times this factor is the true match count.
func ScaleFactor(k int) float64 {
	f := 1.0
	for i := 1; i <= k; i++ {
		f *= float64(k) / float64(i)
	}
	return f
}

// DefaultTrials is the trial count of a fixed-trial run that names none.
const DefaultTrials = 3

// Options configures an estimation run.
type Options struct {
	Core   core.Options
	Trials int   // number of independent colorings; ≤ 0 means DefaultTrials
	Seed   int64 // RNG seed for the colorings
	// Parallel runs up to this many trials concurrently (each with its own
	// simulated cluster). Colorings are drawn sequentially from Seed, so
	// results are identical to the serial run. ≤ 1 means serial.
	Parallel int
}

// Estimate is the result of a multi-trial color-coding estimation.
type Estimate struct {
	Query  string
	Graph  string
	K      int
	Trials int
	Counts []uint64 // colorful count per trial

	MeanColorful float64
	VarColorful  float64 // unbiased sample variance
	// CV is the coefficient of variation of the colorful count: the
	// empirical standard deviation over the mean. The paper's §8.6 text
	// says "ratio of the empirical variance to the mean", but its
	// conclusion ("≈10% accuracy" at CV ≤ 0.1) matches the standard
	// stddev/mean definition, which is also scale-free; we use that.
	CV float64

	// Matches estimates n(G,Q) = ScaleFactor(k) · mean colorful count.
	Matches float64
	// Subgraphs estimates the number of distinct subgraphs isomorphic to
	// the query: Matches / aut(Q).
	Subgraphs float64

	// Stats are the engine counters accumulated across trials. Like every
	// other field of an Estimate they are bit-identical across worker
	// counts and repeated runs, so an Estimate can be cached, logged and
	// compared byte for byte; Steals, the one counter that depends on
	// scheduling, is left out (zero) — Session.ComputedStats reports it.
	Stats core.Stats
}

// Draw returns the first trials colorings of the Stream a Session over an
// n-vertex graph and a k-node query draws from at seed; trials ≤ 0 means
// DefaultTrials.
func Draw(n, k, trials int, seed int64) [][]uint8 {
	if trials <= 0 {
		trials = DefaultTrials
	}
	st := NewStream(n, k, seed)
	colorings := make([][]uint8, trials)
	for i := range colorings {
		colorings[i] = st.Next()
	}
	return colorings
}

// Run estimates the number of matches of q in g by repeated colorful
// counting under independent random colorings.
func Run(g *graph.Graph, q *query.Graph, opts Options) (Estimate, error) {
	return RunContext(context.Background(), g, q, opts)
}

// RunContext is Run bounded by ctx: a canceled or deadline-expired run
// stops mid-trial (the solver polls ctx inside its worker loops) and
// returns ctx's error. It is a Session advanced to opts.Trials and
// snapshotted there.
func RunContext(ctx context.Context, g *graph.Graph, q *query.Graph, opts Options) (Estimate, error) {
	sess, err := NewSession(g, q, opts)
	if err != nil {
		return Estimate{}, err
	}
	stop, err := sess.RunUntil(ctx, Adaptive{MaxTrials: opts.Trials}, opts.Parallel, 0)
	if err != nil {
		return Estimate{}, err
	}
	return sess.EstimateAt(stop), nil
}

func accumulate(dst *core.Stats, s core.Stats) {
	dst.Backend = s.Backend
	dst.Workers = s.Workers
	dst.TotalLoad += s.TotalLoad
	dst.MaxLoad += s.MaxLoad
	dst.AvgLoad += s.AvgLoad
	dst.Messages += s.Messages
	dst.Supersteps += s.Supersteps
	dst.TableEntries += s.TableEntries
}

func (e *Estimate) finalize(q *query.Graph) {
	var sum float64
	for _, c := range e.Counts {
		sum += float64(c)
	}
	e.MeanColorful = sum / float64(e.Trials)
	if e.Trials > 1 {
		var ss float64
		for _, c := range e.Counts {
			d := float64(c) - e.MeanColorful
			ss += d * d
		}
		e.VarColorful = ss / float64(e.Trials-1)
	}
	if e.MeanColorful > 0 {
		e.CV = math.Sqrt(e.VarColorful) / e.MeanColorful
	}
	e.Matches = ScaleFactor(e.K) * e.MeanColorful
	if aut := q.Automorphisms(); aut > 0 {
		e.Subgraphs = e.Matches / float64(aut)
	}
}

func (e Estimate) String() string {
	return fmt.Sprintf("%s on %s: ≈%.1f matches (≈%.1f subgraphs) from %d trials, CV %.3f",
		e.Query, e.Graph, e.Matches, e.Subgraphs, e.Trials, e.CV)
}
