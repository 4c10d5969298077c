// Package coloring implements the outer loop of color coding (§2, §8.6):
// random colorings, the k^k/k! unbiased estimator for match counts, and
// multi-trial statistics (mean, variance, and the paper's coefficient of
// variation).
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

// Options configures an estimation run.
type Options struct {
	Core   core.Options
	Trials int   // number of independent colorings; ≤ 0 means 3
	Seed   int64 // RNG seed for the colorings
	// Parallel runs up to this many trials concurrently (each with its own
	// simulated cluster). Colorings are pre-drawn sequentially from Seed,
	// so results are identical to the serial run. ≤ 1 means serial.
	Parallel int
	// Progress, when non-nil, is called after each completed trial with the
	// number of finished trials so far and the total. Calls arrive from
	// trial goroutines (concurrently when Parallel > 1) and must be cheap
	// and non-blocking; done values are unique but not ordered.
	Progress func(done, total int)
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

// Draw pre-draws the trials independent colorings Run would use for an
// n-vertex graph and a k-node query: drawn sequentially from seed, so the
// result depends only on (n, k, trials, seed). Callers running several
// queries with equal k over the same graph and seed can draw once and pass
// the shared slice to RunWith; trials ≤ 0 means 3, matching Run.
func Draw(n, k, trials int, seed int64) [][]uint8 {
	if trials <= 0 {
		trials = 3
	}
	rng := rand.New(rand.NewSource(seed))
	colorings := make([][]uint8, trials)
	for i := range colorings {
		colorings[i] = Random(n, k, rng)
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
// returns ctx's error.
func RunContext(ctx context.Context, g *graph.Graph, q *query.Graph, opts Options) (Estimate, error) {
	return RunWithContext(ctx, g, q, Draw(g.N(), q.K, opts.Trials, opts.Seed), opts)
}

// RunWith is Run with the colorings supplied by the caller, one per trial
// (the trial count is len(colorings)). Colorings are read-only and may be
// shared across concurrent calls. RunWith with Draw-n colorings is
// bit-for-bit identical to Run. A non-zero opts.Trials that disagrees
// with len(colorings) is an error rather than a silent precision change.
func RunWith(g *graph.Graph, q *query.Graph, colorings [][]uint8, opts Options) (Estimate, error) {
	return RunWithContext(context.Background(), g, q, colorings, opts)
}

// RunWithContext is RunWith bounded by ctx (see RunContext).
func RunWithContext(ctx context.Context, g *graph.Graph, q *query.Graph, colorings [][]uint8, opts Options) (Estimate, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	trials := len(colorings)
	if trials == 0 {
		return Estimate{}, fmt.Errorf("coloring: no colorings supplied")
	}
	if opts.Trials > 0 && opts.Trials != trials {
		return Estimate{}, fmt.Errorf("coloring: opts.Trials %d disagrees with %d supplied colorings", opts.Trials, trials)
	}
	counts := make([]uint64, trials)
	// Resolve the plan once up front: trials share it, and the calibration
	// behind the default planner should not run concurrently per trial.
	copts := opts.Core
	if copts.Plan == nil {
		plan, err := core.PickPlan(q)
		if err != nil {
			return Estimate{}, err
		}
		copts.Plan = plan
	}
	parallel := opts.Parallel
	if parallel < 1 {
		parallel = 1
	}
	if parallel > trials {
		parallel = trials
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		next     atomic.Int64
		finished atomic.Int64
	)
	stats := make([]core.Stats, trials)
	wg.Add(parallel)
	for w := 0; w < parallel; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= trials {
					return
				}
				// Between trials a plain poll suffices; mid-trial the solver
				// polls ctx itself via CountColorfulContext.
				if err := ctx.Err(); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
				begin := time.Now()
				cnt, st, err := core.CountColorfulContext(ctx, g, q, colorings[i], copts)
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("coloring: trial %d: %w", i, err)
					}
					mu.Unlock()
					return
				}
				obs.FromContext(ctx).Observe(TrialMeasurement, time.Since(begin))
				counts[i] = cnt
				stats[i] = st
				if opts.Progress != nil {
					opts.Progress(int(finished.Add(1)), trials)
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return Estimate{}, firstErr
	}
	// Assemble is the single place counts become an Estimate: batch runs,
	// incremental Sessions, and cache-replayed prefixes all produce their
	// results through it, so "bit-identical at equal trial counts" holds by
	// construction rather than by parallel implementations agreeing.
	return Assemble(g.Name, q, counts, stats), nil
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
