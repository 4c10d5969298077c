package coloring

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/gen"
	"repro/internal/query"
)

func TestScaleFactor(t *testing.T) {
	cases := map[int]float64{
		1: 1,
		2: 2,            // 2^2/2!
		3: 27.0 / 6,     // 4.5
		4: 256.0 / 24,   // ≈10.67
		5: 3125.0 / 120, // ≈26.04
	}
	for k, want := range cases {
		if got := ScaleFactor(k); math.Abs(got-want) > 1e-9 {
			t.Errorf("ScaleFactor(%d) = %f, want %f", k, got, want)
		}
	}
}

func TestRandomColoringRange(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	colors := Random(1000, 5, rng)
	seen := map[uint8]int{}
	for _, c := range colors {
		if c >= 5 {
			t.Fatalf("color %d out of range", c)
		}
		seen[c]++
	}
	if len(seen) != 5 {
		t.Fatalf("only %d distinct colors in 1000 draws", len(seen))
	}
}

// The estimator must converge to the exact match count (unbiasedness, §2).
func TestEstimatorConverges(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := gen.ErdosRenyi("er", 40, 160, rng)
	q := query.Cycle(4)
	want := float64(exact.Matches(g, q))
	est, err := Run(g, q, Options{Trials: 400, Seed: 77, Core: core.Options{Algorithm: core.DB, Workers: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if want == 0 {
		t.Skip("degenerate instance")
	}
	if est.Matches < 0.85*want || est.Matches > 1.15*want {
		t.Fatalf("estimate %.1f, want ≈%.1f", est.Matches, want)
	}
	if est.Trials != 400 || len(est.Counts) != 400 {
		t.Fatalf("trial bookkeeping wrong: %d/%d", est.Trials, len(est.Counts))
	}
	if est.CV < 0 {
		t.Fatalf("negative CV %f", est.CV)
	}
	// Subgraph estimate = matches / aut(C4) = matches / 8.
	if math.Abs(est.Subgraphs-est.Matches/8) > 1e-9 {
		t.Fatalf("Subgraphs %.2f vs Matches/8 %.2f", est.Subgraphs, est.Matches/8)
	}
	if est.Stats.TotalLoad <= 0 {
		t.Fatal("stats not accumulated")
	}
}

// With a single trial the variance is zero; with identical trials the CV is
// zero.
func TestCVDegenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := gen.ErdosRenyi("er", 30, 60, rng)
	q := query.Cycle(3)
	est, err := Run(g, q, Options{Trials: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if est.VarColorful != 0 || est.CV != 0 {
		t.Fatalf("single trial: var=%f cv=%f", est.VarColorful, est.CV)
	}
}

// Determinism: same seed → same estimate.
func TestSeedDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	g := gen.ErdosRenyi("er", 35, 120, rng)
	q := query.MustByName("glet2")
	a, err := Run(g, q, Options{Trials: 5, Seed: 123})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(g, q, Options{Trials: 5, Seed: 123})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Counts {
		if a.Counts[i] != b.Counts[i] {
			t.Fatalf("trial %d differs: %d vs %d", i, a.Counts[i], b.Counts[i])
		}
	}
	if a.Matches != b.Matches {
		t.Fatalf("estimates differ: %f vs %f", a.Matches, b.Matches)
	}
}

func TestRunErrorPropagation(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := gen.ErdosRenyi("er", 10, 20, rng)
	k4 := query.FromEdges("k4", 4, [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}})
	if _, err := Run(g, k4, Options{Trials: 2}); err == nil {
		t.Fatal("treewidth-3 query accepted")
	}
}

// Parallel trials must produce bit-identical results to serial runs.
func TestParallelTrialsIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	g := gen.PowerLawGraph("pl", 200, 1.6, rng)
	q := query.MustByName("glet1")
	serial, err := Run(g, q, Options{Trials: 8, Seed: 5, Core: core.Options{Workers: 2}})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Run(g, q, Options{Trials: 8, Seed: 5, Parallel: 4, Core: core.Options{Workers: 2}})
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial.Counts {
		if serial.Counts[i] != parallel.Counts[i] {
			t.Fatalf("trial %d: serial %d vs parallel %d", i, serial.Counts[i], parallel.Counts[i])
		}
	}
	if serial.Matches != parallel.Matches || serial.CV != parallel.CV {
		t.Fatalf("aggregates differ: %v vs %v", serial, parallel)
	}
	if parallel.Stats.TotalLoad != serial.Stats.TotalLoad {
		t.Fatalf("stats differ: %d vs %d", parallel.Stats.TotalLoad, serial.Stats.TotalLoad)
	}
}

// Parallelism degrees beyond the trial count are clamped, and errors from
// any trial propagate.
func TestParallelEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := gen.ErdosRenyi("er", 20, 40, rng)
	if _, err := Run(g, query.Cycle(4), Options{Trials: 2, Parallel: 16, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	k4 := query.FromEdges("k4", 4, [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}})
	if _, err := Run(g, k4, Options{Trials: 4, Parallel: 2}); err == nil {
		t.Fatal("error not propagated from parallel trial")
	}
}

// TestRunContextMatchesRun: a live context changes nothing — bit-for-bit.
func TestRunContextMatchesRun(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	g := gen.ErdosRenyi("er", 40, 160, rng)
	q := query.MustByName("glet1")
	opts := Options{Trials: 4, Seed: 9}
	plain, err := Run(g, q, opts)
	if err != nil {
		t.Fatal(err)
	}
	ctxed, err := RunContext(context.Background(), g, q, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, ctxed) {
		t.Errorf("RunContext differs from Run:\n%+v\n%+v", plain, ctxed)
	}
}

// TestRunContextCancelBetweenTrials: a cancellation between two trials of
// a chunk surfaces ctx's error instead of finishing the remaining trials,
// and rolls the whole chunk back — the session keeps what it held before.
func TestRunContextCancelBetweenTrials(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	g := gen.ErdosRenyi("er", 60, 240, rng)
	q := query.MustByName("brain1")
	sess, err := NewSession(g, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.ExtendTo(context.Background(), 2, 1); err != nil {
		t.Fatal(err)
	}
	held := sess.Estimate()
	ctx, cancel := context.WithCancel(context.Background())
	landed := 0
	sess.OnTrial(func(done int, _, _ float64) {
		// Cancel as soon as the chunk's first trial lands; the remaining 61
		// must not run to completion.
		landed++
		cancel()
	})
	if err := sess.ExtendTo(ctx, 64, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if landed != 1 {
		t.Errorf("%d trials landed after the cancel, want only the first", landed)
	}
	if sess.Trials() != 2 || !reflect.DeepEqual(sess.Estimate(), held) {
		t.Errorf("canceled chunk left %d trials, want the 2 held before it, unchanged", sess.Trials())
	}
	if _, err := RunContext(ctx, g, q, Options{Trials: 64}); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext on a canceled ctx: err = %v, want context.Canceled", err)
	}
}

// TestRunProgressReporting: every trial reports exactly once through
// Session.OnTrial, in done order, serial and parallel.
func TestRunProgressReporting(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	g := gen.ErdosRenyi("er", 40, 160, rng)
	q := query.MustByName("wiki")
	for _, parallel := range []int{1, 4} {
		sess, err := NewSession(g, q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		var dones []int // the callback is serialized by the session
		sess.OnTrial(func(done int, _, _ float64) { dones = append(dones, done) })
		if err := sess.ExtendTo(context.Background(), 6, parallel); err != nil {
			t.Fatal(err)
		}
		if want := []int{1, 2, 3, 4, 5, 6}; !reflect.DeepEqual(dones, want) {
			t.Errorf("parallel=%d: trials reported done = %v, want %v", parallel, dones, want)
		}
	}
}
