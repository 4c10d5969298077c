package coloring

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/query"
)

// TestStreamMatchesDraw: Draw is a prefix of the stream, and Skip keeps a
// stream aligned with it.
func TestStreamMatchesDraw(t *testing.T) {
	const n, k, trials, seed = 200, 5, 7, 42
	batch := Draw(n, k, trials, seed)
	st := NewStream(n, k, seed)
	for i := 0; i < trials; i++ {
		if got := st.Next(); !reflect.DeepEqual(got, batch[i]) {
			t.Fatalf("stream coloring %d differs from Draw", i)
		}
	}
	skipped := NewStream(n, k, seed)
	skipped.Skip(4)
	if skipped.Drawn() != 4 {
		t.Fatalf("Drawn = %d after Skip(4)", skipped.Drawn())
	}
	if got := skipped.Next(); !reflect.DeepEqual(got, batch[4]) {
		t.Fatal("Skip desynchronized the stream from Draw")
	}
}

// sameEstimate compares estimates field for field: nothing in one depends
// on scheduling.
func sameEstimate(t *testing.T, label string, a, b Estimate) {
	t.Helper()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("%s: estimates differ:\n%+v\n%+v", label, a, b)
	}
}

// TestSessionMatchesBatch is the determinism invariant of the one trial
// loop: however a run reaches T trials — Run, a Session advanced by Next T
// times, one ExtendTo serial or parallel, RunUntil under a rule without a
// target — the estimate at T is the same, bit for bit, on both backends.
// (The library and service paths join this table in internal/service's
// TestEstimateMatchesLibraryBitForBit.)
func TestSessionMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	g := gen.PowerLawGraph("pl", 300, 1.6, rng)
	q := query.MustByName("glet1")
	ctx := context.Background()
	for _, backend := range []string{"sim", "parallel"} {
		opts := Options{Seed: 11, Core: core.Options{Algorithm: core.DB, Backend: backend, Workers: 3}}
		stepped, err := NewSession(g, q, opts)
		if err != nil {
			t.Fatal(err)
		}
		for T := 1; T <= 6; T++ {
			if _, err := stepped.Next(ctx); err != nil {
				t.Fatal(err)
			}
			opts.Trials = T
			want, err := Run(g, q, opts)
			if err != nil {
				t.Fatal(err)
			}
			sameEstimate(t, backend+"/Next", stepped.EstimateAt(T), want)
			for name, advance := range map[string]func(*Session) error{
				"ExtendTo/1": func(s *Session) error { return s.ExtendTo(ctx, T, 1) },
				"ExtendTo/4": func(s *Session) error { return s.ExtendTo(ctx, T, 4) },
				"RunUntil": func(s *Session) error {
					stop, err := s.RunUntil(ctx, Adaptive{MaxTrials: T}, 2, 0)
					if err == nil && stop != T {
						err = fmt.Errorf("a rule without a target stopped at %d, want %d", stop, T)
					}
					return err
				},
			} {
				sess, err := NewSession(g, q, opts)
				if err == nil {
					err = advance(sess)
				}
				if err != nil {
					t.Fatal(err)
				}
				sameEstimate(t, backend+"/"+name, sess.Estimate(), want)
			}
		}
		if stepped.Trials() != 6 {
			t.Fatalf("session holds %d trials, want 6", stepped.Trials())
		}
	}
}

// TestSessionPreloadExtends: a session seeded with a cached prefix and
// extended to T equals a cold batch run with Trials: T — the cache
// extension invariant at the coloring layer.
func TestSessionPreloadExtends(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	g := gen.ErdosRenyi("er", 60, 240, rng)
	q := query.MustByName("wiki")
	opts := Options{Seed: 9, Core: core.Options{Workers: 2}}

	first, err := NewSession(g, q, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := first.ExtendTo(context.Background(), 3, 1); err != nil {
		t.Fatal(err)
	}
	counts, stats := first.Run()

	second, err := NewSession(g, q, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := second.Preload(counts, stats); err != nil {
		t.Fatal(err)
	}
	if err := second.ExtendTo(context.Background(), 8, 2); err != nil {
		t.Fatal(err)
	}
	if second.Computed() != 5 {
		t.Errorf("Computed = %d, want 5 (3 preloaded of 8)", second.Computed())
	}
	opts.Trials = 8
	cold, err := Run(g, q, opts)
	if err != nil {
		t.Fatal(err)
	}
	sameEstimate(t, "preload+extend vs cold", second.Estimate(), cold)
}

// TestSessionExtendParallelIdentical: ExtendTo at any parallelism is
// bit-identical to serial.
func TestSessionExtendParallelIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	g := gen.ErdosRenyi("er", 50, 200, rng)
	q := query.Cycle(5)
	opts := Options{Seed: 5}
	serial, err := NewSession(g, q, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := serial.ExtendTo(context.Background(), 9, 1); err != nil {
		t.Fatal(err)
	}
	par, err := NewSession(g, q, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := par.ExtendTo(context.Background(), 9, 4); err != nil {
		t.Fatal(err)
	}
	sameEstimate(t, "parallel extend", par.Estimate(), serial.Estimate())
}

// TestAdaptiveStopDeterminism: an adaptive run stops at some T, equals
// the batch run with Trials: T, and a replayed adaptive run stops at the
// same T — the invariant the service's trial-granular cache relies on.
func TestAdaptiveStopDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	g := gen.PowerLawGraph("pl", 250, 1.5, rng)
	q := query.MustByName("glet2")
	ad := Adaptive{Precision: Precision{RelErr: 0.25, Confidence: 0.9}, MaxTrials: 64}
	opts := Options{Seed: 17, Core: core.Options{Workers: 2}}

	sess, err := NewSession(g, q, opts)
	if err != nil {
		t.Fatal(err)
	}
	stop, err := sess.RunUntil(context.Background(), ad, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if stop < 2 || stop > 64 {
		t.Fatalf("stop = %d outside [2,64]", stop)
	}
	adaptive := sess.EstimateAt(stop)

	opts.Trials = stop
	batch, err := Run(g, q, opts)
	if err != nil {
		t.Fatal(err)
	}
	sameEstimate(t, "adaptive vs batch", adaptive, batch)

	// Replay: the rule over the accumulated counts finds the same stop.
	if again, ok := ad.StopAt(sess.Counts()); !ok || again != stop {
		t.Errorf("replayed stop = %d/%v, want %d", again, ok, stop)
	}

	// A chunked (parallel) adaptive run may overshoot with extra trials
	// but must return the same stop and estimate.
	psess, err := NewSession(g, q, Options{Seed: 17, Core: core.Options{Workers: 2}})
	if err != nil {
		t.Fatal(err)
	}
	pstop, err := psess.RunUntil(context.Background(), ad, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if pstop != stop {
		t.Fatalf("parallel adaptive stopped at %d, serial at %d", pstop, stop)
	}
	sameEstimate(t, "parallel adaptive", psess.EstimateAt(pstop), adaptive)
}

// TestStopAtRule covers the stopping rule's edges: too few trials, a
// zero-variance prefix, the all-zero stream, the MaxTrials backstop, and
// the rule with no target.
func TestStopAtRule(t *testing.T) {
	ad := Adaptive{Precision: Precision{RelErr: 0.1}, MinTrials: 3, MaxTrials: 8}
	if _, ok := ad.StopAt([]uint64{5, 5}); ok {
		t.Error("rule fired below MinTrials")
	}
	if stop, ok := ad.StopAt([]uint64{5, 5, 5}); !ok || stop != 3 {
		t.Errorf("zero-variance prefix: stop=%d ok=%v, want 3 true", stop, ok)
	}
	if stop, ok := ad.StopAt([]uint64{0, 0, 0}); !ok || stop != 3 {
		t.Errorf("all-zero prefix: stop=%d ok=%v, want 3 true", stop, ok)
	}
	// Wildly spread counts never meet ±10%, so the cap decides.
	spread := []uint64{1, 1000, 2, 2000, 3, 3000, 4, 4000}
	if stop, ok := ad.StopAt(spread); !ok || stop != 8 {
		t.Errorf("spread prefix: stop=%d ok=%v, want MaxTrials 8", stop, ok)
	}
	if _, ok := ad.StopAt(spread[:5]); ok {
		t.Error("rule fired on a spread prefix below the cap")
	}
	// Tighter confidence needs more trials than looser at equal spread.
	counts := []uint64{100, 110, 90, 105, 95, 102, 98, 101, 99, 100, 103, 97}
	loose := Adaptive{Precision: Precision{RelErr: 0.05, Confidence: 0.8}, MaxTrials: 100}
	tight := Adaptive{Precision: Precision{RelErr: 0.05, Confidence: 0.999}, MaxTrials: 100}
	lStop, lOK := loose.StopAt(counts)
	tStop, tOK := tight.StopAt(counts)
	if lOK && tOK && tStop < lStop {
		t.Errorf("tighter confidence stopped earlier (%d) than looser (%d)", tStop, lStop)
	}
	if lOK && !tOK {
		// fine: tight target unmet within the prefix
		_ = tStop
	}
	if !lOK {
		t.Errorf("loose target unmet on tight counts (stop=%d)", lStop)
	}
	// A rule with no target is a fixed-trial run: it never fires before
	// MaxTrials — not on a zero-variance prefix either, which meets every
	// target — and fires there whatever the counts.
	fixed := Adaptive{MaxTrials: 5}
	for _, counts := range [][]uint64{{5, 5, 5, 5}, {0, 0, 0}, spread[:4], nil} {
		if stop, ok := fixed.StopAt(counts); ok {
			t.Errorf("no target, %d of 5 trials %v: fired at %d", len(counts), counts, stop)
		}
	}
	for _, counts := range [][]uint64{{5, 5, 5, 5, 5}, spread} {
		if stop, ok := fixed.StopAt(counts); !ok || stop != 5 {
			t.Errorf("no target, %d trials: stop=%d ok=%v, want MaxTrials 5", len(counts), stop, ok)
		}
	}
	if stop, ok := (Adaptive{}).StopAt(spread); !ok || stop != DefaultTrials {
		t.Errorf("no target and no cap: stop=%d ok=%v, want DefaultTrials", stop, ok)
	}
	if stop, ok := (Adaptive{MaxTrials: 1}).StopAt([]uint64{7}); !ok || stop != 1 {
		t.Errorf("no target, one trial: stop=%d ok=%v, want 1", stop, ok)
	}
}

// TestAssembleMatchesRun: Assemble over a run's own counts and per-trial
// stats reproduces the run's estimate exactly.
func TestAssembleMatchesRun(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	g := gen.ErdosRenyi("er", 40, 160, rng)
	q := query.MustByName("glet1")
	sess, err := NewSession(g, q, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.ExtendTo(context.Background(), 5, 1); err != nil {
		t.Fatal(err)
	}
	counts, stats := sess.Run()
	sameEstimate(t, "assemble", Assemble(g.Name, q, counts, stats), sess.Estimate())
}

// TestRelCI sanity: more trials tighten the interval; degenerate cases
// report what the docs promise.
func TestRelCI(t *testing.T) {
	if ci := (Estimate{Trials: 1, MeanColorful: 5}).RelCI(0.95); !math.IsInf(ci, 1) {
		t.Errorf("single trial RelCI = %v, want +Inf", ci)
	}
	if ci := (Estimate{Trials: 4, MeanColorful: 0, VarColorful: 0}).RelCI(0.95); ci != 0 {
		t.Errorf("exact-zero estimate RelCI = %v, want 0", ci)
	}
	few := Estimate{Trials: 4, MeanColorful: 100, VarColorful: 400}
	many := Estimate{Trials: 64, MeanColorful: 100, VarColorful: 400}
	if few.RelCI(0.95) <= many.RelCI(0.95) {
		t.Errorf("CI did not tighten with trials: %v vs %v", few.RelCI(0.95), many.RelCI(0.95))
	}
}

// TestSessionOnTrial: the callback fires once per landed trial with a
// monotonically complete done count, and reports preloads.
func TestSessionOnTrial(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	g := gen.ErdosRenyi("er", 30, 90, rng)
	q := query.Cycle(4)
	sess, err := NewSession(g, q, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	var calls, maxDone int
	sess.OnTrial(func(done int, mean, cv float64) {
		calls++
		if done > maxDone {
			maxDone = done
		}
	})
	if err := sess.ExtendTo(context.Background(), 4, 1); err != nil {
		t.Fatal(err)
	}
	if calls != 4 || maxDone != 4 {
		t.Errorf("onTrial calls=%d maxDone=%d, want 4 and 4", calls, maxDone)
	}
}

// The interval's quantile is Student's t with T−1 degrees of freedom:
// exact up to 30 degrees of freedom, the normal quantile's expansion in
// 1/ν above, which meets it there without a step, and the normal quantile
// itself in the limit. Reference values to four decimals.
func TestQuantileIsStudentsT(t *testing.T) {
	for _, c := range []struct {
		conf   float64
		trials int
		want   float64
	}{
		{0.95, 2, 12.7062}, {0.99, 3, 9.9248}, {0.9, 4, 2.3534}, {0.9, 5, 2.1318},
		{0.95, 11, 2.2281}, {0.95, 31, 2.0423}, {0.95, 32, 2.0395}, {0.95, 164, 1.9746},
		{0.9, 1001, 1.6464}, {0.95, 1 << 30, 1.9600},
	} {
		if got := (Precision{Confidence: c.conf}).quantile(c.trials); math.Abs(got-c.want) > 5e-5 {
			t.Errorf("quantile(%v, %d trials) = %.5f, want %.4f", c.conf, c.trials, got, c.want)
		}
	}
	if q := (Precision{Confidence: 0.9}).quantile(1); !math.IsInf(q, 1) {
		t.Errorf("a single trial's quantile is %v, want +Inf", q)
	}
}
