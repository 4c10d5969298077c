package core

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/exact"
	"repro/internal/gen"
	"repro/internal/query"
)

// The tentpole guarantee: the sim and parallel backends are
// interchangeable — bit-identical counts on every query shape, algorithm,
// and worker count, because the runtime only decides where commutative
// accumulations happen, never which ones.

func TestBackendEquivalenceCatalog(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g := gen.PowerLawGraph("pl", 500, 1.5, rng)
	queries := append(query.Catalog(), query.MustByName("satellite"), query.Cycle(6), query.Star(5))
	for _, q := range queries {
		colors := randColors(g.N(), q.K, rng)
		for _, alg := range []Algorithm{PS, DB} {
			want := count(t, g, q, colors, Options{Algorithm: alg, Backend: "sim", Workers: 4})
			for _, workers := range []int{1, 2, 3, 8} {
				got := count(t, g, q, colors, Options{Algorithm: alg, Backend: "parallel", Workers: workers})
				if got != want {
					t.Errorf("%s %s: parallel w=%d got %d, sim got %d", q.Name, alg, workers, got, want)
				}
			}
		}
	}
}

// Randomized property: random graphs × random treewidth-2 queries ×
// random worker counts, sim vs parallel, all three algorithms.
func TestBackendEquivalenceRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 25; trial++ {
		n := 30 + rng.Intn(120)
		g := gen.ErdosRenyi("er", n, int64(2+rng.Intn(5))*int64(n)/2, rng)
		q := randomTW2Query(rng)
		colors := randColors(g.N(), q.K, rng)
		alg := []Algorithm{PS, PSEven, DB}[rng.Intn(3)]
		want := count(t, g, q, colors, Options{Algorithm: alg, Backend: "sim", Workers: 1 + rng.Intn(6)})
		got := count(t, g, q, colors, Options{Algorithm: alg, Backend: "parallel", Workers: 1 + rng.Intn(6)})
		if got != want {
			t.Fatalf("trial %d: %s on %s: parallel %d != sim %d", trial, alg, q.Name, got, want)
		}
	}
}

// The parallel backend sizes its partitions from the vertex count, not the
// worker count, so the two no longer divide: up to 143 vertices make 8
// partitions — more partitions than vertices below 8 — and 1000 make 62,
// a multiple of none of the worker counts above 2. On both sides of those
// edges, at every worker count, its counts must equal sim's and the exact
// enumerator's, in scalar and in per-vertex mode.
func TestParallelGrainEdgesMatchSimAndExact(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, n := range []int{0, 1, 2, 7, 8, 9, 1000} {
		g := gen.ErdosRenyi("er", n, int64(3*(n/2*2)), rng) // no edge to draw on 0 or 1 vertices
		for _, qn := range []string{"path3", "cycle4", "glet1", "brain1", "satellite"} {
			q := query.MustByName(qn)
			colors := randColors(n, q.K, rng)
			want := exact.ColorfulMatches(g, q, colors)
			if got := count(t, g, q, colors, Options{Backend: "sim", Workers: 3}); got != want {
				t.Fatalf("%s on %d vertices: sim counted %d, exact enumeration %d", qn, n, got, want)
			}
			var wantPer []uint64 // for the plan's default anchor, known after the first run
			for _, workers := range []int{1, 2, 3, 5, 8} {
				opts := Options{Backend: "parallel", Workers: workers}
				if got := count(t, g, q, colors, opts); got != want {
					t.Errorf("%s on %d vertices: parallel w=%d counted %d, exact enumeration %d", qn, n, workers, got, want)
				}
				per, anchor, _, err := CountColorfulPerVertex(g, q, colors, -1, opts)
				if err != nil {
					t.Fatal(err)
				}
				if wantPer == nil {
					wantPer = exact.ColorfulMatchesPerVertex(g, q, colors, anchor)
				}
				if !slices.Equal(per, wantPer) {
					t.Errorf("%s on %d vertices: parallel w=%d per-vertex counts differ from exact enumeration", qn, n, workers)
				}
			}
		}
	}
}

// Per-vertex counts must agree vertex for vertex across backends.
func TestBackendEquivalencePerVertex(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	g := gen.PowerLawGraph("pl", 300, 1.6, rng)
	for _, qn := range []string{"glet1", "brain1", "cycle5"} {
		q := query.MustByName(qn)
		colors := randColors(g.N(), q.K, rng)
		simPer, simAnchor, _, err := CountColorfulPerVertex(g, q, colors, -1, Options{Backend: "sim", Workers: 3})
		if err != nil {
			t.Fatal(err)
		}
		parPer, parAnchor, _, err := CountColorfulPerVertex(g, q, colors, -1, Options{Backend: "parallel", Workers: 5})
		if err != nil {
			t.Fatal(err)
		}
		if simAnchor != parAnchor {
			t.Fatalf("%s: anchors diverged: %d vs %d", qn, simAnchor, parAnchor)
		}
		if !reflect.DeepEqual(simPer, parPer) {
			t.Errorf("%s: per-vertex counts diverged between backends", qn)
		}
	}
}

// Stats shape: each backend reports its own name and the counters that
// exist for it — messages for sim, none for parallel.
func TestBackendStats(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := gen.PowerLawGraph("pl", 400, 1.5, rng)
	q := query.MustByName("glet1")
	colors := randColors(g.N(), q.K, rng)

	_, sim, err := CountColorful(g, q, colors, Options{Backend: "sim", Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if sim.Backend != "sim" || sim.Workers != 3 || sim.Messages <= 0 || sim.Steals != 0 || len(sim.Loads) != 3 {
		t.Errorf("sim stats malformed: %+v", sim)
	}
	_, par, err := CountColorful(g, q, colors, Options{Backend: "parallel", Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if par.Backend != "parallel" || par.Workers != 3 || par.Messages != 0 || len(par.Loads) != 3 {
		t.Errorf("parallel stats malformed: %+v", par)
	}
	if par.TotalLoad != sim.TotalLoad {
		// Load is charged per scanned operation, which is content-
		// determined — the backends must agree on the work they did.
		t.Errorf("total load diverged: parallel %d, sim %d", par.TotalLoad, sim.TotalLoad)
	}
}

func TestBackendUnknownRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := gen.ErdosRenyi("er", 20, 40, rng)
	q := query.Cycle(4)
	colors := randColors(g.N(), q.K, rng)
	if _, _, err := CountColorful(g, q, colors, Options{Backend: "mpi"}); err == nil {
		t.Fatal("unknown backend accepted")
	}
	if _, _, _, err := CountColorfulPerVertex(g, q, colors, -1, Options{Backend: "mpi"}); err == nil {
		t.Fatal("unknown backend accepted by per-vertex path")
	}
}

// Cancellation must reach the parallel backend's worker loops exactly as
// it reaches the sim's: a mid-run cancel frees the call promptly.
func TestParallelBackendCancelMidRun(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := gen.PowerLawGraph("pl", 30000, 1.5, rng)
	q := query.MustByName("brain3") // ~0.4 s uncanceled
	colors := randColors(g.N(), q.K, rand.New(rand.NewSource(3)))

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := CountColorfulContext(ctx, g, q, colors, Options{Backend: "parallel", Workers: 4})
		done <- err
	}()
	time.Sleep(100 * time.Millisecond)
	cancel()
	start := time.Now()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if freed := time.Since(start); freed > 2*time.Second {
			t.Errorf("run kept burning %v after cancel", freed)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("canceled run never returned")
	}
}

// Guard against a quietly sequential "parallel" backend: worker counts
// above one must actually engage more than one goroutine. Proven through
// the steal counter being well-defined and the run completing with loads
// spread across workers.
func TestParallelBackendSpreadsLoad(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	g := gen.PowerLawGraph("pl", 2000, 1.5, rng)
	q := query.MustByName("glet1")
	colors := randColors(g.N(), q.K, rng)
	_, st, err := CountColorful(g, q, colors, Options{Backend: "parallel", Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	nonZero := 0
	for _, l := range st.Loads {
		if l > 0 {
			nonZero++
		}
	}
	if nonZero < 2 {
		t.Errorf("load on %d of %d workers; partitioning is broken: %+v", nonZero, len(st.Loads), st.Loads)
	}
}
