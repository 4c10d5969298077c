package subgraph

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// End-to-end smoke test through the public API only.
func TestPublicAPIEndToEnd(t *testing.T) {
	g := GeneratePowerLaw("pl", 500, 1.6, 1)
	if g.N() != 500 || g.M() == 0 {
		t.Fatalf("generator: N=%d M=%d", g.N(), g.M())
	}
	q, err := QueryByName("glet1")
	if err != nil {
		t.Fatal(err)
	}
	colors := RandomColoring(g, q, 2)
	cPS, _, err := CountColorful(g, q, colors, CountOptions{Algorithm: PS, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	cDB, stats, err := CountColorful(g, q, colors, CountOptions{Algorithm: DB, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if cPS != cDB {
		t.Fatalf("PS %d != DB %d", cPS, cDB)
	}
	if stats.Workers != 2 || stats.TotalLoad == 0 {
		t.Fatalf("stats: %+v", stats)
	}
	est, err := Estimate(g, q, EstimateOptions{Trials: 3, Seed: 5, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if est.Trials != 3 || est.Matches < 0 {
		t.Fatalf("estimate: %+v", est)
	}
	per, anchor, _, err := CountColorfulPerVertex(g, q, colors, -1, CountOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	var sum uint64
	for _, c := range per {
		sum += c
	}
	if sum != cDB {
		t.Fatalf("per-vertex sum %d != total %d (anchor %d)", sum, cDB, anchor)
	}
}

func TestFacadeHelpers(t *testing.T) {
	if len(Queries()) != 10 {
		t.Fatal("catalog size")
	}
	if _, err := QueryByName("cycle6"); err != nil {
		t.Fatal(err)
	}
	if _, err := QueryByName("bogus"); err == nil {
		t.Fatal("unknown query accepted")
	}
	q, _ := QueryByName("glet2")
	plans, err := EnumeratePlans(q)
	if err != nil || len(plans) != 1 {
		t.Fatalf("plans: %v %v", plans, err)
	}
	p, err := Plan(q)
	if err != nil || p.Root == nil {
		t.Fatalf("plan: %v %v", p, err)
	}
	if ScaleFactor(3) != 4.5 {
		t.Fatal("ScaleFactor")
	}
	if _, ok := Standin("enron", 64, 1); !ok {
		t.Fatal("enron stand-in missing")
	}
	g, err := ReadGraph("r", strings.NewReader("0 1\n1 2\n"))
	if err != nil || g.M() != 2 {
		t.Fatalf("ReadGraph: %v %v", g, err)
	}
	path := filepath.Join(t.TempDir(), "r.edges")
	if err := os.WriteFile(path, []byte("# a path\n0 1\n1 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if fromDisk, err := LoadGraph(path); err != nil || fromDisk.Fingerprint() != g.Fingerprint() {
		t.Fatalf("LoadGraph: %v %v, want the graph ReadGraph made", fromDisk, err)
	}
	if _, err := LoadGraph(path + ".missing"); err == nil {
		t.Fatal("LoadGraph of a missing file succeeded")
	}
	tiny := NewGraph("tiny", 3, [][2]uint32{{0, 1}, {1, 2}, {0, 2}})
	tri := NewQuery("tri", 3, [][2]int{{0, 1}, {1, 2}, {0, 2}})
	if got := ExactCount(tiny, tri); got != 6 {
		t.Fatalf("ExactCount = %d", got)
	}
	read, err := ReadQuery("tri", strings.NewReader("# a triangle\n0 1\n1 2\n0 2\n"))
	if err != nil || read.String() != tri.String() {
		t.Fatalf("ReadQuery: %v %v, want %v", read, err, tri)
	}
	if _, err := ReadQuery("bad", strings.NewReader("0 x\n")); err == nil {
		t.Fatal("ReadQuery accepted a non-numeric node")
	}
	if b, err := CanonicalBackend("parallel"); err != nil || b != "parallel" {
		t.Fatalf("CanonicalBackend(parallel) = %q, %v", b, err)
	}
	if _, err := CanonicalBackend("paralel"); err == nil {
		t.Fatal("CanonicalBackend accepted a typo")
	}
	gone, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := CountColorfulContext(gone, tiny, tri, []uint8{0, 1, 2}, CountOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("CountColorfulContext under a canceled context: %v", err)
	}
	if c, _, err := CountColorfulContext(context.Background(), tiny, tri, []uint8{0, 1, 2}, CountOptions{}); err != nil || c != 6 {
		t.Fatalf("CountColorfulContext = %d, %v, want the triangle's 6 colourful matches", c, err)
	}
	rm := GenerateRMAT("rm", 8, 4, 3)
	if rm.N() != 256 {
		t.Fatalf("RMAT N = %d", rm.N())
	}
}

// TestSessionMatchesEstimate: the public incremental handle advanced T
// times equals Estimate with Trials: T bit-for-bit, on both backends.
func TestSessionMatchesEstimate(t *testing.T) {
	g := GeneratePowerLaw("pl", 400, 1.6, 9)
	q, err := QueryByName("glet1")
	if err != nil {
		t.Fatal(err)
	}
	for _, backend := range []string{"sim", "parallel"} {
		opts := EstimateOptions{Seed: 4, Backend: backend, Workers: 3}
		sess, err := NewSession(g, q, opts)
		if err != nil {
			t.Fatal(err)
		}
		for T := 1; T <= 5; T++ {
			if _, err := sess.Next(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
		if sess.Trials() != 5 {
			t.Errorf("%s: session reports %d trials after 5", backend, sess.Trials())
		}
		opts.Trials = 5
		batch, err := Estimate(g, q, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := sess.Estimate(), batch; !reflect.DeepEqual(got, want) {
			t.Errorf("%s: session differs from batch:\n%+v\n%+v", backend, got, want)
		}
	}
}

// TestEstimateSpecAdaptive: a declared-precision Estimate stops at some
// T within the bounds and equals the fixed Trials: T run; the session's
// Met reports the reached target.
func TestEstimateSpecAdaptive(t *testing.T) {
	g := GeneratePowerLaw("pl", 400, 1.6, 9)
	q, err := QueryByName("glet1")
	if err != nil {
		t.Fatal(err)
	}
	target := Precision{RelErr: 0.4, Confidence: 0.9}
	est, err := Estimate(g, q, EstimateOptions{
		Seed: 4, Workers: 2,
		Spec: Spec{Precision: target, MaxTrials: 64},
	})
	if err != nil {
		t.Fatal(err)
	}
	if est.Trials < 2 || est.Trials > 64 {
		t.Fatalf("adaptive trials = %d, want within [2,64]", est.Trials)
	}
	fixed, err := Estimate(g, q, EstimateOptions{Seed: 4, Workers: 2, Trials: est.Trials})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(est, fixed) {
		t.Fatalf("adaptive estimate differs from fixed at T=%d:\n%+v\n%+v", est.Trials, est, fixed)
	}
	if est.Trials < 64 && est.RelCI(0.9) > 0.4 {
		t.Errorf("early stop at %d trials but observed RelCI %.3f > target", est.Trials, est.RelCI(0.9))
	}

	sess, err := NewSession(g, q, EstimateOptions{Seed: 4, Workers: 2, Spec: Spec{Precision: target, MaxTrials: 64}})
	if err != nil {
		t.Fatal(err)
	}
	got, err := sess.RunToSpec(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got.Trials != est.Trials {
		t.Errorf("session RunToSpec stopped at %d, Estimate at %d", got.Trials, est.Trials)
	}
	if !sess.Met(target) {
		t.Error("session does not report the reached target as met")
	}

	// Met must answer for the target alone — reaching the spec's trial
	// cap with the target unmet must not read as met (unlike the
	// stopping rule, which fires at the cap so bounded runs resolve).
	capped, err := NewSession(g, q, EstimateOptions{Seed: 4, Workers: 2, Spec: Spec{Precision: target, MaxTrials: 4}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := capped.Next(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	tight := Precision{RelErr: 1e-9, Confidence: 0.999}
	if capped.Estimate().RelCI(0.999) > tight.RelErr && capped.Met(tight) {
		t.Error("Met reported an unmet target as satisfied at the trial cap")
	}
}

// TestEstimateBackendEquivalence: the public estimator must return
// bit-identical trial counts under both execution backends, at any worker
// count — the backend knob changes the runtime, never the answer.
func TestEstimateBackendEquivalence(t *testing.T) {
	g := GeneratePowerLaw("pl", 400, 1.6, 9)
	for _, qn := range []string{"glet1", "cycle5", "brain1"} {
		q, err := QueryByName(qn)
		if err != nil {
			t.Fatal(err)
		}
		sim, err := Estimate(g, q, EstimateOptions{Trials: 3, Seed: 4, Backend: "sim", Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 3, 8} {
			par, err := Estimate(g, q, EstimateOptions{Trials: 3, Seed: 4, Backend: "parallel", Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(sim.Counts, par.Counts) || sim.Matches != par.Matches || sim.CV != par.CV {
				t.Errorf("%s w=%d: backends diverged:\nsim      %v %.3f\nparallel %v %.3f",
					qn, workers, sim.Counts, sim.Matches, par.Counts, par.Matches)
			}
			if par.Stats.Backend != "parallel" || par.Stats.Messages != 0 {
				t.Errorf("%s w=%d: parallel stats malformed: %+v", qn, workers, par.Stats)
			}
		}
	}
}

// What the CLIs and examples print of a query, a graph, a plan and an
// estimate is each type's String form; one small instance of each, pinned.
func TestStringForms(t *testing.T) {
	g := NewGraph("tiny", 4, [][2]uint32{{0, 1}, {1, 2}, {0, 2}, {2, 3}})
	q := NewQuery("paw", 4, [][2]int{{0, 1}, {1, 2}, {0, 2}, {2, 3}})
	plan, err := Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		got  fmt.Stringer
		want string
	}{
		{"query", q, "paw(k=4): 0-1 1-2 0-2 2-3"},
		{"graph stats", g.Stats(), "tiny                   4 nodes          4 edges  avg   2.0  max      3"},
		{"block kind", plan.Root.Kind, "singleton"},
		{"block", plan.Root, "singleton[2] bnd[]"},
		{"plan", plan, "singleton[2] bnd[]\n  leaf[2 3] bnd[2]\n    cycle[0 1 2] bnd[2]\n"},
		{"estimate", Estimation{Graph: "tiny", Query: "paw", Trials: 3, Matches: 12.5, Subgraphs: 6.25, CV: 0.5},
			"paw on tiny: ≈12.5 matches (≈6.2 subgraphs) from 3 trials, CV 0.500"},
	} {
		if got := c.got.String(); got != c.want {
			t.Errorf("%s prints %q, want %q", c.name, got, c.want)
		}
	}
}
