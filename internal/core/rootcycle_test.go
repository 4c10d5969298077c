package core_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/engine"
	"repro/internal/exact"
	"repro/internal/gen"
	"repro/internal/table"
)

func init() {
	core.Loopback2 = func(t *testing.T, job engine.Job) engine.Backend { return loopback2(t).opts(job).Engine }
}

// A root cycle's join streams a walk table that was never compacted —
// chunks in the order the lanes of however many workers delivered them,
// duplicates unfolded — against an index of the other walk. What a backend
// and its width decide is exactly that order and where the duplicates lie,
// so: every root-cycle shape (plain cycles of 3 to 8 nodes; annotated edges;
// annotated start, inner and end nodes), under each of its plans rooted at
// the cycle and each algorithm, on sim, parallel and a loopback cluster at
// 1, 2, 4 and 7 workers, against the exact enumerator — and supersteps,
// load and table entries, which count the streamed entries and leave the
// streamed table out, equal on all twelve.
func TestStreamedJoinOnEveryBackend(t *testing.T) {
	widths := []int{1, 2, 4, 7}
	plans := 3
	if core.RaceEnabled || testing.Short() {
		widths, plans = []int{2, 7}, 1
	}
	var backends []backend
	for _, w := range widths {
		cluster, err := dist.Loopback(w, dist.WorkerOptions{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cluster.Close() })
		backends = append(backends, local("sim", w), local("parallel", w), backend{fmt.Sprintf("dist@%d", w), func(job engine.Job) core.Options {
			be, err := cluster.NewJob(0, job)
			if err != nil {
				t.Fatal(err)
			}
			return core.Options{Engine: be}
		}})
	}

	rng := rand.New(rand.NewSource(24))
	g := gen.ErdosRenyi("er", 48, 170, rng)
	for _, q := range core.RootCycleShapes() {
		colors := make([]uint8, g.N())
		for i := range colors {
			colors[i] = uint8(rng.Intn(q.K))
		}
		want := exact.ColorfulMatches(g, q, colors)
		for _, plan := range core.RootCyclePlans(t, q, plans) {
			for _, alg := range []core.Algorithm{core.DB, core.PS, core.PSEven} {
				var ref core.Stats
				for i, be := range backends {
					opts := be.opts(engine.Job{N: g.N(), Graph: g, Colors: colors, Query: q, Plan: plan, Algorithm: int(alg), Mode: engine.ModeCount})
					opts.Algorithm, opts.Plan = alg, plan
					got, st, err := core.CountColorful(g, q, colors, opts)
					if err != nil {
						t.Fatal(err)
					}
					if got != want {
						t.Fatalf("%s %s on %s, plan %s: counted %d, exact enumeration %d", q.Name, alg, be.name, plan.Encode(), got, want)
					}
					if i == 0 {
						ref = st
					}
					if st.Supersteps != ref.Supersteps || st.TotalLoad != ref.TotalLoad || st.TableEntries != ref.TableEntries {
						t.Fatalf("%s %s on %s, plan %s: %d supersteps, load %d, %d table entries; on %s %d, %d, %d", q.Name, alg, be.name, plan.Encode(),
							st.Supersteps, st.TotalLoad, st.TableEntries, backends[0].name, ref.Supersteps, ref.TotalLoad, ref.TableEntries)
					}
				}
			}
		}
	}
}

// rootPulls counts the pulls that build no table: a root cycle's pulled
// joins.
type rootPulls struct {
	engine.Backend
	n int
}

func (b *rootPulls) Pull(out, src *engine.Sharded, task func(int, *table.Flat, *engine.Lanes) int) bool {
	if !b.Backend.Pull(out, src, task) {
		return false
	}
	if out == nil {
		b.n++
	}
	return true
}

// A root join whose streamed walk's last step is a plain data edge takes
// that step itself where the backend can pull (sim, parallel) and never
// builds the walk; a loopback cluster, which cannot, builds it and streams
// it. The two forms are one join: over every root-cycle shape, each of its
// plans rooted at the cycle and each algorithm, the counts are exact in
// both, and the pulled form's supersteps, load and table entries are the
// streamed form's — it charges what the step and the streamed join charged.
// And the pull ran: every join that streams a pending walk whose last step
// is a plain data edge out of a built prefix (PlainEdgeStreams) is one Pull
// with no output table on sim and parallel, so a join that fell back to
// streaming fails here.
func TestPulledRootJoinIsStreamed(t *testing.T) {
	plans := 3
	if core.RaceEnabled || testing.Short() {
		plans = 1
	}
	dist2 := loopback2(t)
	rng := rand.New(rand.NewSource(35))
	g := gen.ErdosRenyi("er", 48, 170, rng)
	pulled := 0
	for _, q := range core.RootCycleShapes() {
		colors := make([]uint8, g.N())
		for i := range colors {
			colors[i] = uint8(rng.Intn(q.K))
		}
		want := exact.ColorfulMatches(g, q, colors)
		for _, plan := range core.RootCyclePlans(t, q, plans) {
			for _, alg := range []core.Algorithm{core.DB, core.PS, core.PSEven} {
				job := engine.Job{N: g.N(), Graph: g, Colors: colors, Query: q, Plan: plan, Algorithm: int(alg), Mode: engine.ModeCount}
				got, ref, err := core.CountColorful(g, q, colors, core.Options{Engine: dist2.opts(job).Engine, Algorithm: alg, Plan: plan})
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("%s %s on %s, plan %s: counted %d, exact enumeration %d", q.Name, alg, dist2.name, plan.Encode(), got, want)
				}
				pulls := core.PlainEdgeStreams(t, g, q, colors, plan, alg)
				pulled += pulls
				for _, be := range []*rootPulls{{Backend: engine.NewCluster(2, g.N())}, {Backend: engine.NewParallel(2, g.N())}} {
					got, st, err := core.CountColorful(g, q, colors, core.Options{Engine: be, Algorithm: alg, Plan: plan})
					if err != nil {
						t.Fatal(err)
					}
					if got != want || be.n != pulls {
						t.Fatalf("%s %s on %s, plan %s: counted %d in %d pulled joins; exact enumeration %d, %d joins that may pull",
							q.Name, alg, be.Name(), plan.Encode(), got, be.n, want, pulls)
					}
					if st.Supersteps != ref.Supersteps || st.TotalLoad != ref.TotalLoad || st.TableEntries != ref.TableEntries {
						t.Fatalf("%s %s on %s, plan %s: %d supersteps, load %d, %d table entries; streamed on %s %d, %d, %d", q.Name, alg, be.Name(), plan.Encode(),
							st.Supersteps, st.TotalLoad, st.TableEntries, dist2.name, ref.Supersteps, ref.TotalLoad, ref.TableEntries)
					}
				}
			}
		}
	}
	if pulled == 0 {
		t.Fatal("no join of the suite may pull")
	}
}
