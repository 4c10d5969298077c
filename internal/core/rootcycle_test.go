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
)

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
