package core_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/engine"
	"repro/internal/exact"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/query"
)

// backend is one runtime an equivalence test runs an instance on: opts
// returns the options that select it for job.
type backend struct {
	name string
	opts func(job engine.Job) core.Options
}

func local(name string, workers int) backend {
	return backend{fmt.Sprintf("%s@%d", name, workers), func(engine.Job) core.Options {
		return core.Options{Backend: name, Workers: workers}
	}}
}

// equivalenceBackends returns the runtimes whose counts and content-
// determined counters must agree: sim at four ranks (the reference) and at
// one, parallel at one, two and three workers, sim at two ranks over five
// partitions (bands of three and two, where the grain rule cuts eight), and
// a two-rank loopback cluster that lives as long as the test.
func equivalenceBackends(t *testing.T) []backend {
	return []backend{
		local("sim", 4), local("sim", 1), local("parallel", 1), local("parallel", 2), local("parallel", 3),
		{"sim@2 over 5 partitions", func(job engine.Job) core.Options {
			return core.Options{Engine: engine.NewRuntime(engine.SimName, 5, 2, job.N)}
		}},
		loopback2(t),
	}
}

// loopback2 returns a two-rank loopback cluster that lives as long as the
// test.
func loopback2(t *testing.T) backend {
	cluster, err := dist.Loopback(2, dist.WorkerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cluster.Close() })
	return backend{"dist@2", func(job engine.Job) core.Options {
		be, err := cluster.NewJob(0, job)
		if err != nil {
			t.Fatal(err)
		}
		return core.Options{Engine: be}
	}}
}

// Building each distinct walk once, joining identical splits once and
// dropping the start from leaf walks change how often a table is built and
// how much an entry carries — never a count, and never differently on one
// backend than on another: every catalog query and a few hundred random
// treewidth-2 queries, under all three algorithms, scalar and per vertex,
// on sim, on parallel at one, two and three workers and on a two-rank
// loopback cluster, against the exact enumerator and against each other.
// The work counters that are content-determined — supersteps, load, table
// entries — must agree across the backends as well. On every sim runtime,
// whatever its cut, the pushed steps book the same messages, and each
// pulled step books the rows it reads from other partitions.
func TestSharingIsInvisible(t *testing.T) {
	draws := 200
	if core.RaceEnabled || testing.Short() {
		draws = 20
	}
	backends := equivalenceBackends(t)

	rng := rand.New(rand.NewSource(16))
	check := func(g *graph.Graph, q *query.Graph) {
		colors := make([]uint8, g.N())
		for i := range colors {
			colors[i] = uint8(rng.Intn(q.K))
		}
		plan, err := core.PickPlan(q)
		if err != nil {
			t.Fatal(err)
		}
		anchor := plan.Root.Nodes[0]
		want := exact.ColorfulMatches(g, q, colors)
		wantPer := exact.ColorfulMatchesPerVertex(g, q, colors, anchor)
		for _, alg := range []core.Algorithm{core.PS, core.PSEven, core.DB} {
			var ref, refPer core.Stats
			var simPushed [2]int64 // the first sim leg's pushed steps' messages, scalar and per vertex
			seenSim := false
			for i, be := range backends {
				run := func(mode engine.JobMode) (*booking, core.Options) {
					job := engine.Job{N: g.N(), Graph: g, Colors: colors, Query: q, Plan: plan, Algorithm: int(alg), Mode: mode, Anchor: anchor}
					opts := be.opts(job)
					if opts.Engine == nil {
						e, err := engine.New(opts.Backend, opts.Workers, job)
						if err != nil {
							t.Fatal(err)
						}
						opts.Engine = e
					}
					var bk *booking
					if opts.Engine.Name() == engine.SimName {
						bk = &booking{Backend: opts.Engine, g: g}
						opts.Engine = bk
					}
					opts.Algorithm, opts.Plan = alg, plan
					return bk, opts
				}
				bk, opts := run(engine.ModeCount)
				got, st, err := core.CountColorful(g, q, colors, opts)
				if err != nil {
					t.Fatal(err)
				}
				bkPer, opts := run(engine.ModePerVertex)
				per, _, stPer, err := core.CountColorfulPerVertex(g, q, colors, anchor, opts)
				if err != nil {
					t.Fatal(err)
				}
				if got != want || !slices.Equal(per, wantPer) {
					t.Fatalf("%s %s on %s: counted %d, exact enumeration %d; per-vertex equal: %v\nquery: %s",
						q.Name, alg, be.name, got, want, slices.Equal(per, wantPer), q)
				}
				if i == 0 {
					ref, refPer = st, stPer
				}
				for j, c := range []struct {
					mode    string
					st, ref core.Stats
					bk      *booking
				}{{"scalar", st, ref, bk}, {"per-vertex", stPer, refPer, bkPer}} {
					if c.st.Supersteps != c.ref.Supersteps || c.st.TotalLoad != c.ref.TotalLoad || c.st.TableEntries != c.ref.TableEntries {
						t.Fatalf("%s %s %s on %s: %d supersteps, load %d, %d table entries; on %s %d, %d, %d\nquery: %s",
							q.Name, alg, c.mode, be.name, c.st.Supersteps, c.st.TotalLoad, c.st.TableEntries,
							backends[0].name, c.ref.Supersteps, c.ref.TotalLoad, c.ref.TableEntries, q)
					}
					if c.st.Backend == engine.ParallelName && c.st.Messages != 0 {
						t.Fatalf("%s %s %s on %s: %d messages", q.Name, alg, c.mode, be.name, c.st.Messages)
					}
					if c.bk == nil {
						continue
					}
					var pushed, booked int64
					for s, b := range c.bk.steps {
						booked += b.msgs
						if !b.pulled {
							pushed += b.msgs
						} else if b.msgs != b.remote {
							t.Fatalf("%s %s %s on %s: pulled superstep %d booked %d messages, read %d rows from other partitions\nquery: %s",
								q.Name, alg, c.mode, be.name, s, b.msgs, b.remote, q)
						}
					}
					if booked != c.st.Messages {
						t.Fatalf("%s %s %s on %s: %d messages, %d booked by its supersteps", q.Name, alg, c.mode, be.name, c.st.Messages, booked)
					}
					if !seenSim {
						simPushed[j] = pushed
					} else if pushed != simPushed[j] {
						t.Fatalf("%s %s %s on %s: pushed steps booked %d messages; on the first sim runtime %d\nquery: %s",
							q.Name, alg, c.mode, be.name, pushed, simPushed[j], q)
					}
				}
				seenSim = seenSim || bk != nil
			}
		}
	}
	g := gen.ErdosRenyi("er", 60, 240, rng)
	for _, q := range query.Catalog() {
		check(g, q)
	}
	for i := 0; i < draws; i++ {
		n := 20 + rng.Intn(40)
		check(gen.ErdosRenyi("er", n, int64(2+rng.Intn(5))*int64(n)/2, rng), core.RandomTW2Query(rng))
	}
}
