package core_test

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/query"
	"repro/internal/table"
)

// pushOnly is a backend that cannot pull, as a dist process cannot: every
// start-free walk's data-edge step runs in push form.
type pushOnly struct{ engine.Backend }

func (pushOnly) Pull(*engine.Sharded, *engine.Sharded, func(int, *table.Flat, *engine.Lanes) int) bool {
	return false
}

// booking records, for each superstep its backend runs, the messages the
// backend books for it and whether it was pulled, and for a pulled one the
// rows it reads from other partitions, counted apart from the solver: one
// per arc (v, u) of g whose ends lie in different partitions and whose
// source shard holds u's row (an open box).
type booking struct {
	engine.Backend
	g     *graph.Graph
	steps []booked
}

type booked struct {
	pulled       bool
	msgs, remote int64
}

func (b *booking) Step(out *engine.Sharded, produce func(int, *engine.Lanes)) {
	before := b.Messages()
	b.Backend.Step(out, produce)
	b.steps = append(b.steps, booked{msgs: b.Messages() - before})
}

func (b *booking) Pull(out, src *engine.Sharded, task func(int, *table.Flat, *engine.Lanes) int) bool {
	before := b.Messages()
	if !b.Backend.Pull(out, src, task) {
		return false
	}
	b.steps = append(b.steps, booked{pulled: true, msgs: b.Messages() - before, remote: b.remoteRows(src)})
	return true
}

func (b *booking) remoteRows(src *engine.Sharded) (n int64) {
	if src == nil {
		return 0
	}
	for v := range uint32(b.g.N()) {
		for _, u := range b.g.Neighbors(v) {
			if w := b.Owner(u); w != b.Owner(v) {
				if row, _ := src.Shard(w).Row(u); row != nil {
					n++
				}
			}
		}
	}
	return n
}

// pulled is how many of the steps were pulled, and the rows they read
// from other partitions.
func (b *booking) pulled() (steps int, remote int64) {
	for _, st := range b.steps {
		if st.pulled {
			steps++
			remote += st.remote
		}
	}
	return steps, remote
}

// A start-free walk's data-edge step in pull form — each vertex's owner
// sums its neighbours' rows into its own — is the push form's step, which
// scatters each row to the neighbours' owners, run the other way round: the
// same tables, so the same counts, scalar and per vertex, and the same
// content-determined counters — supersteps, the load of every worker,
// table entries — on sim and parallel, where shards are boxed, where some
// are over the cap (a partition each of 1405 vertices at three ranks: those
// steps' outputs are entries, and the steps that read them push) and where
// some partitions hold no vertex (7 vertices cut into 8). Superstep by
// superstep, a step both runs push books the same messages in each, and a
// pulled step books on sim the rows it reads from other partitions.
func TestPullIsPush(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	dense := gen.ErdosRenyi("dense", 400, 3000, rng)
	mixed := gen.ErdosRenyi("mixed", 1405, 1800, rng)
	tiny := gen.ErdosRenyi("tiny", 7, 18, rng)
	runtimes := map[string]func(n int) engine.Backend{
		"sim@3":                   func(n int) engine.Backend { return engine.NewCluster(3, n) },
		"parallel@2":              func(n int) engine.Backend { return engine.NewParallel(2, n) },
		"sim@3, a partition each": func(n int) engine.Backend { return engine.NewRuntime(engine.SimName, 3, 3, n) },
	}
	for _, c := range []struct {
		g *graph.Graph
		q *query.Graph
	}{
		{dense, query.MustByName("bintree8")},
		{dense, query.PathGraph(7)},
		{dense, query.Star(6)},
		{dense, query.MustByName("wiki")},
		{dense, query.MustByName("ecoli1")},
		{dense, query.MustByName("satellite")},
		{mixed, query.MustByName("bintree8")},
		{tiny, query.PathGraph(4)},
		{tiny, query.Star(4)},
	} {
		colors := make([]uint8, c.g.N())
		for i := range colors {
			colors[i] = uint8(rng.Intn(c.q.K))
		}
		plan, err := core.PickPlan(c.q)
		if err != nil {
			t.Fatal(err)
		}
		anchor := plan.Root.Nodes[0]
		for name, mk := range runtimes {
			books := func() *booking { return &booking{Backend: mk(c.g.N()), g: c.g} }
			pull, push, pullPer, pushPer := books(), books(), books(), books()
			got, st, err := core.CountColorful(c.g, c.q, colors, core.Options{Engine: pull, Plan: plan})
			if err != nil {
				t.Fatal(err)
			}
			want, wantSt, err := core.CountColorful(c.g, c.q, colors, core.Options{Engine: pushOnly{push}, Plan: plan})
			if err != nil {
				t.Fatal(err)
			}
			per, _, stPer, err := core.CountColorfulPerVertex(c.g, c.q, colors, anchor, core.Options{Engine: pullPer, Plan: plan})
			if err != nil {
				t.Fatal(err)
			}
			wantPer, _, wantStPer, err := core.CountColorfulPerVertex(c.g, c.q, colors, anchor, core.Options{Engine: pushOnly{pushPer}, Plan: plan})
			if err != nil {
				t.Fatal(err)
			}
			if got != want || !slices.Equal(per, wantPer) {
				t.Fatalf("%s on %s, %s: pulled %d, pushed %d; per vertex equal: %v", c.q.Name, c.g.Name, name, got, want, slices.Equal(per, wantPer))
			}
			for _, p := range []struct {
				st, want   core.Stats
				pull, push *booking
			}{{st, wantSt, pull, push}, {stPer, wantStPer, pullPer, pushPer}} {
				p.st.Steals, p.want.Steals = 0, 0 // scheduling, not content
				if !slices.Equal(p.st.Loads, p.want.Loads) || p.st.Supersteps != p.want.Supersteps || p.st.TableEntries != p.want.TableEntries ||
					len(p.pull.steps) != len(p.push.steps) {
					t.Errorf("%s on %s, %s: pulled %+v, pushed %+v", c.q.Name, c.g.Name, name, p.st, p.want)
					continue
				}
				for i, b := range p.pull.steps {
					want := p.push.steps[i].msgs
					if b.pulled {
						want = 0
						if p.st.Backend == engine.SimName {
							want = b.remote
						}
					}
					if b.msgs != want {
						t.Errorf("%s on %s, %s: superstep %d (pulled: %v) booked %d messages, want %d", c.q.Name, c.g.Name, name, i, b.pulled, b.msgs, want)
					}
				}
			}
			if tree := len(plan.Root.Children) > 0 && c.q.M() == c.q.K-1; tree {
				if n, _ := pull.pulled(); n == 0 {
					t.Errorf("%s on %s, %s: no step pulled", c.q.Name, c.g.Name, name)
				}
			}
		}
	}
}

// At the benchmark's scale — tree8-90k's instance, bintree8 on the enron
// stand-in at scale 2, every table a leaf block's matrix — parallel@2 and
// sim@4, which pull, and dist@2, which pushes, agree on the count and on
// every content-determined counter, per-worker loads included; and each of
// those is what the push form counted before the pull form existed. sim@4's
// messages are the rows its pulled steps read from other partitions.
func TestPullAndPushAgreeAtScale(t *testing.T) {
	g, q, colors := tree8(t, 4)
	plan, err := core.PickPlan(q)
	if err != nil {
		t.Fatal(err)
	}
	const (
		count      = 343008068596418
		supersteps = 7
		totalLoad  = 16919987
		simMsgs    = 537732
	)
	wantLoads := map[int][]int64{2: {13157955, 3762032}, 4: {10195723, 2962232, 1960024, 1802008}} // by workers
	dist2 := loopback2(t)
	job := engine.Job{N: g.N(), Graph: g, Colors: colors, Query: q, Plan: plan, Mode: engine.ModeCount}
	legs := []struct {
		name  string
		be    func() engine.Backend
		pulls bool
	}{
		{"parallel@2", func() engine.Backend { return engine.NewParallel(2, g.N()) }, true},
		{"sim@4", func() engine.Backend { return engine.NewCluster(4, g.N()) }, true},
		{dist2.name, func() engine.Backend { return dist2.opts(job).Engine }, false},
	}
	if testing.Short() || core.RaceEnabled {
		legs = legs[:1]
	}
	for _, leg := range legs {
		be := &booking{Backend: leg.be(), g: g}
		got, st, err := core.CountColorful(g, q, colors, core.Options{Engine: be, Plan: plan})
		if err != nil {
			t.Fatalf("%s: %v", leg.name, err)
		}
		if got != count || st.Supersteps != supersteps || st.TotalLoad != totalLoad || st.TableEntries != 0 {
			t.Errorf("%s: counted %d in %d supersteps, load %d, %d table entries; want %d, %d, %d, 0",
				leg.name, got, st.Supersteps, st.TotalLoad, st.TableEntries, count, supersteps, totalLoad)
		}
		if want := wantLoads[st.Workers]; !slices.Equal(st.Loads, want) {
			t.Errorf("%s: per-worker loads %v, want %v", leg.name, st.Loads, want)
		}
		pulled, remote := be.pulled()
		if st.Backend == engine.SimName && (st.Messages != simMsgs || remote != simMsgs) {
			t.Errorf("%s: %d messages, %d rows read from other partitions; want %d", leg.name, st.Messages, remote, simMsgs)
		}
		if (pulled > 0) != leg.pulls {
			t.Errorf("%s: %d steps pulled", leg.name, pulled)
		}
	}
}

// A pulled step sends what it reads from other partitions: sim books one
// message per neighbour row a partition's task reads from another's shard,
// and none for a first step, which reads colours alone. A tree query's
// steps all pull where its tables are boxed, so its whole run books exactly
// the rows counted over the graph's cut arcs — none at one partition, and
// none for star6, whose leaf walks are one edge each.
func TestPulledMessagesAreRemoteRows(t *testing.T) {
	g := gen.ErdosRenyi("dense", 400, 3000, rand.New(rand.NewSource(31)))
	runtimes := []struct {
		name string
		mk   func(n int) engine.Backend
	}{
		{"sim, one partition", func(n int) engine.Backend { return engine.NewRuntime(engine.SimName, 1, 1, n) }},
		{"sim@3, a partition each", func(n int) engine.Backend { return engine.NewRuntime(engine.SimName, 3, 3, n) }},
		{"sim@3", func(n int) engine.Backend { return engine.NewCluster(3, n) }},
	}
	for _, c := range []struct {
		q     *query.Graph
		reads bool // some step reads a source table's rows
	}{{query.MustByName("bintree8"), true}, {query.Star(6), false}, {query.PathGraph(7), true}} {
		q := c.q
		colors := colouring(g.N(), q.K, rand.New(rand.NewSource(int64(q.K))))
		plan, err := core.PickPlan(q)
		if err != nil {
			t.Fatal(err)
		}
		for _, rt := range runtimes {
			be := &booking{Backend: rt.mk(g.N()), g: g}
			_, st, err := core.CountColorful(g, q, colors, core.Options{Engine: be, Plan: plan})
			if err != nil {
				t.Fatal(err)
			}
			pulled, remote := be.pulled()
			if pulled == 0 || st.Messages != remote || (c.reads && be.P() > 1) != (remote > 0) {
				t.Errorf("%s on %d partitions (%s): %d messages; %d steps pulled, reading %d rows from other partitions",
					q.Name, be.P(), rt.name, st.Messages, pulled, remote)
			}
		}
	}
}
