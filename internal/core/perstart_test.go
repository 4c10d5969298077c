package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/decomp"
	"repro/internal/engine"
	"repro/internal/exact"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/table"
)

// The per-start pass charges, start by start, what the old form — every
// walk built as a table, one walk of each split streamed or pulled through
// the other's partner tables — charged, term by term (psPlan): these are
// that form's counts and total loads, the literals of the parent commit, on
// the benchmark's two cycle instances (BenchmarkTrial's colouring) and on
// every root-cycle shape under two of its plans rooted at the cycle and
// each algorithm, on a 300-vertex power-law graph. PickPlan ranks plans by
// summed load and Figure 11 plots it, so neither may move.
func TestRootLoadIsTheParents(t *testing.T) {
	for _, c := range []struct {
		name, query string
		alg         Algorithm
		count       uint64
		load        int64
	}{
		{"cycle10-3k", "brain3", DB, 372859940, 58379105},
		{"cycle5-90k", "glet2", DB, 21053390, 13595063},
	} {
		if testing.Short() && c.name == "cycle5-90k" {
			continue
		}
		g := enron(64)()
		if c.name == "cycle5-90k" {
			g = enron(2)()
		}
		q := query.MustByName(c.query)
		colors := randColors(g.N(), q.K, rand.New(rand.NewSource(1)))
		n, st, err := CountColorful(g, q, colors, Options{Algorithm: c.alg, Backend: "parallel", Workers: 2})
		if err != nil || n != c.count || st.TotalLoad != c.load {
			t.Errorf("%s: counted %d with load %d, err %v; the parent commit %d with load %d", c.name, n, st.TotalLoad, err, c.count, c.load)
		}
	}
	want := []struct {
		query string
		plan  int
		alg   Algorithm
		count uint64
		load  int64
	}{
		{"glet1", 0, DB, 10, 4080},
		{"glet1", 0, PS, 10, 7874},
		{"glet1", 0, PSEven, 10, 7874},
		{"glet1", 1, DB, 10, 4702},
		{"glet1", 1, PS, 10, 14146},
		{"glet1", 1, PSEven, 10, 11738},
		{"brain1", 0, DB, 0, 7127},
		{"brain1", 0, PS, 0, 27529},
		{"brain1", 0, PSEven, 0, 24509},
		{"brain1", 1, DB, 0, 10310},
		{"brain1", 1, PS, 0, 54594},
		{"brain1", 1, PSEven, 0, 31935},
		{"diamond", 0, DB, 0, 3606},
		{"diamond", 0, PS, 0, 3718},
		{"diamond", 0, PSEven, 0, 3718},
		{"diamond", 1, DB, 0, 3606},
		{"diamond", 1, PS, 0, 6550},
		{"diamond", 1, PSEven, 0, 7100},
		{"theta", 0, DB, 0, 4436},
		{"theta", 0, PS, 0, 8352},
		{"theta", 0, PSEven, 0, 8352},
		{"theta", 1, DB, 0, 4436},
		{"theta", 1, PS, 0, 8352},
		{"theta", 1, PSEven, 0, 8352},
		{"tailed4", 0, DB, 34, 7143},
		{"tailed4", 0, PS, 34, 10899},
		{"tailed4", 0, PSEven, 34, 10899},
		{"tailed5", 0, DB, 84, 12407},
		{"tailed5", 0, PS, 84, 17311},
		{"tailed5", 0, PSEven, 84, 17311},
		{"tails4", 0, DB, 144, 14278},
		{"tails4", 0, PS, 144, 13296},
		{"tails4", 0, PSEven, 144, 13296},
		{"sun3", 0, DB, 594, 16680},
		{"sun3", 0, PS, 594, 13273},
		{"sun3", 0, PSEven, 594, 13273},
		{"sun6", 0, DB, 0, 62943},
		{"sun6", 0, PS, 0, 86951},
		{"sun6", 0, PSEven, 0, 86951},
		{"cycle3", 0, DB, 24, 1111},
		{"cycle3", 0, PS, 24, 3299},
		{"cycle3", 0, PSEven, 24, 3299},
		{"cycle4", 0, DB, 0, 1214},
		{"cycle4", 0, PS, 0, 3625},
		{"cycle4", 0, PSEven, 0, 3625},
		{"cycle5", 0, DB, 130, 1867},
		{"cycle5", 0, PS, 130, 11231},
		{"cycle5", 0, PSEven, 130, 11231},
		{"cycle6", 0, DB, 36, 2036},
		{"cycle6", 0, PS, 36, 12797},
		{"cycle6", 0, PSEven, 36, 12797},
		{"cycle7", 0, DB, 42, 3037},
		{"cycle7", 0, PS, 42, 31911},
		{"cycle7", 0, PSEven, 42, 31911},
		{"cycle8", 0, DB, 16, 2490},
		{"cycle8", 0, PS, 16, 27692},
		{"cycle8", 0, PSEven, 16, 27692},
	}
	rng := rand.New(rand.NewSource(44))
	g := gen.PowerLawGraph("pl", 300, 1.5, rng)
	i := 0
	for _, q := range RootCycleShapes() {
		colors := randColors(g.N(), q.K, rng)
		for p, plan := range RootCyclePlans(t, q, 2) {
			for _, alg := range []Algorithm{DB, PS, PSEven} {
				n, st, err := CountColorful(g, q, colors, Options{Algorithm: alg, Backend: "sim", Workers: 3, Plan: plan})
				if i >= len(want) {
					t.Fatalf("more cases than literals: %s plan %d %v", q.Name, p, alg)
				}
				if w := want[i]; err != nil || w.query != q.Name || w.plan != p || w.alg != alg || n != w.count || st.TotalLoad != w.load {
					t.Errorf("%s plan %d %v: counted %d with load %d, err %v; the parent commit %+v", q.Name, p, alg, n, st.TotalLoad, err, w)
				}
				i++
			}
		}
	}
}

// A run canceled inside the per-start pass, whose pooled scratch rows and
// run offsets stand where the root join's partners tables stood: a worker
// that stops mid-pass must give them back with the rest. brain3 on the
// enron stand-in at scale 64 — the benchmark's cycle10-3k — ends with its
// root cycle's pass,
// after the supersteps that replicate its annotations and lay the walk
// keys. On sim and parallel the context is armed at the end of the span
// before the pass, so the first poll that sees it is a pass task's: the run
// must return ctx's error and no count, promptly — its pass's span shorter
// than half an uncanceled one's — and the pass's span must be the one the
// cancellation ended. On a two-rank loopback cluster the context is
// canceled there, while the ranks replicate, lay their keys or run the
// pass. Every leg must give back every slab it took and leave no goroutine
// behind it.
func TestCancelThroughPartnerTables(t *testing.T) {
	g := enron(64)()
	q := query.MustByName("brain3")
	colors := randColors(g.N(), q.K, rand.New(rand.NewSource(1)))
	plan, err := PickPlan(q)
	if err != nil {
		t.Fatal(err)
	}
	var spans []string
	var full float64
	tr := obs.NewTrace(t.Name())
	tr.SetSink(func(phase string, ms float64) {
		spans = append(spans, phase)
		full = ms
	})
	if _, _, err := CountColorfulContext(obs.WithTrace(context.Background(), tr), g, q, colors, Options{Backend: "parallel", Workers: 2, Plan: plan}); err != nil {
		t.Fatal(err)
	}
	last := len(spans)
	if spans[last-1] != PhaseCycleJoin || spans[last-2] != PhasePathJoin {
		t.Fatalf("spans %v; want a run that ends with the walk keys and the pass", spans)
	}
	legs := []string{"sim", "parallel", "dist@2"}
	if raceEnabled {
		legs = legs[1:]
	}
	for _, leg := range legs {
		held, routines := table.SlabsOut(), runtime.NumGoroutine()
		ctx := &armedCancel{}
		ctx.Context, ctx.cancel = context.WithCancel(context.Background())
		tr := obs.NewTrace(t.Name())
		n, canceledAt := 0, ""
		var pass atomic.Uint64
		tr.SetSink(func(phase string, ms float64) {
			if n++; n == last-1 {
				if leg == "dist@2" {
					ctx.cancel() // the coordinator polls between supersteps only; its ranks watch the context
				}
				ctx.armed.Store(true)
			}
			if canceledAt == "" && ctx.Context.Err() != nil {
				canceledAt = phase
				pass.Store(uint64(ms * 1e6))
			}
		})
		traced := obs.WithTrace(ctx, tr)
		opts := Options{Backend: leg, Workers: 2, Plan: plan}
		if leg == "dist@2" {
			opts = Options{Plan: plan, Engine: Loopback2(t, engine.Job{N: g.N(), Graph: g, Colors: colors, Query: q, Plan: plan, Mode: engine.ModeCount, Ctx: traced})}
			routines = runtime.NumGoroutine()
		}
		got, _, err := CountColorfulContext(traced, g, q, colors, opts)
		if !errors.Is(err, context.Canceled) || got != 0 {
			t.Fatalf("%s: canceled in the pass, the run returned %d and %v", leg, got, err)
		}
		if leg != "dist@2" {
			if n != last || canceledAt != PhaseCycleJoin {
				t.Fatalf("%s: %d spans of %d, the cancellation seen at the end of %q; want the pass canceled", leg, n, last, canceledAt)
			}
			if ms := float64(pass.Load()) / 1e6; ms > full/2 {
				t.Errorf("%s: the canceled pass took %.2f ms, an uncanceled one %.2f ms", leg, ms, full)
			}
		}
		// A loopback rank unwinds on its own goroutines after the
		// coordinator returns.
		for deadline := time.Now().Add(10 * time.Second); (table.SlabsOut() != held || runtime.NumGoroutine() > routines) && time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		}
		if left := table.SlabsOut() - held; left != 0 {
			t.Errorf("%s: canceled in the pass, the run kept %d slabs", leg, left)
		}
		if left := runtime.NumGoroutine() - routines; left > 0 {
			t.Errorf("%s: canceled in the pass, the run left %d goroutines", leg, left)
		}
	}
}

// A run canceled inside the per-start pass of a root cycle on hubs, which
// the root join used to stream or pull. glet2 on the enron stand-in at
// scale 2: its hubs make parallel cut many partitions, so a pass task polls
// many times before it ends. On sim and parallel the context is armed at
// the end of the span before the pass, on a two-rank loopback pool it is
// canceled there; each leg must return ctx's error and no count, run the
// spans of an uncanceled run and no more, and give back every slab, and the
// loopback leg every goroutine. And, first, at every poll of root cycles
// with more than one split, on sim and parallel.
func TestCancelWhileStreaming(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g, ok := gen.StandinByName("enron", 2, 1)
	if !ok {
		t.Fatal("no enron stand-in")
	}
	q := query.MustByName("glet2")
	colors := randColors(g.N(), q.K, rng)
	// Every poll first: a loopback rank of the last leg unwinds on its own
	// goroutines, and the slabs it takes count process-wide.
	small := gen.PowerLawGraph("pl", 1500, 1.5, rng)
	for _, qn := range []string{"glet1", "cycle6"} {
		q := query.MustByName(qn)
		colors := randColors(small.N(), q.K, rng)
		for _, backend := range []string{"sim", "parallel"} {
			opts := Options{Backend: backend, Workers: 2}
			cancelEverywhere(t, qn+"/"+backend+"/count", 40, func(ctx context.Context) (bool, error) {
				c, _, err := CountColorfulContext(ctx, small, q, colors, opts)
				return c != 0, err
			})
		}
	}
	plan, err := PickPlan(q)
	if err != nil {
		t.Fatal(err)
	}
	var spans []string
	tr := obs.NewTrace(t.Name())
	tr.SetSink(func(phase string, _ float64) { spans = append(spans, phase) })
	if _, _, err := CountColorfulContext(obs.WithTrace(context.Background(), tr), g, q, colors, Options{Backend: "parallel", Workers: 2, Plan: plan}); err != nil {
		t.Fatal(err)
	}
	last := len(spans)
	if last < 2 || spans[last-1] != PhaseCycleJoin {
		t.Fatalf("spans %v; want a run that ends with the pass", spans)
	}
	for _, leg := range []string{"sim", "parallel", "dist@2"} {
		held, routines := table.SlabsOut(), runtime.NumGoroutine()
		ctx := &armedCancel{}
		ctx.Context, ctx.cancel = context.WithCancel(context.Background())
		tr := obs.NewTrace(t.Name())
		n, canceledAt := 0, ""
		tr.SetSink(func(phase string, _ float64) {
			if n++; n == last-1 {
				if leg == "dist@2" {
					ctx.cancel() // the coordinator polls between supersteps only; its ranks watch the context
				}
				ctx.armed.Store(true)
			}
			if canceledAt == "" && ctx.Context.Err() != nil {
				canceledAt = phase
			}
		})
		traced := obs.WithTrace(ctx, tr)
		opts := Options{Backend: leg, Workers: 2, Plan: plan}
		if leg == "dist@2" {
			opts = Options{Plan: plan, Engine: Loopback2(t, engine.Job{N: g.N(), Graph: g, Colors: colors, Query: q, Plan: plan, Mode: engine.ModeCount, Ctx: traced})}
			routines = runtime.NumGoroutine()
		}
		got, _, err := CountColorfulContext(traced, g, q, colors, opts)
		if !errors.Is(err, context.Canceled) || got != 0 {
			t.Fatalf("%s: canceled in the pass, the run returned %d and %v", leg, got, err)
		}
		if leg != "dist@2" && (n != last || canceledAt != PhaseCycleJoin) {
			t.Fatalf("%s: %d spans of %d, the cancellation seen at the end of %q; want the pass canceled", leg, n, last, canceledAt)
		}
		// A loopback rank unwinds on its own goroutines after the
		// coordinator returns; sim and parallel must be back at once.
		if leg == "dist@2" {
			for deadline := time.Now().Add(10 * time.Second); (table.SlabsOut() != held || runtime.NumGoroutine() > routines) && time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			}
		}
		if left := table.SlabsOut() - held; left != 0 {
			t.Fatalf("%s: canceled in the pass, the run kept %d slabs", leg, left)
		}
		if left := runtime.NumGoroutine() - routines; leg == "dist@2" && left > 0 {
			t.Fatalf("%s: canceled in the pass, the run left %d goroutines", leg, left)
		}
	}
}

// A step's rows are extended through colour buckets at every vertex of
// degree above k (colourBuckets). On Erdős–Rényi and power-law graphs,
// under several colourings, on sim, on parallel and on each rank of a
// two-rank dist band — which lays its band in one Run and every other
// vertex after it — every such vertex's buckets must hold exactly its
// neighbours of each colour, in id order, with a mask of the colours
// present. Nothing of a vertex of degree k or less may be written: the
// storage is poisoned first, so that its line panics if the pass reads it
// through buckets, and a count over storage so laid, on sim and parallel,
// must match the oracle.
func TestPerStartColourBuckets(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	graphs := []*graph.Graph{gen.ErdosRenyi("er", 60, 240, rng), gen.PowerLawGraph("pl", 200, 1.5, rng)}
	for _, g := range graphs {
		for _, qn := range []string{"cycle4", "cycle5", "cycle6"} {
			q := query.MustByName(qn)
			for c := 0; c < 2; c++ {
				colors := randColors(g.N(), q.K, rng)
				bands := map[string]*engine.Runtime{"sim": engine.NewCluster(4, g.N()), "parallel": engine.NewParallel(2, g.N())}
				for r := 0; r < 2; r++ {
					be := engine.NewRuntime(engine.DistName, 0, 2, g.N())
					lo, hi := be.Band(r)
					bands[fmt.Sprintf("dist@2 rank %d", r)] = be.Wired(lo, hi, 2, nil)
				}
				for name, be := range bands {
					s := newSolver(context.Background(), g, colors, q.K, be, DB)
					keys, b := layPoisoned(t, s)
					checkColourBuckets(t, fmt.Sprintf("%s %s colouring %d on %s", g.Name, qn, c, name), s, b)
					keys.Return()
					if name != "sim" && name != "parallel" {
						continue
					}
					colourBucketPool.Put(b) // the count's lay takes it, if the pool keeps it
					want := exact.ColorfulMatches(g, q, colors)
					if got := count(t, g, q, colors, Options{Algorithm: DB, Backend: name, Workers: 2}); got != want {
						t.Errorf("%s %s colouring %d on %s, over poisoned storage: counted %d, the oracle %d", g.Name, qn, c, name, got, want)
					}
				}
			}
		}
	}
}

// poison fills a bucket layout's storage before a lay: a line of it names
// every colour and ends past the graph's arcs.
const poison = ^uint32(0)

// layPoisoned lays s's walk keys and colour buckets into bucket storage
// filled with poison first.
func layPoisoned(t *testing.T, s *solver) (table.Scratch, *colourBuckets) {
	t.Helper()
	p := s.colourBuckets()
	for _, a := range [][]uint32{p.arcs, p.at} {
		for i := range a {
			a[i] = poison
		}
	}
	for try := 0; ; try++ { // under -race, the pool drops a Put now and then
		colourBucketPool.Put(p)
		keys, b := s.walkKeys(true)
		if b == p {
			return keys, b
		}
		keys.Return()
		if try == 100 {
			t.Fatal("the pool never handed the poisoned storage back")
		}
	}
}

// checkColourBuckets checks b's layout over s's graph and colouring.
func checkColourBuckets(t *testing.T, name string, s *solver, b *colourBuckets) {
	t.Helper()
	g, k := s.g, s.k
	for x := uint32(0); x < uint32(g.N()); x++ {
		at, arcs := b.of(x)
		if g.Degree(x) <= k {
			if slices.ContainsFunc(slices.Concat(at, arcs), func(w uint32) bool { return w != poison }) {
				t.Fatalf("%s: vertex %d, of degree %d ≤ k = %d, had buckets laid", name, x, g.Degree(x), k)
			}
			continue
		}
		for c := 0; c < k; c++ {
			var want []uint32
			for _, v := range g.Neighbors(x) {
				if int(s.colors[v]) == c {
					want = append(want, v)
				}
			}
			if got := bucket(at, arcs, c); !slices.Equal(got, want) {
				t.Fatalf("%s: vertex %d's bucket %d holds %v; its neighbours of colour %d are %v", name, x, c, got, c, want)
			}
			if has := at[0]>>c&1 == 1; has != (len(want) > 0) {
				t.Fatalf("%s: vertex %d's mask %b says colour %d is present: %v; its bucket holds %d", name, x, at[0], c, has, len(want))
			}
		}
		if at[0]>>k != 0 {
			t.Fatalf("%s: vertex %d's mask %b names colours past k = %d", name, x, at[0], k)
		}
	}
}

// The pass builds and joins a root cycle's mirror images once (psPlan.fold)
// and charges them as if it had not. The nodes and splits that fold are
// counted on the picked plans of brain1, brain3 and glet1, whose roots
// carry an edge annotation decomp marks as mirrored, and on a brain3 with a
// tail that its 4-cycle holds, which is not marked and folds nothing. On
// power-law and Erdős–Rényi graphs (the first alone under the race
// detector, and for the tailed query) each plan's count must be the
// oracle's, with one load, on sim, parallel and a two-rank loopback
// cluster. The fold rests on the mark: every marked block's two groupings
// must hold the same entries in every partition, on sim, on parallel and
// on each rank of a two-rank dist session.
func TestPerStartFoldsMirrorWalks(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	graphs := []*graph.Graph{gen.ChungLu("pl", gen.AddHubs(gen.ScaleWeights(gen.PowerLawWeights(60, 1.5), 8), 20, 3), rng), gen.ErdosRenyi("er", 32, 200, rng)}
	if raceEnabled {
		graphs = graphs[:1]
	}
	brain3 := query.MustByName("brain3")
	tailed := query.FromEdges("brain3-tailed", 11, append(brain3.Edges(), [2]int{0, 10}))
	for _, c := range []struct {
		q                    *query.Graph
		plan                 string // a tree's encoding; "" for PickPlan's
		nodes, foldedNodes   int
		splits, foldedSplits int
	}{
		{query.MustByName("brain1"), "", 16, 6, 6, 3},
		{brain3, "", 25, 10, 8, 4},
		{query.MustByName("glet1"), "", 9, 3, 4, 2},
		// The 4-cycle holds the tail, so its ends differ: nothing folds.
		{tailed, "C[0,1,2,3,4,5,6,7;0@C[0@L[0,10;;b,0],1,9,8;;b,0,1];b]", 25, 0, 8, 0},
	} {
		q, plan := c.q, (*decomp.Tree)(nil)
		if c.plan == "" {
			var err error
			if plan, err = PickPlan(q); err != nil {
				t.Fatal(err)
			}
		} else {
			plans := RootCyclePlans(t, q, 1<<10)
			i := slices.IndexFunc(plans, func(tr *decomp.Tree) bool { return tr.Encode() == c.plan })
			if i < 0 {
				t.Fatalf("%s has no tree %s", q.Name, c.plan)
			}
			plan = plans[i]
		}
		p := newSolver(context.Background(), nil, nil, q.K, nil, DB).perStartPlan(plan.Root)
		nodes, splits := 0, 0
		for _, n := range p.nodes {
			if n.fold >= 0 {
				nodes++
			}
		}
		for _, sp := range p.splits {
			if sp.fold >= 0 {
				splits++
			}
		}
		if len(p.nodes) != c.nodes || nodes != c.foldedNodes || len(p.splits) != c.splits || splits != c.foldedSplits {
			t.Errorf("%s: %d of %d nodes and %d of %d splits fold; want %d of %d and %d of %d",
				plan.Encode(), nodes, len(p.nodes), splits, len(p.splits), c.foldedNodes, c.nodes, c.foldedSplits, c.splits)
		}
		for gi, g := range graphs {
			if gi > 0 && q == tailed { // its oracle is the slowest: one graph is enough to see no fold
				break
			}
			colors := randColors(g.N(), q.K, rng)
			want := exact.ColorfulMatches(g, q, colors)
			var load int64
			for i, leg := range []string{"sim", "parallel", "dist@2"} {
				opts := Options{Backend: leg, Workers: 2, Plan: plan}
				if leg == "dist@2" {
					opts = Options{Plan: plan, Engine: Loopback2(t, engine.Job{N: g.N(), Graph: g, Colors: colors, Query: q, Plan: plan, Mode: engine.ModeCount})}
				}
				got, st, err := CountColorful(g, q, colors, opts)
				if err != nil || got != want || i > 0 && st.TotalLoad != load {
					t.Errorf("%s on %s, %s: counted %d with load %d, err %v; the oracle %d, sim's load %d", q.Name, g.Name, leg, got, st.TotalLoad, err, want, load)
				}
				if i == 0 {
					load = st.TotalLoad
				}
			}
			if !slices.ContainsFunc(plan.Blocks, func(b *decomp.Block) bool { return b.Mirrored }) {
				continue
			}
			legs := map[string][]engine.Backend{"sim": {engine.NewCluster(4, g.N())}, "parallel": {engine.NewParallel(2, g.N())}}
			ranks, stop := LoopbackRanks(2, 4, g.N())
			legs["dist@2"] = ranks
			for leg, bes := range legs {
				errs := make([]error, len(bes))
				var ents atomic.Int64
				var wg sync.WaitGroup
				for r, be := range bes {
					wg.Add(1)
					go func() {
						defer wg.Done()
						n, err := mirroredGroupings(newSolver(context.Background(), g, colors, q.K, be, DB), plan)
						ents.Add(int64(n))
						errs[r] = err
					}()
				}
				wg.Wait()
				if err := errors.Join(errs...); err != nil {
					t.Errorf("%s on %s, %s: %v", q.Name, g.Name, leg, err)
				}
				if ents.Load() == 0 {
					t.Errorf("%s on %s, %s: the marked blocks' groupings hold no entry; the check compares nothing", q.Name, g.Name, leg)
				}
			}
			stop()
		}
	}
}

// mirroredGroupings solves plan's blocks below its root on s, and checks
// that each block decomp marks has two groupings with the same entries in
// every partition s executes. It returns how many entries it compared.
func mirroredGroupings(s *solver, plan *decomp.Tree) (int, error) {
	defer s.drop(plan.Blocks)
	for _, b := range plan.Blocks {
		switch {
		case b == plan.Root:
		case b.Kind == decomp.LeafEdge:
			s.tables[b] = s.solveLeaf(b)
		case b.Kind == decomp.CycleBlock:
			s.tables[b] = s.solveCycle(b)
		}
	}
	var ents atomic.Int64
	var errs []error
	for _, b := range plan.Blocks {
		if !b.Mirrored {
			continue
		}
		from, to := s.groupBinary(b, true), s.groupBinary(b, false)
		differ := make([]bool, s.be.P())
		s.be.Run(func(w int) {
			a, c := from.Shard(w).Ents(), to.Shard(w).Ents()
			differ[w] = !slices.Equal(a, c)
			ents.Add(int64(len(a)))
		})
		for w, d := range differ {
			if d {
				errs = append(errs, fmt.Errorf("block %v, partition %d: the groupings from %d and from %d differ", b, w, b.Boundary[0], b.Boundary[1]))
			}
		}
	}
	return int(ents.Load()), errors.Join(errs...)
}
