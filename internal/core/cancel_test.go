package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/table"
)

// TestCountColorfulContextPreCanceled: an already-canceled context must
// return before any counting work happens.
func TestCountColorfulContextPreCanceled(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := gen.ErdosRenyi("er", 100, 400, rng)
	q := query.MustByName("glet1")
	colors := randColors(g.N(), q.K, rng)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := CountColorfulContext(ctx, g, q, colors, Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestCountColorfulContextCancelMidRun: canceling a long count mid-run
// must return context.Canceled promptly — within a small multiple of the
// solver's cancel-check interval, not after finishing the remaining
// blocks — and must free the workers (the function returning is exactly
// that).
func TestCountColorfulContextCancelMidRun(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	// brain3 on this graph runs for most of a second (half of one on
	// parallel); the cancel lands mid-solve.
	g := gen.PowerLawGraph("pl", 30000, 1.5, rng)
	q := query.MustByName("brain3")
	colors := randColors(g.N(), q.K, rand.New(rand.NewSource(3)))

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := CountColorfulContext(ctx, g, q, colors, Options{Workers: 4})
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
		// The full run takes ~800ms serially; a canceled one must abort
		// far faster. The bound is loose for slow CI machines while still
		// proving the run did not finish its remaining work.
		if freed := time.Since(start); freed > 2*time.Second {
			t.Errorf("run kept burning %v after cancel", freed)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("canceled run never returned")
	}
}

// TestCountColorfulContextMatchesPlain: threading a live (never-canceled)
// context changes nothing about the count.
func TestCountColorfulContextMatchesPlain(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := gen.ErdosRenyi("er", 80, 320, rng)
	for _, name := range []string{"glet1", "brain1", "wiki"} {
		q := query.MustByName(name)
		colors := randColors(g.N(), q.K, rand.New(rand.NewSource(5)))
		for _, alg := range []Algorithm{DB, PS} {
			plain := count(t, g, q, colors, Options{Algorithm: alg})
			got, _, err := CountColorfulContext(context.Background(), g, q, colors, Options{Algorithm: alg})
			if err != nil {
				t.Fatalf("%s/%v: %v", name, alg, err)
			}
			if got != plain {
				t.Errorf("%s/%v: context count %d != plain %d", name, alg, got, plain)
			}
		}
	}
}

// pollCanceled is a context that cancels itself the n-th time a worker
// polls it, so a test can land the cancellation inside one chosen phase.
type pollCanceled struct {
	context.Context
	cancel context.CancelFunc
	left   atomic.Int64
}

func cancelAtPoll(n int64) *pollCanceled {
	c := &pollCanceled{}
	c.Context, c.cancel = context.WithCancel(context.Background())
	c.left.Store(n)
	return c
}

func (c *pollCanceled) Done() <-chan struct{} {
	if c.left.Add(-1) == 0 {
		c.cancel()
	}
	return c.Context.Done()
}

// TestCancelMidBuild: a superstep's table is built — sorted and folded,
// shard by shard — after its joins have run, and on a big table that is
// most of the superstep. A cancellation landing there must stop the build
// at the next shard, not after the last: with 512 shards and the cancel
// at the 100th poll, roughly the first hundred are built and the rest are
// left as they were.
func TestCancelMidBuild(t *testing.T) {
	const n, perVertex = 1 << 14, 80 // 512 partitions, 1.3 M distinct entries
	be := engine.NewParallel(2, n)
	out := engine.NewSharded(be)
	for v := uint32(0); v < n; v++ {
		for u := uint32(0); u < perVertex; u++ {
			out.Add(be.Owner(v), table.Binary(u, v, 1), 1)
		}
	}
	ctx := cancelAtPoll(100)
	s := newSolver(ctx, nil, nil, 1, be, DB)
	s.track(out)
	if !s.stop.Load() || !errors.Is(ctx.Err(), context.Canceled) {
		t.Fatal("the build phase never polled the context")
	}
	if s.entries == 0 || s.entries > n*perVertex/2 {
		t.Errorf("a cancel at the 100th of %d shards left %d of %d entries built", be.P(), s.entries, n*perVertex)
	}
	out.Release()

	// Inside one shard too: a hub's shard of 1.3 M entries is tens of
	// milliseconds of compaction, which polls between its passes. Canceled at
	// any of those polls it gives its buffers back and leaves the shard
	// unread; so does a box, whose sweep — 256 KiB at most — polls once.
	one := engine.NewRuntime(engine.SimName, 1, 1, n)
	for name, fill := range map[string]func() *engine.Sharded{
		"chunks": func() *engine.Sharded {
			hub := engine.NewSharded(one)
			for v := uint32(0); v < n; v++ {
				for u := uint32(0); u < perVertex; u++ {
					hub.Shard(0).AddEnt(table.BinaryEnt(u*7919%n, v, 1, 1))
				}
			}
			return hub
		},
		"a box": func() *engine.Sharded {
			box := engine.NewMatrix(engine.NewRuntime(engine.SimName, 1, 1, 256), 8, false)
			for i := uint32(0); i < 1<<16; i++ {
				box.Shard(0).AddEnt(table.UnaryEnt(i%256, 0b1111, 1))
			}
			return box
		},
	} {
		held := table.SlabsOut()
		for poll := int64(2); ; poll++ { // track's own poll, before the shard, is the first
			hub := fill()
			ctx := cancelAtPoll(poll)
			s := newSolver(ctx, nil, nil, 1, one, DB)
			s.track(hub)
			canceled := errors.Is(ctx.Err(), context.Canceled)
			if canceled != (s.entries == 0) || canceled != s.stop.Load() {
				t.Fatalf("%s, poll %d: canceled %v, latched %v, %d entries counted", name, poll, canceled, s.stop.Load(), s.entries)
			}
			hub.Release()
			if left := table.SlabsOut() - held; left != 0 {
				t.Fatalf("%s, canceled at poll %d: %d slabs kept", name, poll, left)
			}
			if !canceled {
				if polls := poll - 2; polls < 1 || name == "chunks" && polls < 3 {
					t.Errorf("%s: the compaction polled %d times", name, polls)
				}
				break
			}
		}
	}
}

// cancelEverywhere lands the cancellation on the n-th context poll of run,
// for n across the whole run — between blocks, inside join loops, between
// the shards of a table build — and wants ctx.Err() every time, never an
// answer from a run that stopped early, and every slab handed back. run
// reports whether it returned an answer.
func cancelEverywhere(t *testing.T, name string, points int64, run func(ctx context.Context) (answered bool, err error)) {
	t.Helper()
	held := table.SlabsOut()
	whole := cancelAtPoll(1 << 60)
	if _, err := run(whole); err != nil {
		t.Fatal(err)
	}
	if left := table.SlabsOut() - held; left != 0 {
		t.Fatalf("%s: a finished run kept %d slabs", name, left)
	}
	polls := 1<<60 - whole.left.Load()
	for n := int64(1); n < polls; n += 1 + polls/points {
		answered, err := run(cancelAtPoll(n))
		if !errors.Is(err, context.Canceled) || answered {
			t.Fatalf("%s: canceled at poll %d of %d, got an answer (%v) and error %v", name, n, polls, answered, err)
		}
		if left := table.SlabsOut() - held; left != 0 {
			t.Fatalf("%s: canceled at poll %d of %d, the run kept %d slabs", name, n, polls, left)
		}
	}
}

// TestCancelAtAnyPoll cancels both public entries everywhere: the scalar
// count and the per-vertex vector share one prologue and one block loop, so
// a cancellation must reach the per-vertex run at the same points — on a
// query with tails under a cycle (wiki), a pure tree whose root table is a
// child's (bintree8) and a root cycle solved anchored (glet2).
func TestCancelAtAnyPoll(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := gen.PowerLawGraph("pl", 2000, 1.5, rng)
	for _, qn := range []string{"wiki", "bintree8", "glet2"} {
		q := query.MustByName(qn)
		colors := randColors(g.N(), q.K, rng)
		for _, backend := range []string{"sim", "parallel"} {
			opts := Options{Backend: backend, Workers: 2}
			cancelEverywhere(t, qn+"/"+backend+"/count", 30, func(ctx context.Context) (bool, error) {
				c, _, err := CountColorfulContext(ctx, g, q, colors, opts)
				return c != 0, err
			})
			cancelEverywhere(t, qn+"/"+backend+"/perVertex", 30, func(ctx context.Context) (bool, error) {
				per, _, _, err := CountColorfulPerVertexContext(ctx, g, q, colors, -1, opts)
				return per != nil, err
			})
		}
	}
}

// A leaf block's matrices are read where they lie: the walk's last table is
// projected by moving its shards' open boxes, the edge table a nodeJoin
// follows is read row by row, and a pending shard whose box never opened
// is compacted by that reader, polling as track does. A bintree8 run — leaf
// blocks alone — on box_test.go's 1405-vertex graph, under sim at three
// ranks: as NewCluster cuts it, 87 partitions of 16 vertices whose boxes
// all open, and as it was cut before PR 24, a partition a rank (469, 469
// and 467 vertices: at 70 signatures to a row, bintree8's widest, the first
// two shards are over the cap of 2^15 cells and the third is not). Between
// them all three readers are live, which an uncanceled run of each checks
// first; then each is canceled at polls across the whole run, and must
// return ctx's error and hand every slab back.
func TestCancelThroughBoxRows(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	gen.ErdosRenyi("small", 60, 150, rng) // box_test.go draws it first
	g := gen.ErdosRenyi("mixed", 1405, 1800, rng)
	q := query.MustByName("bintree8")
	colors := randColors(g.N(), q.K, rng)
	plan, err := PickPlan(q)
	if err != nil {
		t.Fatal(err)
	}
	for w, want := range []uint32{469, 469, 467} {
		if lo, hi := engine.NewRuntime(engine.SimName, 3, 3, g.N()).Range(w); hi-lo != want {
			t.Fatalf("partition %d of 3 holds %d vertices, want %d", w, hi-lo, want)
		}
	}
	// Edge steps' tables with a box, moved by the projection or read by a
	// nodeJoin, and their shards that hold entries and no box.
	var moved, readInPlace, unboxed int
	for name, sim3 := range map[string]func() engine.Backend{
		"sim@3":                   func() engine.Backend { return engine.NewCluster(3, g.N()) },
		"sim@3, a partition each": func() engine.Backend { return engine.NewRuntime(engine.SimName, 3, 3, g.N()) },
	} {
		be := &stepped{Backend: sim3()}
		tr := obs.NewTrace(t.Name())
		s := newSolver(obs.WithTrace(context.Background(), tr), g, colors, q.K, be, DB)
		edgeBoxed := false // the last edge step left a box its block has not read yet
		tr.SetSink(func(phase string, _ float64) {
			switch {
			case phase == PhaseLeafJoin: // the projection: it moves what is boxed
				if edgeBoxed {
					moved++
				}
				edgeBoxed = false
			case phase != PhasePathJoin:
			case be.out != nil: // an edge step's table, left pending
				for w := 0; w < be.P(); w++ {
					lo, _ := be.Range(w)
					if row, _ := be.out.Shard(w).Row(lo); row != nil {
						edgeBoxed = true
					} else if be.out.Shard(w).Len() > 0 {
						unboxed++
					}
				}
			case edgeBoxed: // no superstep, after an edge step: the nodeJoin that read it
				readInPlace++
				edgeBoxed = false
			}
			be.out = nil
		})
		s.run(plan, 0, nil)

		cancelEverywhere(t, "bintree8/"+name, 80, func(ctx context.Context) (bool, error) {
			c, _, err := CountColorfulContext(ctx, g, q, colors, Options{Engine: sim3()})
			return c != 0, err
		})
	}
	if moved == 0 || readInPlace == 0 || unboxed == 0 {
		t.Fatalf("%d boxes moved, %d read in place, %d pending shards without a box; the test needs each", moved, readInPlace, unboxed)
	}
}

// Sharing gives a canceled run something new to get wrong: a prefix other
// splits still wait for is alive when the cancellation lands, and the step
// that saw it has built half a table. The run must return ctx's error —
// never join, extend or store that table — and hand every slab back: the
// walks', the solved blocks' and the regrouped children's. First with the
// cancellation placed at the end of the superstep that leaves a shared
// prefix with extensions to come, then at polls across the whole run.
func TestCancelInsideSharedPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := gen.PowerLawGraph("pl", 2000, 1.5, rng)
	q := query.MustByName("brain1")
	colors := randColors(g.N(), q.K, rng)
	plan, err := PickPlan(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, rt := range []struct {
		backend string
		workers int
	}{{"sim", 2}, {"sim", 4}, {"parallel", 2}} {
		backend := fmt.Sprintf("%s@%d", rt.backend, rt.workers)
		held := table.SlabsOut()
		ctx, cancel := context.WithCancel(context.Background())
		shared := 0
		s := tracedSolver(t, ctx, rt.backend, rt.workers, g, colors, q.K, func(s *solver, _ string) {
			for _, n := range s.walks {
				if n.table != nil && n.uses > 1 {
					shared++
					cancel()
				}
			}
		})
		s.run(plan, 0, nil)
		if shared != 1 || !s.stop.Load() {
			t.Fatalf("%s: the run went on past %d shared prefixes, canceled %v", backend, shared, s.stop.Load())
		}
		if left := table.SlabsOut() - held; left != 0 || s.walks.live() != 0 {
			t.Fatalf("%s: canceled inside a shared prefix, the run kept %d slabs and %d walk tables", backend, left, s.walks.live())
		}

		opts := Options{Backend: rt.backend, Workers: rt.workers, Plan: plan}
		cancelEverywhere(t, backend+"/count", 60, func(ctx context.Context) (bool, error) {
			c, _, err := CountColorfulContext(ctx, g, q, colors, opts)
			return c != 0, err
		})
		cancelEverywhere(t, backend+"/perVertex", 60, func(ctx context.Context) (bool, error) {
			per, _, _, err := CountColorfulPerVertexContext(ctx, g, q, colors, -1, opts)
			return per != nil, err
		})
	}
}

// A root join's index lays out partner rows in pooled words, and a worker
// that stops mid-join must give them back with the rest. brain3 on the enron
// stand-in at scale 64 — the benchmark's cycle10-3k, whose probed groups are
// dense — ends with its root cycle's last join. The root's splits are first
// joined by hand, to check that the table the last join indexes gives dense
// groups rows. Then, on sim and parallel (parallel alone under -race), the
// context is armed at the end of the span before that join, so the first
// poll that sees it is a join worker's, with its index built. The run must
// return ctx's error and no count, the join's span must be the one the
// cancellation ended, and every slab must be back.
func TestCancelThroughPartnerRows(t *testing.T) {
	g, ok := gen.StandinByName("enron", 64, 1)
	if !ok {
		t.Fatal("no enron stand-in")
	}
	q := query.MustByName("brain3")
	colors := randColors(g.N(), q.K, rand.New(rand.NewSource(1)))
	plan, err := PickPlan(q)
	if err != nil {
		t.Fatal(err)
	}
	var spans []string
	s := tracedSolver(t, context.Background(), "parallel", 2, g, colors, q.K, func(_ *solver, phase string) {
		spans = append(spans, phase)
	})
	s.run(plan, 0, nil)
	last := len(spans)
	if spans[last-1] != PhaseCycleJoin {
		t.Fatalf("spans %v; want a run that ends with a join", spans)
	}
	// The root's splits joined by hand, the last one's index sized first.
	s = tracedSolver(t, context.Background(), "parallel", 2, g, colors, q.K, func(*solver, string) {})
	root := s.solveBelowRoot(plan)
	splits, partial := s.splits(root), make([]uint64, s.be.P())
	for _, sp := range splits[:len(splits)-1] {
		s.joinSplit(root, sp, nil, partial)
	}
	_, index, _ := splits[len(splits)-1].sides(true)
	s.buildPath(index, false)
	rows := 0
	for w := 0; w < s.be.P(); w++ {
		lo, hi := s.be.Range(w)
		ix := indexGroups(lo, hi, index.table.Shard(w).Ents(), colors, q.K)
		for _, at := range ix.at {
			if at != noRow {
				rows++
			}
		}
		ix.release()
	}
	s.joinSplit(root, splits[len(splits)-1], nil, partial)
	s.walks.release()
	if rows == 0 {
		t.Fatal("the root's last join indexes a table with no dense group")
	}

	backends := []string{"sim", "parallel"}
	if raceEnabled {
		backends = backends[1:]
	}
	for _, backend := range backends {
		held := table.SlabsOut()
		ctx := &armedCancel{}
		ctx.Context, ctx.cancel = context.WithCancel(context.Background())
		tr := obs.NewTrace(t.Name())
		n, canceledAt := 0, ""
		tr.SetSink(func(phase string, _ float64) {
			if n++; n == last-1 {
				ctx.armed.Store(true)
			}
			if canceledAt == "" && ctx.Context.Err() != nil {
				canceledAt = phase
			}
		})
		got, _, err := CountColorfulContext(obs.WithTrace(ctx, tr), g, q, colors, Options{Backend: backend, Workers: 2, Plan: plan})
		if !errors.Is(err, context.Canceled) || got != 0 {
			t.Fatalf("%s: canceled in the root join, the run returned %d and %v", backend, got, err)
		}
		if n != last || canceledAt != PhaseCycleJoin {
			t.Fatalf("%s: %d spans of %d, the cancellation seen at the end of %q; want the last join canceled", backend, n, last, canceledAt)
		}
		if left := table.SlabsOut() - held; left != 0 {
			t.Fatalf("%s: canceled in the root join, the run kept %d slabs", backend, left)
		}
	}
}
