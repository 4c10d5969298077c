package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/decomp"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/sig"
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
	// unread; so does a box, whose sweep polls once — one opened as it was
	// written, and one over boxCap (1024 rows of 35) that the compaction
	// opens because its 2^16 entries fill a quarter of it, and leaves open.
	// Every vertex there has colour 0, and every signature holds it.
	one := engine.NewRuntime(engine.SimName, 1, 1, n)
	sigs, zeros := sig.OwnOf(8, 4).Sigs[0], make([]uint8, 1024)
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
			box := engine.NewMatrix(engine.NewRuntime(engine.SimName, 1, 1, 256), 8, zeros, false)
			for i := uint32(0); i < 1<<16; i++ {
				box.Shard(0).AddEnt(table.UnaryEnt(i%256, 0b1111, 1))
			}
			return box
		},
		"a box opened at compaction": func() *engine.Sharded {
			box := engine.NewMatrix(engine.NewRuntime(engine.SimName, 1, 1, 1024), 8, zeros, false)
			for i := uint32(0); i < 1<<16; i++ {
				box.Shard(0).AddEnt(table.UnaryEnt(i%1024, sigs[i%uint32(len(sigs))], 1))
			}
			return box
		},
	} {
		held := table.SlabsOut()
		for poll := int64(2); ; poll++ { // track's own poll, before the shard, is the first
			hub := fill()
			ctx := cancelAtPoll(poll)
			s := newSolver(ctx, nil, nil, 1, one, DB)
			boxOpen := func() bool { row, _ := hub.Shard(0).Row(0); return row != nil }
			before := boxOpen()
			s.track(hub)
			canceled := errors.Is(ctx.Err(), context.Canceled)
			if canceled != (s.entries == 0) || canceled != s.stop.Load() {
				t.Fatalf("%s, poll %d: canceled %v, latched %v, %d entries counted", name, poll, canceled, s.stop.Load(), s.entries)
			}
			if name == "a box opened at compaction" && (before || boxOpen() != canceled) {
				t.Fatalf("%s, poll %d: a box open before the build %v, after it %v", name, poll, before, boxOpen())
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
// projected by moving its shards' open boxes, a data edge into a node
// annotation reads its source's rows in place and builds no edge table at
// all (pullNode), and a pending shard whose box never opened is compacted
// by its reader, polling as track does. A bintree8 run — leaf
// blocks alone — on box_test.go's 2810-vertex graph, under sim at three
// ranks: as NewCluster cuts it, partitions whose boxes all open, and as it
// was cut before PR 24, a partition a rank (937, 937 and 936 vertices: at
// 35 signatures to a row, bintree8's widest own rows, the first two shards
// are over the cap of 2^15 cells and the third is not). Between
// them all three readers are live, which an uncanceled run of each checks
// first; then each is canceled at polls across the whole run — inside edge
// steps pulled (boxed sources) and pushed (a source over the cap) — and
// must return ctx's error and hand every slab back.
func TestCancelThroughBoxRows(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	g := gen.ErdosRenyi("wide", 2810, 3600, rand.New(rand.NewSource(37))) // box_test.go's
	q := query.MustByName("bintree8")
	colors := randColors(g.N(), q.K, rng)
	plan, err := PickPlan(q)
	if err != nil {
		t.Fatal(err)
	}
	for w, want := range []uint32{937, 937, 936} {
		if lo, hi := engine.NewRuntime(engine.SimName, 3, 3, g.N()).Range(w); hi-lo != want {
			t.Fatalf("partition %d of 3 holds %d vertices, want %d", w, hi-lo, want)
		}
	}
	// Walk tables with a box, moved by the projection; edge steps fused with
	// their node step; shards that hold entries and no box.
	var moved, fused, unboxed int
	for name, sim3 := range map[string]func() engine.Backend{
		"sim@3":                   func() engine.Backend { return engine.NewCluster(3, g.N()) },
		"sim@3, a partition each": func() engine.Backend { return engine.NewRuntime(engine.SimName, 3, 3, g.N()) },
	} {
		be := &stepped{Backend: sim3()}
		tr := obs.NewTrace(t.Name())
		s := newSolver(obs.WithTrace(context.Background(), tr), g, colors, q.K, be, DB)
		edgeBoxed := false // the last walk step left a box its block has not read yet
		tr.SetSink(func(phase string, _ float64) {
			switch {
			case phase == PhaseLeafJoin: // the projection: it moves what is boxed
				if edgeBoxed {
					moved++
				}
				edgeBoxed = false
			case phase != PhasePathJoin:
			case be.out != nil: // a walk step's table, left pending
				if be.fused {
					fused++
				}
				for w := 0; w < be.P(); w++ {
					lo, _ := be.Range(w)
					if row, _ := be.out.Shard(w).Row(lo); row != nil {
						edgeBoxed = true
					} else if be.out.Shard(w).Len() > 0 {
						unboxed++
					}
				}
			}
			be.out = nil
		})
		s.run(plan, 0, nil)

		cancelEverywhere(t, "bintree8/"+name, 80, func(ctx context.Context) (bool, error) {
			c, _, err := CountColorfulContext(ctx, g, q, colors, Options{Engine: sim3()})
			return c != 0, err
		})
	}
	if moved == 0 || fused == 0 || unboxed == 0 {
		t.Fatalf("%d boxes moved, %d fused steps, %d pending shards without a box; the test needs each", moved, fused, unboxed)
	}
}

// A leaf block's output is left pending for its one reader, which compacts a
// shard whose box never opened as it takes it (table.Rows), polling as a
// build does. bintree8 on the graph above, on one partition: an output's
// one shard is over boxCap and, the graph being sparse, reaches its reader
// as chunks. The lift that starts the next leaf walk is canceled at each
// poll of that compaction in turn: it must latch the stop, leave the output
// as pending as it was and give back every slab it took; the first poll
// that lets it finish must find the output's whole count in the walk's
// table.
func TestCancelWhileReadingAPendingLeafOutput(t *testing.T) {
	rng := rand.New(rand.NewSource(21)) // TestCancelThroughBoxRows' draws
	g := gen.ErdosRenyi("wide", 2810, 3600, rand.New(rand.NewSource(37)))
	q := query.MustByName("bintree8")
	colors := randColors(g.N(), q.K, rng)
	plan, err := PickPlan(q)
	if err != nil {
		t.Fatal(err)
	}
	start := table.SlabsOut()
	one := engine.NewRuntime(engine.SimName, 1, 1, g.N())
	s := newSolver(context.Background(), g, colors, q.K, one, DB)
	var ann *decomp.Block // the pending output a lift reads
	for _, b := range plan.Blocks {
		if ann = b.NodeAnn[1]; b.Kind == decomp.LeafEdge && ann != nil {
			break
		}
		s.tables[b] = s.solveLeaf(b)
		s.drop(b.Children)
	}
	out := s.tables[ann].Shard(0)
	chunks := func() (n int) {
		out.Chunks(func([]table.Ent) { n++ })
		return n
	}
	pending, total := chunks(), out.Total()
	if row, _ := out.Row(0); row != nil || pending < 2 {
		t.Fatalf("the output reaches its reader with a box %v, in %d chunks; the test needs chunks", row != nil, pending)
	}
	held := table.SlabsOut()
	for poll := int64(1); ; poll++ {
		ctx := cancelAtPoll(poll)
		r := newSolver(ctx, g, colors, q.K, one, DB)
		r.tables = s.tables
		walk := r.lift(pathStart{startAnn: ann, free: true})
		got := walk.Total()
		walk.Release()
		if !r.stop.Load() {
			if got != total || poll < 3 {
				t.Fatalf("the lift finished at poll %d with %d of the output's %d", poll, got, total)
			}
			break
		}
		if !errors.Is(ctx.Err(), context.Canceled) || chunks() != pending || out.Total() != total {
			t.Fatalf("canceled at poll %d: ctx %v, the output in %d chunks totalling %d, was %d totalling %d", poll, ctx.Err(), chunks(), out.Total(), pending, total)
		}
		if left := table.SlabsOut() - held; left != 0 {
			t.Fatalf("canceled at poll %d, the lift kept %d slabs", poll, left)
		}
	}
	s.drop(plan.Blocks)
	if left := table.SlabsOut() - start; left != 0 {
		t.Fatalf("%d slabs kept", left)
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
