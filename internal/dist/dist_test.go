package dist_test

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/query"
	"repro/internal/table"
)

func randColors(n, k int, rng *rand.Rand) []uint8 {
	colors := make([]uint8, n)
	for i := range colors {
		colors[i] = uint8(rng.Intn(k))
	}
	return colors
}

// loopback builds a fresh loopback cluster registered as this test's
// backend via Options.Engine-free engine.New dispatch: jobs are created
// straight through cluster.NewJob, so tests don't fight over the global
// "dist" registration.
func loopback(t *testing.T, ranks int) *dist.Cluster {
	t.Helper()
	c, err := dist.Loopback(ranks, dist.WorkerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func countVia(t *testing.T, c *dist.Cluster, parts int, g *graph.Graph, q *query.Graph, colors []uint8, alg core.Algorithm) (uint64, core.Stats) {
	t.Helper()
	plan, err := core.PickPlan(q)
	if err != nil {
		t.Fatal(err)
	}
	be, err := c.NewJob(parts, engine.Job{
		N: g.N(), Graph: g, Colors: colors, Query: q, Plan: plan,
		Algorithm: int(alg), Mode: engine.ModeCount,
	})
	if err != nil {
		t.Fatal(err)
	}
	count, stats, err := core.CountColorful(g, q, colors, core.Options{Algorithm: alg, Plan: plan, Engine: be})
	if err != nil {
		t.Fatal(err)
	}
	return count, stats
}

// The PR's correctness bar: the dist backend is bit-identical to sim and
// parallel on every catalog query, for several rank and partition counts.
func TestLoopbackEquivalenceCatalog(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g := gen.PowerLawGraph("pl", 400, 1.5, rng)
	queries := append(query.Catalog(), query.Cycle(6), query.Star(5))

	clusters := map[int]*dist.Cluster{}
	for _, ranks := range []int{1, 2, 3} {
		clusters[ranks] = loopback(t, ranks)
	}
	for _, q := range queries {
		colors := randColors(g.N(), q.K, rng)
		for _, alg := range []core.Algorithm{core.PS, core.DB} {
			want, wantStats, err := core.CountColorful(g, q, colors, core.Options{Algorithm: alg, Backend: "sim", Workers: 4})
			if err != nil {
				t.Fatal(err)
			}
			for ranks, c := range clusters {
				for _, parts := range []int{0, 1, 7} {
					got, stats := countVia(t, c, parts, g, q, colors, alg)
					if got != want {
						t.Errorf("%s %s ranks=%d parts=%d: dist %d, sim %d", q.Name, alg, ranks, parts, got, want)
					}
					if stats.Supersteps != wantStats.Supersteps {
						t.Errorf("%s %s ranks=%d parts=%d: dist ran %d supersteps, sim %d",
							q.Name, alg, ranks, parts, stats.Supersteps, wantStats.Supersteps)
					}
				}
			}
		}
	}
}

// Per-vertex mode: the assembled vector must match sim exactly, block by
// block.
func TestLoopbackEquivalencePerVertex(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	g := gen.PowerLawGraph("pl", 300, 1.6, rng)
	c := loopback(t, 2)
	for _, qn := range []string{"glet1", "brain1", "cycle5"} {
		q := query.MustByName(qn)
		colors := randColors(g.N(), q.K, rng)
		simPer, simAnchor, _, err := core.CountColorfulPerVertex(g, q, colors, -1, core.Options{Backend: "sim", Workers: 3})
		if err != nil {
			t.Fatal(err)
		}
		plan, err := core.PickPlan(q)
		if err != nil {
			t.Fatal(err)
		}
		be, err := c.NewJob(5, engine.Job{
			N: g.N(), Graph: g, Colors: colors, Query: q, Plan: plan,
			Mode: engine.ModePerVertex, Anchor: simAnchor,
		})
		if err != nil {
			t.Fatal(err)
		}
		distPer, distAnchor, _, err := core.CountColorfulPerVertex(g, q, colors, simAnchor, core.Options{Plan: plan, Engine: be})
		if err != nil {
			t.Fatal(err)
		}
		if distAnchor != simAnchor {
			t.Fatalf("%s: anchors diverged: %d vs %d", qn, distAnchor, simAnchor)
		}
		if !reflect.DeepEqual(simPer, distPer) {
			t.Errorf("%s: per-vertex counts diverged between sim and dist", qn)
		}
	}
}

// Randomized property sweep, mirroring the sim-vs-parallel one.
func TestLoopbackEquivalenceRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	c := loopback(t, 3)
	for trial := 0; trial < 15; trial++ {
		n := 30 + rng.Intn(120)
		g := gen.ErdosRenyi("er", n, int64(2+rng.Intn(5))*int64(n)/2, rng)
		q := query.Catalog()[rng.Intn(len(query.Catalog()))]
		colors := randColors(g.N(), q.K, rng)
		alg := []core.Algorithm{core.PS, core.PSEven, core.DB}[rng.Intn(3)]
		want, _, err := core.CountColorful(g, q, colors, core.Options{Algorithm: alg, Backend: "sim", Workers: 1 + rng.Intn(6)})
		if err != nil {
			t.Fatal(err)
		}
		got, _ := countVia(t, c, 1+rng.Intn(9), g, q, colors, alg)
		if got != want {
			t.Fatalf("trial %d: %s on %s: dist %d != sim %d", trial, alg, q.Name, got, want)
		}
	}
}

// Several jobs multiplexed over one cluster at once must not cross wires.
func TestLoopbackConcurrentJobs(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	g := gen.PowerLawGraph("pl", 250, 1.5, rng)
	c := loopback(t, 2)
	type job struct {
		q      *query.Graph
		colors []uint8
		want   uint64
	}
	jobs := make([]job, 6)
	for i := range jobs {
		q := query.Catalog()[i%len(query.Catalog())]
		colors := randColors(g.N(), q.K, rng)
		want, _, err := core.CountColorful(g, q, colors, core.Options{Backend: "sim", Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = job{q: q, colors: colors, want: want}
	}
	var wg sync.WaitGroup
	for i, jb := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, _ := countVia(t, c, 4+i, g, jb.q, jb.colors, core.PS)
			if got != jb.want {
				t.Errorf("job %d (%s): dist %d != sim %d", i, jb.q.Name, got, jb.want)
			}
		}()
	}
	wg.Wait()
}

// settledSlabs waits until table.SlabsOut has stood still for 50 ms — the
// ranks of the tests before this one may still be unwinding — and returns it.
func settledSlabs() int64 {
	held := table.SlabsOut()
	for settled := time.Now(); time.Since(settled) < 50*time.Millisecond; time.Sleep(time.Millisecond) {
		if now := table.SlabsOut(); now != held {
			held, settled = now, time.Now()
		}
	}
	return held
}

// awaitSlabs waits for the ranks to unwind and hand back every slab they
// took since held was read.
func awaitSlabs(t *testing.T, held int64, when string) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); table.SlabsOut() != held; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%s, the ranks still hold %d slabs", when, table.SlabsOut()-held)
		}
	}
}

// A worker lost mid-superstep must fail the run cleanly — an error from
// the solver, not a hang — and the surviving rank, whose step failed at
// the barrier with lanes staged for the lost one, must hand every chunk
// back.
func TestWorkerCrashMidSuperstep(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := gen.PowerLawGraph("pl", 400, 1.5, rng)
	q := query.MustByName("brain1")
	colors := randColors(g.N(), q.K, rng)
	held := settledSlabs()

	// Rank 1 is a real ServeConn; rank 0's "worker" half is held by the
	// test and slammed shut as soon as the coordinator starts the job.
	coord0, crash := net.Pipe()
	coord1, worker1 := net.Pipe()
	go dist.ServeConn(worker1, dist.WorkerOptions{})
	go func() {
		c := &handshakeConn{t: t, c: crash}
		c.serveHello()
		c.awaitJobStart()
		crash.Close()
	}()

	c, err := dist.NewWithConns([]net.Conn{coord0, coord1}, nil, dist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	plan, err := core.PickPlan(q)
	if err != nil {
		t.Fatal(err)
	}
	be, err := c.NewJob(0, engine.Job{
		N: g.N(), Graph: g, Colors: colors, Query: q, Plan: plan, Algorithm: int(core.PS),
	})
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() {
		_, _, err := core.CountColorful(g, q, colors, core.Options{Plan: plan, Engine: be})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("count succeeded with a crashed worker")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("count hung after worker crash")
	}
	awaitSlabs(t, held, "a worker crashed mid-superstep")
}

// Canceling the caller's context mid-run unwinds both sides.
func TestCancelPropagates(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := gen.PowerLawGraph("pl", 500, 1.5, rng)
	q := query.MustByName("brain1")
	colors := randColors(g.N(), q.K, rng)
	c := loopback(t, 2)

	plan, err := core.PickPlan(q)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already canceled: the run must abort promptly
	be, err := c.NewJob(0, engine.Job{
		N: g.N(), Graph: g, Colors: colors, Query: q, Plan: plan, Ctx: ctx,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, _, err := core.CountColorfulContext(ctx, g, q, colors, core.Options{Plan: plan, Engine: be})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("canceled run reported success")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("canceled run hung")
	}
}

// pollCanceled is a context that cancels itself the n-th time it is polled.
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

// The dist leg of core's TestCancelInsideSharedPrefix: brain1's walks share
// prefixes, every rank lays the same trie from the same plan, and a
// cancellation reaches the ranks whenever its frame does — mid-step on
// one, between steps on another. Wherever it lands the coordinator must
// return context.Canceled, no rank may hang at a barrier the others have
// left, and once the ranks have unwound every slab their tables held must
// be back in the pool.
func TestCancelInsideSharedPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := gen.PowerLawGraph("pl", 2000, 1.5, rng)
	q := query.MustByName("brain1")
	colors := randColors(g.N(), q.K, rng)
	c := loopback(t, 2)
	plan, err := core.PickPlan(q)
	if err != nil {
		t.Fatal(err)
	}
	run := func(ctx context.Context) error {
		be, err := c.NewJob(0, engine.Job{N: g.N(), Graph: g, Colors: colors, Query: q, Plan: plan, Ctx: ctx})
		if err != nil {
			return err
		}
		_, _, err = core.CountColorfulContext(ctx, g, q, colors, core.Options{Plan: plan, Engine: be})
		return err
	}
	held := settledSlabs()
	whole := cancelAtPoll(1 << 60)
	if err := run(whole); err != nil {
		t.Fatal(err)
	}
	awaitSlabs(t, held, "the run finished")
	polls := 1<<60 - whole.left.Load()
	for n := int64(1); n < polls; n += 1 + polls/40 {
		if err := run(cancelAtPoll(n)); !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled at poll %d of %d, got error %v", n, polls, err)
		}
		awaitSlabs(t, held, fmt.Sprintf("canceled at poll %d of %d", n, polls))
	}
}

// handshakeConn drives just enough protocol to impersonate a worker.
type handshakeConn struct {
	t *testing.T
	c net.Conn
}

func (h *handshakeConn) serveHello() {
	// Read the coordinator's hello and echo it back verbatim — same
	// version, so the handshake succeeds.
	raw := h.readFrame()
	if _, err := h.c.Write(raw); err != nil {
		h.t.Error(err)
	}
}

func (h *handshakeConn) awaitJobStart() {
	h.readFrame()
}

func (h *handshakeConn) readFrame() []byte {
	var lb [4]byte
	if _, err := readFull(h.c, lb[:]); err != nil {
		h.t.Error(err)
		return nil
	}
	n := int(lb[0])<<24 | int(lb[1])<<16 | int(lb[2])<<8 | int(lb[3])
	body := make([]byte, n)
	if _, err := readFull(h.c, body); err != nil {
		h.t.Error(err)
		return nil
	}
	return append(lb[:], body...)
}

func readFull(c net.Conn, b []byte) (int, error) {
	total := 0
	for total < len(b) {
		n, err := c.Read(b[total:])
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// A worker process keeps one graph cache across coordinator sessions
// (sgworker -graph-cache): a coordinator that reconnects ships a graph the
// workers already hold only by fingerprint, and counts the same.
func TestSharedGraphCacheOutlivesSession(t *testing.T) {
	g := gen.PowerLawGraph("pl", 3000, 1.6, rand.New(rand.NewSource(4)))
	q := query.MustByName("path3")
	colors := randColors(g.N(), q.K, rand.New(rand.NewSource(5)))
	cache := dist.NewGraphCache(2)
	session := func() (count uint64, sent int64) {
		c, err := dist.Loopback(2, dist.WorkerOptions{Cache: cache})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		count, _ = countVia(t, c, 2, g, q, colors, core.DB)
		for _, n := range c.NodeStats() {
			sent += n.BytesSent
		}
		return count, sent
	}
	first, cold := session()
	second, warm := session()
	if first != second || first == 0 {
		t.Errorf("counted %d, then %d over the cached graph", first, second)
	}
	var wire bytes.Buffer
	if err := gob.NewEncoder(&wire).Encode(g); err != nil {
		t.Fatal(err)
	}
	// Cold, the graph goes to one rank at least (the other may find it in
	// the cache the first filled); warm, to neither.
	if shipped := int64(wire.Len()); cold-warm < shipped {
		t.Errorf("coordinator sent %d bytes to cold workers and %d to warm ones: the graph (%d bytes) was shipped again", cold, warm, shipped)
	}
}
