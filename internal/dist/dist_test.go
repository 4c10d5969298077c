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
	"runtime"
	"strings"
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

// loopback builds a fresh loopback pool registered as this test's
// backend via Options.Engine-free engine.New dispatch: jobs are created
// straight through pool.NewJob, so tests don't fight over the global
// "dist" registration.
func loopback(t *testing.T, ranks int) *dist.Pool {
	t.Helper()
	c, err := dist.Loopback(ranks, dist.WorkerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func countVia(t *testing.T, c *dist.Pool, g *graph.Graph, q *query.Graph, colors []uint8, alg core.Algorithm) (uint64, core.Stats) {
	t.Helper()
	plan, err := core.PickPlan(q)
	if err != nil {
		t.Fatal(err)
	}
	be, err := c.NewJob(0, engine.Job{
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

// onRanks runs solve on every rank of a solverless loopback session —
// parts partitions dealt to ranks ranks, at a partition count a job's grain
// rule would not cut — at once, as the worker processes of a job run the
// solver (SPMD), and returns what each returned.
func onRanks[T any](t *testing.T, ranks, parts, n int, solve func(be engine.Backend) (T, error)) []T {
	t.Helper()
	bes, stop := dist.LoopbackRanks(ranks, parts, n, 2)
	defer stop()
	out, errs := make([]T, ranks), make([]error, ranks)
	var wg sync.WaitGroup
	for r, be := range bes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[r], errs[r] = solve(be)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// countOnRanks is countVia on onRanks' rig: the count is the sum of the
// ranks', and the supersteps are every rank's.
func countOnRanks(t *testing.T, ranks, parts int, g *graph.Graph, q *query.Graph, colors []uint8, alg core.Algorithm) (count uint64, steps int64) {
	t.Helper()
	plan, err := core.PickPlan(q)
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		count uint64
		steps int64
	}
	for _, r := range onRanks(t, ranks, parts, g.N(), func(be engine.Backend) (result, error) {
		c, st, err := core.CountColorful(g, q, colors, core.Options{Algorithm: alg, Plan: plan, Engine: be})
		return result{c, st.Supersteps}, err
	}) {
		if steps != 0 && r.steps != steps {
			t.Fatalf("%s on %d ranks of %d partitions: the ranks ran %d and %d supersteps", q.Name, ranks, parts, steps, r.steps)
		}
		count, steps = count+r.count, r.steps
	}
	return count, steps
}

// The dist backend is bit-identical to sim on every catalog query at one,
// two and three ranks: a job's, at the grain rule's partition count, and the
// ranks' alone at one partition (some ranks own none) and at seven.
func TestLoopbackEquivalenceCatalog(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g := gen.PowerLawGraph("pl", 400, 1.5, rng)
	queries := append(query.Catalog(), query.Cycle(6), query.Star(5))

	pools := map[int]*dist.Pool{}
	for _, ranks := range []int{1, 2, 3} {
		pools[ranks] = loopback(t, ranks)
	}
	for _, q := range queries {
		colors := randColors(g.N(), q.K, rng)
		for _, alg := range []core.Algorithm{core.PS, core.DB} {
			want, wantStats, err := core.CountColorful(g, q, colors, core.Options{Algorithm: alg, Backend: "sim", Workers: 4})
			if err != nil {
				t.Fatal(err)
			}
			for ranks, c := range pools {
				got, stats := countVia(t, c, g, q, colors, alg)
				if got != want || stats.Supersteps != wantStats.Supersteps {
					t.Errorf("%s %s ranks=%d: dist %d in %d supersteps, sim %d in %d", q.Name, alg, ranks, got, stats.Supersteps, want, wantStats.Supersteps)
				}
				for _, parts := range []int{1, 7} {
					got, steps := countOnRanks(t, ranks, parts, g, q, colors, alg)
					if got != want || steps != wantStats.Supersteps {
						t.Errorf("%s %s ranks=%d parts=%d: the ranks count %d in %d supersteps, sim %d in %d", q.Name, alg, ranks, parts, got, steps, want, wantStats.Supersteps)
					}
				}
			}
		}
	}
}

// Per-vertex mode: the assembled vector must match sim exactly, block by
// block — a job's, and the sum of two ranks' over five partitions, bands of
// three and two.
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
		be, err := c.NewJob(0, engine.Job{
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
		ranksPer := make([]uint64, g.N())
		for _, per := range onRanks(t, 2, 5, g.N(), func(be engine.Backend) ([]uint64, error) {
			per, _, _, err := core.CountColorfulPerVertex(g, q, colors, simAnchor, core.Options{Plan: plan, Engine: be})
			return per, err
		}) {
			for v, n := range per {
				ranksPer[v] += n
			}
		}
		if !reflect.DeepEqual(simPer, ranksPer) {
			t.Errorf("%s: per-vertex counts diverged between sim and two ranks of five partitions", qn)
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
		parts := 1 + rng.Intn(9)
		got, _ := countVia(t, c, g, q, colors, alg)
		ranksGot, _ := countOnRanks(t, 3, parts, g, q, colors, alg)
		if got != want || ranksGot != want {
			t.Fatalf("trial %d: %s on %s: dist %d, three ranks of %d partitions %d, sim %d", trial, alg, q.Name, got, parts, ranksGot, want)
		}
	}
}

// Several jobs multiplexed over one pool at once must not cross wires.
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
			got, _ := countVia(t, c, g, jb.q, jb.colors, core.PS)
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

// distGoroutines returns the stacks of the live goroutines that run this
// package's code, or were started by it.
func distGoroutines() []string {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	var out []string
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "repro/internal/dist.") {
			out = append(out, g)
		}
	}
	return out
}

// awaitDistGoroutines waits until at most want goroutines run this
// package's code.
func awaitDistGoroutines(t *testing.T, want int, when string) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); len(distGoroutines()) > want; time.Sleep(5 * time.Millisecond) {
		if got := distGoroutines(); time.Now().After(deadline) {
			t.Fatalf("%s, %d goroutines run dist code, want %d:\n%s", when, len(got), want, strings.Join(got, "\n\n"))
		}
	}
}

// Closing a loopback pool that has counted a job ends every goroutine on
// both ends of its pipes: the coordinator's readers and the workers'
// sessions.
func TestPoolCloseLeavesNoGoroutines(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := gen.PowerLawGraph("pl", 300, 1.5, rng)
	q := query.MustByName("brain1")
	before := len(distGoroutines())
	c, err := dist.Loopback(2, dist.WorkerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	countVia(t, c, g, q, randColors(g.N(), q.K, rng), core.PS)
	c.Close()
	awaitDistGoroutines(t, before, "the pool closed")
}

// A job canceled mid-run leaves its pool as idle as it found it: no worker
// job, graph send or context watch outlives the run.
func TestCanceledJobLeavesNoGoroutines(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := gen.PowerLawGraph("pl", 2000, 1.5, rng)
	q := query.MustByName("brain1")
	colors := randColors(g.N(), q.K, rng)
	plan, err := core.PickPlan(q)
	if err != nil {
		t.Fatal(err)
	}
	c := loopback(t, 2)
	idle := len(distGoroutines())
	run := func(ctx context.Context) error {
		be, err := c.NewJob(0, engine.Job{N: g.N(), Graph: g, Colors: colors, Query: q, Plan: plan, Ctx: ctx})
		if err != nil {
			return err
		}
		_, _, err = core.CountColorfulContext(ctx, g, q, colors, core.Options{Plan: plan, Engine: be})
		return err
	}
	whole := cancelAtPoll(1 << 60)
	if err := run(whole); err != nil {
		t.Fatal(err)
	}
	awaitDistGoroutines(t, idle, "the run finished")
	if err := run(cancelAtPoll((1<<60 - whole.left.Load()) / 2)); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled mid-run, got error %v", err)
	}
	awaitDistGoroutines(t, idle, "the run was canceled")
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
		// One goroutine a rank stages its lanes in one order, so both
		// sessions relay byte-identical step batches and differ by the graph.
		c, err := dist.Loopback(2, dist.WorkerOptions{Cache: cache, Conc: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		count, _ = countVia(t, c, g, q, colors, core.DB)
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
