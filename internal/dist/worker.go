package dist

import (
	"context"
	"fmt"
	"log/slog"
	"net"
	"runtime"
	"sync"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/query"
)

// WorkerOptions configures one worker session (ServeConn).
type WorkerOptions struct {
	// Conc is how many goroutines execute this rank's partitions; ≤ 0
	// means GOMAXPROCS.
	Conc int
	// Cache, when set, is a shared decoded-graph cache (see NewGraphCache):
	// sgworker passes one per process so coordinators that reconnect reuse
	// shipped graphs. Nil gives the session a private cache of
	// NewGraphCache's default size. A miss costs one GraphReq round trip,
	// never a failure.
	Cache *GraphCache
	// Logger receives per-job debug logs; nil discards them.
	Logger *slog.Logger
}

// GraphCache is a fingerprint-addressed LRU of decoded graphs, shareable
// across worker sessions.
type GraphCache struct {
	inner graphCache
}

// NewGraphCache returns a cache holding up to capacity graphs (≤ 0 means 8).
func NewGraphCache(capacity int) *GraphCache {
	if capacity <= 0 {
		capacity = 8
	}
	return &GraphCache{inner: graphCache{cap: capacity, m: make(map[uint64]*graph.Graph)}}
}

// ServeConn runs one worker session over an established coordinator
// connection until the connection closes. Each session is independent: a
// worker process can serve several coordinators at once, and its rank,
// topology, and jobs are all scoped to the connection. It returns the
// read error that ended the session (io.EOF for a clean coordinator
// shutdown).
func ServeConn(nc net.Conn, opts WorkerOptions) error {
	if opts.Conc <= 0 {
		opts.Conc = runtime.GOMAXPROCS(0)
	}
	logger := opts.Logger
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	if opts.Cache == nil {
		opts.Cache = NewGraphCache(0)
	}
	w := &workerConn{
		conn:    &conn{c: nc},
		opts:    opts,
		logger:  logger,
		jobs:    make(map[uint64]*wjob),
		graphs:  &opts.Cache.inner,
		waiters: make(map[uint64][]chan *graph.Graph),
	}
	defer nc.Close()

	// Handshake: the coordinator speaks first.
	f, err := w.conn.readFrame()
	if err != nil {
		return err
	}
	var h helloMsg
	if f.Kind != kHello || decodePayload(f.Payload, &h) != nil || h.Version != protoVersion {
		return fmt.Errorf("dist: coordinator spoke protocol %d, want %d", h.Version, protoVersion)
	}
	hello, err := encodePayload(helloMsg{Version: protoVersion})
	if err != nil {
		return err
	}
	if err := w.send(&frame{Kind: kHello, Payload: hello}); err != nil {
		return err
	}

	for {
		f, err := w.conn.readFrame()
		if err != nil {
			w.failAll(fmt.Errorf("dist: coordinator connection lost: %w", err))
			return err
		}
		switch f.Kind {
		case kJobStart:
			var m jobStartMsg
			if err := decodePayload(f.Payload, &m); err != nil {
				w.failAll(fmt.Errorf("dist: bad jobStart payload: %w", err))
				return err
			}
			// Register the job here, not in the run goroutine: the
			// coordinator wrote this frame before any relayed batch for the
			// job, so synchronous registration guarantees no batch ever
			// races the job into the dropped-frame path.
			j := w.registerJob(f.Job, int(m.Ranks))
			go w.runJob(j, int(f.Dst), m)
		case kStepBatch:
			if j := w.job(f.Job); j != nil {
				j.enqueue(f.Step, f.Payload)
			}
		case kGraphData:
			// Decoding a graph rebuilds its rank order — too heavy for the
			// reader, which must keep draining batches for running jobs.
			payload := f.Payload
			go w.deliverGraph(payload)
		case kJobCancel:
			var m cancelMsg
			reason := "canceled by coordinator"
			if decodePayload(f.Payload, &m) == nil && m.Reason != "" {
				reason = m.Reason
			}
			if j := w.job(f.Job); j != nil {
				j.fail(fmt.Errorf("dist: %s", reason))
			}
		default:
			err := fmt.Errorf("dist: unexpected %s frame from coordinator", kindName(f.Kind))
			w.failAll(err)
			return err
		}
	}
}

// workerConn is one worker session's shared state.
type workerConn struct {
	conn   *conn
	wmu    sync.Mutex
	opts   WorkerOptions
	logger *slog.Logger

	mu      sync.Mutex
	jobs    map[uint64]*wjob
	graphs  *graphCache
	waiters map[uint64][]chan *graph.Graph // fingerprint → fetch waiters
}

func (w *workerConn) send(f *frame) error {
	w.wmu.Lock()
	defer w.wmu.Unlock()
	return w.conn.writeFrame(f)
}

func (w *workerConn) job(id uint64) *wjob {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.jobs[id]
}

func (w *workerConn) failAll(err error) {
	w.mu.Lock()
	live := make([]*wjob, 0, len(w.jobs))
	for _, j := range w.jobs {
		live = append(live, j)
	}
	w.mu.Unlock()
	for _, j := range live {
		j.fail(err)
	}
}

func (w *workerConn) deliverGraph(payload []byte) {
	var m graphDataMsg
	if err := decodePayload(payload, &m); err != nil || m.G == nil {
		w.logger.Warn("dist worker: bad graph payload", "err", err)
		return
	}
	w.graphs.put(m.FP, m.G)
	w.mu.Lock()
	chans := w.waiters[m.FP]
	delete(w.waiters, m.FP)
	w.mu.Unlock()
	for _, ch := range chans {
		ch <- m.G // buffered; never blocks
	}
}

// graphFor resolves a job's graph: cache hit, or one GraphReq round trip.
func (w *workerConn) graphFor(ctx context.Context, jobID, fp uint64) (*graph.Graph, error) {
	if g := w.graphs.get(fp); g != nil {
		return g, nil
	}
	ch := make(chan *graph.Graph, 1)
	w.mu.Lock()
	w.waiters[fp] = append(w.waiters[fp], ch)
	w.mu.Unlock()
	// Re-check after registering: the data may have landed in between.
	if g := w.graphs.get(fp); g != nil {
		return g, nil
	}
	if err := w.send(&frame{Kind: kGraphReq, Job: jobID}); err != nil {
		return nil, err
	}
	select {
	case g := <-ch:
		return g, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// registerJob makes a job addressable for incoming frames. It must run on
// the reader goroutine (see the kJobStart case) so batches relayed right
// behind the start frame find it.
func (w *workerConn) registerJob(id uint64, ranks int) *wjob {
	ctx, cancel := context.WithCancel(context.Background())
	j := &wjob{id: id, w: w, ranks: ranks, ctx: ctx, cancel: cancel, batches: make(map[int64][][]byte)}
	j.cond = sync.NewCond(&j.mu)
	w.mu.Lock()
	w.jobs[id] = j
	w.mu.Unlock()
	return j
}

// runJob executes one job as this session's assigned rank: the same
// deterministic solver as every other rank, over a backend owning only
// this rank's partition block.
func (w *workerConn) runJob(j *wjob, rank int, m jobStartMsg) {
	id := j.id
	ctx := j.ctx
	defer func() {
		w.mu.Lock()
		delete(w.jobs, id)
		w.mu.Unlock()
		j.cancel()
	}()

	rk := newRank(int(m.Ranks), 0, int(m.N), rank, j, w.opts.Conc)
	done := w.execute(ctx, rk, m)
	done.Steps = rk.Steps()
	done.Msgs = rk.Messages()
	payload, err := encodePayload(done)
	if err != nil {
		w.logger.Warn("dist worker: encoding jobDone", "job", id, "err", err)
		return
	}
	// Best effort: if the conn died the coordinator has already failed the
	// job.
	if err := w.send(&frame{Kind: kJobDone, Job: id, Src: int32(rank), Payload: payload}); err != nil {
		w.logger.Warn("dist worker: sending jobDone", "job", id, "err", err)
	}
}

// execute runs the solver and shapes the final report. A panic (malformed
// wire input reaching a library that validates by panicking) becomes a
// clean job error instead of killing the whole worker session.
func (w *workerConn) execute(ctx context.Context, rk *rank, m jobStartMsg) (done jobDoneMsg) {
	defer func() {
		if r := recover(); r != nil {
			done.Err = fmt.Sprintf("worker panic: %v", r)
		}
	}()
	g, err := w.graphFor(ctx, rk.j.id, m.GraphFP)
	if err != nil {
		done.Err = err.Error()
		return
	}
	if g.N() != int(m.N) {
		done.Err = fmt.Sprintf("graph %x has %d vertices, job says %d", m.GraphFP, g.N(), m.N)
		return
	}
	q := query.FromEdges(m.QueryName, m.QueryK, m.QueryEdges)
	plan, err := decodePlan(m.Plan, q)
	if err != nil {
		done.Err = err.Error()
		return
	}
	opts := core.Options{Algorithm: core.Algorithm(m.Algorithm), Plan: plan, Engine: rk}
	if engine.JobMode(m.Mode) == engine.ModePerVertex {
		per, _, stats, err := core.CountColorfulPerVertexContext(ctx, g, q, m.Colors, int(m.Anchor), opts)
		if err != nil {
			done.Err = err.Error()
			return
		}
		lo, hi := rk.Owned()
		done.PerVertex = per[lo:hi]
		done.OwnedLo, done.OwnedHi = lo, hi
		done.Load = stats.TotalLoad
		done.Entries = stats.TableEntries
		return
	}
	count, stats, err := core.CountColorfulContext(ctx, g, q, m.Colors, opts)
	if err != nil {
		done.Err = err.Error()
		return
	}
	done.Count = count
	done.Load = stats.TotalLoad
	done.Entries = stats.TableEntries
	return
}

// graphCache is the worker-side fingerprint-addressed graph LRU.
type graphCache struct {
	mu    sync.Mutex
	cap   int
	m     map[uint64]*graph.Graph
	order []uint64 // front = least recently used
}

func (c *graphCache) get(fp uint64) *graph.Graph {
	c.mu.Lock()
	defer c.mu.Unlock()
	g := c.m[fp]
	if g != nil {
		c.touch(fp)
	}
	return g
}

func (c *graphCache) put(fp uint64, g *graph.Graph) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.m[fp]; !ok {
		c.order = append(c.order, fp)
	}
	c.m[fp] = g
	c.touch(fp)
	for len(c.m) > c.cap {
		old := c.order[0]
		c.order = c.order[1:]
		delete(c.m, old)
	}
}

func (c *graphCache) touch(fp uint64) {
	for i, f := range c.order {
		if f == fp {
			c.order = append(append(c.order[:i:i], c.order[i+1:]...), fp)
			return
		}
	}
}

// wjob is the worker-side state of one job: the incoming batch queue and
// the failure latch.
type wjob struct {
	id     uint64
	w      *workerConn
	ranks  int
	ctx    context.Context
	cancel context.CancelFunc

	mu      sync.Mutex
	cond    *sync.Cond
	batches map[int64][][]byte // superstep → raw batch payloads received
	err     error
}

func (j *wjob) enqueue(step int64, payload []byte) {
	j.mu.Lock()
	j.batches[step] = append(j.batches[step], payload)
	j.mu.Unlock()
	j.cond.Broadcast()
}

// fail latches a local failure and cancels the job's context, which
// unwinds the solver at its next cancellation poll.
func (j *wjob) fail(err error) {
	j.mu.Lock()
	if j.err == nil {
		j.err = err
	}
	j.mu.Unlock()
	j.cancel()
	j.cond.Broadcast()
}

// await blocks until every other rank's batch for the superstep has
// arrived (one per rank, empty batches included — that is the barrier),
// or the job has failed.
func (j *wjob) await(step int64) ([][]byte, error) {
	need := j.ranks - 1
	j.mu.Lock()
	defer j.mu.Unlock()
	for {
		if j.err != nil {
			return nil, j.err
		}
		if len(j.batches[step]) >= need {
			b := j.batches[step]
			delete(j.batches, step)
			return b, nil
		}
		j.cond.Wait()
	}
}
