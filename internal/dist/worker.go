package dist

import (
	"context"
	"fmt"
	"log/slog"
	"net"
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
	mu    sync.Mutex
	cap   int
	m     map[uint64]*graph.Graph
	order []uint64 // front = least recently used
}

// NewGraphCache returns a cache holding up to capacity graphs (≤ 0 means 8).
func NewGraphCache(capacity int) *GraphCache {
	if capacity <= 0 {
		capacity = 8
	}
	return &GraphCache{cap: capacity, m: make(map[uint64]*graph.Graph)}
}

// ServeConn runs one worker session over an established coordinator
// connection until the connection closes. Each session is independent: a
// worker process can serve several coordinators at once, and its rank,
// topology, and jobs are all scoped to the connection. It returns the
// read error that ended the session (io.EOF for a clean coordinator
// shutdown), once every job the session started has returned.
func ServeConn(nc net.Conn, opts WorkerOptions) error {
	if opts.Logger == nil {
		opts.Logger = slog.New(slog.DiscardHandler)
	}
	if opts.Cache == nil {
		opts.Cache = NewGraphCache(0)
	}
	w := &workerConn{
		conn: &conn{c: nc},
		opts: opts,
		jobs: make(map[uint64]*wjob),
	}
	// Deferred in this order, the conn closes first: a job blocked sending
	// fails, and the session waits for every job to return.
	defer w.running.Wait()
	defer nc.Close()

	// Handshake: the coordinator speaks first.
	if err := w.conn.shake(false); err != nil {
		return err
	}
	for {
		f, err := w.conn.readFrame()
		if err != nil {
			failAll(&w.mu, w.jobs, fmt.Errorf("dist: coordinator connection lost: %w", err))
			return err
		}
		switch f.Kind {
		case kJobStart:
			// Register the job here, not in its goroutine: the coordinator
			// wrote this frame before any graph or batch for the job, so
			// synchronous registration guarantees none ever races the job
			// into the dropped-frame path. A second start for a live job is
			// dropped.
			if j := w.registerJob(f.Job); j != nil {
				w.running.Add(1)
				go w.runJob(j, int(f.Dst), f.Payload)
			}
		case kGraphData, kStepBatch:
			// The job's own goroutine decodes them: a graph rebuilds its
			// rank order, too heavy for the reader, which must keep draining
			// frames for running jobs.
			if j := w.job(f.Job); j != nil {
				j.enqueue(f.Step, f.Payload)
			}
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
			failAll(&w.mu, w.jobs, err)
			return err
		}
	}
}

// workerConn is one worker session's shared state.
type workerConn struct {
	conn    *conn
	opts    WorkerOptions
	running sync.WaitGroup // runJob goroutines

	mu   sync.Mutex
	jobs map[uint64]*wjob
}

func (w *workerConn) job(id uint64) *wjob {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.jobs[id]
}

// graphFor resolves a job's graph: a cache hit, or one GraphReq whose
// answer, at graphStep, is cached only if its claimed fingerprint and its
// own are both fp: a bad frame fails its own job and no later one.
func (w *workerConn) graphFor(j *wjob, fp uint64) (*graph.Graph, error) {
	if g := w.opts.Cache.get(fp); g != nil {
		return g, nil
	}
	if err := w.conn.writeFrame(&frame{Kind: kGraphReq, Job: j.id}); err != nil {
		return nil, err
	}
	payloads, err := j.await(graphStep, 1)
	if err != nil {
		return nil, err
	}
	var m graphDataMsg
	if err := decodePayload(payloads[0], &m); err != nil || m.G == nil {
		return nil, fmt.Errorf("dist: bad graph payload (%v)", err)
	}
	if m.FP != fp || m.G.Fingerprint() != fp {
		return nil, fmt.Errorf("dist: graph payload claims fingerprint %016x and hashes to %016x, the job asked for %016x", m.FP, m.G.Fingerprint(), fp)
	}
	w.opts.Cache.put(fp, m.G)
	return m.G, nil
}

// registerJob makes a job addressable for incoming frames, or returns nil
// when a live job has the id already. It must run on the reader goroutine
// (see the kJobStart case) so frames relayed right behind the start frame
// find it.
func (w *workerConn) registerJob(id uint64) *wjob {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.jobs[id] != nil {
		return nil
	}
	ctx, cancel := context.WithCancel(context.Background())
	j := &wjob{id: id, w: w, ctx: ctx, cancel: cancel, batches: make(map[int64][][]byte)}
	j.cond = sync.NewCond(&j.mu)
	w.jobs[id] = j
	return j
}

// runJob executes one job, from its start frame's payload, as this
// session's assigned rank, and reports the outcome to the coordinator.
func (w *workerConn) runJob(j *wjob, rank int, start []byte) {
	defer w.running.Done()
	defer func() {
		w.mu.Lock()
		delete(w.jobs, j.id)
		w.mu.Unlock()
		j.cancel()
	}()

	done, err := w.execute(j, rank, start)
	if failed := j.failure(); failed != nil {
		err = failed // what cancelled the solve, or a solve that ended regardless
	}
	if err != nil {
		done.Err = err.Error()
	}
	payload, err := encodePayload(done)
	if err != nil {
		w.opts.Logger.Warn("dist worker: encoding jobDone", "job", j.id, "err", err)
		return
	}
	// Best effort: if the conn died the coordinator has already failed the
	// job.
	if err := w.conn.writeFrame(&frame{Kind: kJobDone, Job: j.id, Src: int32(rank), Payload: payload}); err != nil {
		w.opts.Logger.Warn("dist worker: sending jobDone", "job", j.id, "err", err)
	}
}

// execute decodes a job's start, resolves its graph and runs the same
// deterministic solver as every other rank, over a backend owning only
// this rank's partition block. A panic (malformed wire input reaching a
// library that validates by panicking) becomes a clean job error instead
// of killing the whole worker session.
func (w *workerConn) execute(j *wjob, rank int, start []byte) (done jobDoneMsg, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("worker panic: %v", r)
		}
	}()
	var m jobStartMsg
	if err := decodePayload(start, &m); err != nil {
		return done, fmt.Errorf("dist: bad jobStart payload: %w", err)
	}
	if err := m.check(rank); err != nil {
		return done, err
	}
	g, err := w.graphFor(j, m.GraphFP)
	if err != nil {
		return done, err
	}
	if g.N() != int(m.N) {
		return done, fmt.Errorf("graph %x has %d vertices, job says %d", m.GraphFP, g.N(), m.N)
	}
	q := query.FromEdges(m.QueryName, m.QueryK, m.QueryEdges)
	plan, err := decodePlan(m.Plan, q)
	if err != nil {
		return done, err
	}
	rk := newRank(int(m.Ranks), 0, int(m.N), m.QueryK, rank, j, w.opts.Conc)
	defer func() {
		done.Steps = rk.Steps()
		done.Msgs = rk.Messages()
	}()
	opts := core.Options{Algorithm: core.Algorithm(m.Algorithm), Plan: plan, Engine: rk}
	if engine.JobMode(m.Mode) == engine.ModePerVertex {
		per, _, stats, err := core.CountColorfulPerVertexContext(j.ctx, g, q, m.Colors, int(m.Anchor), opts)
		if err != nil {
			return done, err
		}
		lo, hi := rk.Owned()
		done.PerVertex = per[lo:hi]
		done.OwnedLo, done.OwnedHi = lo, hi
		done.Load = stats.TotalLoad
		done.Entries = stats.TableEntries
		return done, nil
	}
	count, stats, err := core.CountColorfulContext(j.ctx, g, q, m.Colors, opts)
	if err != nil {
		return done, err
	}
	done.Count = count
	done.Load = stats.TotalLoad
	done.Entries = stats.TableEntries
	return done, nil
}

func (c *GraphCache) get(fp uint64) *graph.Graph {
	c.mu.Lock()
	defer c.mu.Unlock()
	g := c.m[fp]
	if g != nil {
		c.touch(fp)
	}
	return g
}

func (c *GraphCache) put(fp uint64, g *graph.Graph) {
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

func (c *GraphCache) touch(fp uint64) {
	for i, f := range c.order {
		if f == fp {
			c.order = append(append(c.order[:i:i], c.order[i+1:]...), fp)
			return
		}
	}
}

// wjob is the worker-side state of one job: the queue of its incoming
// payloads and the failure latch.
type wjob struct {
	id     uint64
	w      *workerConn
	ctx    context.Context
	cancel context.CancelFunc

	mu      sync.Mutex
	cond    *sync.Cond
	batches map[int64][][]byte // superstep (graphStep: the graph) → raw payloads received
	err     error
}

// graphStep is where a job's graph lands in its queue: GraphData frames
// carry step 0, and supersteps count from 1.
const graphStep = 0

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

// failure returns the failure fail latched, if any.
func (j *wjob) failure() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// await blocks until need payloads for the step have arrived — a
// superstep's batches from every other rank, empty ones included (that is
// the barrier), or the job's graph — or the job has failed.
func (j *wjob) await(step int64, need int) ([][]byte, error) {
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
