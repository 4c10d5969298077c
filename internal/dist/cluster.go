package dist

import (
	"context"
	"fmt"
	"log/slog"
	"net"
	"sync"
	"sync/atomic"

	"repro/internal/engine"
	"repro/internal/graph"
)

// Options configures a coordinator cluster.
type Options struct {
	// Parts is the default total partition count when a job does not
	// request one (engine workers ≤ 0); 0 means 4 per worker node.
	Parts int
	// Logger receives node-lifecycle warnings; nil discards them.
	Logger *slog.Logger
}

// Cluster is the coordinator's view of a fixed worker topology: one
// long-lived connection per worker process, shared by every concurrent
// job (frames are multiplexed by job id). Create one per process with
// Connect (real TCP workers) or Loopback (in-process workers), then make
// it the "dist" backend with Enable.
type Cluster struct {
	nodes  []*node
	opts   Options
	logger *slog.Logger

	mu     sync.Mutex
	jobs   map[uint64]*cjob
	closed bool

	nextJob atomic.Uint64
}

// node is one worker process.
type node struct {
	rank int
	addr string
	conn *conn

	wmu sync.Mutex // serializes frame writes

	exchanges atomic.Int64 // StepDone frames received
	load      atomic.Int64 // cumulative per-job load reported in JobDones
	jobs      atomic.Int64 // JobDone frames received
	down      atomic.Bool
}

func (n *node) write(f *frame) error {
	if n.down.Load() {
		return fmt.Errorf("dist: worker %d (%s) is down", n.rank, n.addr)
	}
	n.wmu.Lock()
	defer n.wmu.Unlock()
	return n.conn.writeFrame(f)
}

// Connect dials the given worker addresses and performs the protocol
// handshake with each. The address order defines rank order.
func Connect(addrs []string, opts Options) (*Cluster, error) {
	conns := make([]net.Conn, 0, len(addrs))
	for _, a := range addrs {
		c, err := net.Dial("tcp", a)
		if err != nil {
			for _, p := range conns {
				p.Close()
			}
			return nil, fmt.Errorf("dist: dial worker %s: %w", a, err)
		}
		conns = append(conns, c)
	}
	return NewWithConns(conns, addrs, opts)
}

// NewWithConns builds a cluster over pre-established connections (used by
// Connect and by the in-process Loopback transport). It handshakes each
// connection and starts its reader. addrs is display-only; nil derives
// labels from the connections.
func NewWithConns(conns []net.Conn, addrs []string, opts Options) (*Cluster, error) {
	if len(conns) == 0 {
		return nil, fmt.Errorf("dist: a cluster needs at least one worker")
	}
	logger := opts.Logger
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	c := &Cluster{opts: opts, logger: logger, jobs: make(map[uint64]*cjob)}
	for i, nc := range conns {
		addr := ""
		if addrs != nil && i < len(addrs) {
			addr = addrs[i]
		}
		if addr == "" {
			if ra := nc.RemoteAddr(); ra != nil {
				addr = ra.String()
			}
		}
		c.nodes = append(c.nodes, &node{rank: i, addr: addr, conn: &conn{c: nc}})
	}
	hello, err := encodePayload(helloMsg{Version: protoVersion})
	if err != nil {
		return nil, err
	}
	for _, n := range c.nodes {
		if err := n.write(&frame{Kind: kHello, Src: -1, Payload: hello}); err != nil {
			c.Close()
			return nil, fmt.Errorf("dist: handshake with worker %d (%s): %w", n.rank, n.addr, err)
		}
		f, err := n.conn.readFrame()
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("dist: handshake with worker %d (%s): %w", n.rank, n.addr, err)
		}
		var h helloMsg
		if f.Kind != kHello || decodePayload(f.Payload, &h) != nil || h.Version != protoVersion {
			c.Close()
			return nil, fmt.Errorf("dist: worker %d (%s) spoke protocol %d, want %d", n.rank, n.addr, h.Version, protoVersion)
		}
	}
	for _, n := range c.nodes {
		go c.readLoop(n)
	}
	return c, nil
}

// Close tears the cluster down: every in-flight job fails, and the worker
// connections close.
func (c *Cluster) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	c.failAll(fmt.Errorf("dist: cluster closed"))
	for _, n := range c.nodes {
		n.down.Store(true)
		n.conn.c.Close()
	}
	return nil
}

// job looks a live job up; nil means it already finished or failed (late
// frames for it are dropped).
func (c *Cluster) job(id uint64) *cjob {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.jobs[id]
}

func (c *Cluster) removeJob(id uint64) {
	c.mu.Lock()
	j := c.jobs[id]
	delete(c.jobs, id)
	c.mu.Unlock()
	if j != nil {
		j.finishOnce.Do(func() { close(j.finished) })
	}
}

// failAll fails every live job (node loss, Close).
func (c *Cluster) failAll(err error) {
	c.mu.Lock()
	live := make([]*cjob, 0, len(c.jobs))
	for _, j := range c.jobs {
		live = append(live, j)
	}
	c.mu.Unlock()
	for _, j := range live {
		j.fail(err)
	}
}

// nodeDown marks a worker dead and fails everything: with a rank gone no
// superstep barrier can complete, and the fixed topology means the
// cluster cannot re-partition mid-flight.
func (c *Cluster) nodeDown(n *node, err error) {
	if n.down.Swap(true) {
		return
	}
	c.logger.Warn("dist worker down", "rank", n.rank, "addr", n.addr, "err", err)
	n.conn.c.Close()
	c.failAll(fmt.Errorf("dist: worker %d (%s) failed: %w", n.rank, n.addr, err))
}

// readLoop is the per-node reader: it relays StepBatch frames to their
// destination rank and dispatches everything else to the owning job. It
// must never block on job state — only on the destination conn write,
// which a live worker always drains.
func (c *Cluster) readLoop(n *node) {
	for {
		f, err := n.conn.readFrame()
		if err != nil {
			c.nodeDown(n, err)
			return
		}
		switch f.Kind {
		case kStepBatch:
			if f.Dst < 0 || int(f.Dst) >= len(c.nodes) {
				c.nodeDown(n, fmt.Errorf("batch addressed to rank %d of %d", f.Dst, len(c.nodes)))
				return
			}
			// A fast rank can produce its first batches before NewJob has
			// written the start frame to every other node; relaying such a
			// batch would overtake the destination's jobStart and be
			// dropped as unknown. The job queues them until fully started.
			if j := c.job(f.Job); j != nil && j.holdEarly(f) {
				continue
			}
			dst := c.nodes[f.Dst]
			if err := dst.write(f); err != nil {
				c.nodeDown(dst, err)
			}
		case kStepDone:
			n.exchanges.Add(1)
			if j := c.job(f.Job); j != nil {
				j.stepDone(f.Step)
			}
		case kJobDone:
			var m jobDoneMsg
			if err := decodePayload(f.Payload, &m); err != nil {
				c.nodeDown(n, fmt.Errorf("bad jobDone payload: %w", err))
				return
			}
			n.load.Add(m.Load)
			n.jobs.Add(1)
			if j := c.job(f.Job); j != nil {
				j.rankDone(int(f.Src), &m)
			}
		case kGraphReq:
			if j := c.job(f.Job); j != nil {
				// Encoding a graph is heavy; keep the reader free to relay.
				go c.sendGraph(n, j)
			}
		default:
			c.nodeDown(n, fmt.Errorf("unexpected %s frame", kindName(f.Kind)))
			return
		}
	}
}

func (c *Cluster) sendGraph(n *node, j *cjob) {
	payload, err := encodePayload(graphDataMsg{FP: j.graphFP, G: j.graph})
	if err != nil {
		j.fail(fmt.Errorf("dist: encoding graph for worker %d: %w", n.rank, err))
		return
	}
	if err := n.write(&frame{Kind: kGraphData, Job: j.id, Src: -1, Payload: payload}); err != nil {
		c.nodeDown(n, err)
	}
}

// NewJob starts one counting run across the cluster and returns the
// coordinator backend driving it. workers ≤ 0 means the cluster default
// partition count (Options.Parts, else 4 per node); otherwise workers is
// the total partition count, mirroring the sim backend's rank count.
func (c *Cluster) NewJob(workers int, job engine.Job) (engine.Backend, error) {
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return nil, fmt.Errorf("dist: cluster is closed")
	}
	parts := workers
	if parts <= 0 {
		parts = c.opts.Parts
	}
	if parts <= 0 {
		parts = 4 * len(c.nodes)
	}
	start, err := makeJobStart(len(c.nodes), parts, job)
	if err != nil {
		return nil, err
	}
	j := &cjob{
		id:        c.nextJob.Add(1),
		c:         c,
		ranks:     len(c.nodes),
		graph:     job.Graph,
		graphFP:   start.GraphFP,
		stepDones: make(map[int64]int),
		rankDones: make(map[int]*jobDoneMsg),
		finished:  make(chan struct{}),
	}
	j.cond = sync.NewCond(&j.mu)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, fmt.Errorf("dist: cluster is closed")
	}
	c.jobs[j.id] = j
	c.mu.Unlock()

	payload, err := encodePayload(start)
	if err != nil {
		c.removeJob(j.id)
		return nil, err
	}
	for _, n := range c.nodes {
		if err := n.write(&frame{Kind: kJobStart, Job: j.id, Src: -1, Dst: int32(n.rank), Payload: payload}); err != nil {
			c.nodeDown(n, err)
			c.removeJob(j.id)
			return nil, fmt.Errorf("dist: starting job on worker %d: %w", n.rank, err)
		}
	}
	j.release()

	// A canceled run can return from the solver without reaching Reduce;
	// the watchdog tears the remote job down in that case.
	ctx := job.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	go func() {
		select {
		case <-ctx.Done():
			j.fail(ctx.Err())
		case <-j.finished:
		}
	}()

	return newCoord(len(c.nodes), parts, job.N, j), nil
}

// cjob is the coordinator-side state of one in-flight job.
type cjob struct {
	id      uint64
	c       *Cluster
	ranks   int
	graph   *graph.Graph
	graphFP uint64

	mu         sync.Mutex
	cond       *sync.Cond
	stepDones  map[int64]int       // superstep → ranks that finished producing it
	rankDones  map[int]*jobDoneMsg // rank → final report
	failErr    error
	finished   chan struct{}
	finishOnce sync.Once
	cancelSent bool
	started    bool     // every node has its jobStart frame
	early      []*frame // batches held back until started (see readLoop)
}

// holdEarly queues a batch frame when the job is not fully started yet;
// false means the caller should relay it normally.
func (j *cjob) holdEarly(f *frame) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.started {
		return false
	}
	j.early = append(j.early, f)
	return true
}

// release marks the job fully started and relays any batches held back.
// Held frames can only be for the first superstep (no rank can pass a
// barrier while another rank has no jobStart), so relative order within
// the queue is irrelevant.
func (j *cjob) release() {
	j.mu.Lock()
	j.started = true
	early := j.early
	j.early = nil
	j.mu.Unlock()
	for _, f := range early {
		dst := j.c.nodes[f.Dst]
		if err := dst.write(f); err != nil {
			j.c.nodeDown(dst, err)
		}
	}
}

// stepDone records one rank's completion of a superstep's produce phase.
func (j *cjob) stepDone(step int64) {
	j.mu.Lock()
	j.stepDones[step]++
	j.mu.Unlock()
	j.cond.Broadcast()
}

// rankDone records one rank's final report; an error report fails the job.
func (j *cjob) rankDone(rank int, m *jobDoneMsg) {
	if m.Err != "" {
		j.fail(fmt.Errorf("dist: worker %d: %s", rank, m.Err))
		return
	}
	j.mu.Lock()
	j.rankDones[rank] = m
	j.mu.Unlock()
	j.cond.Broadcast()
}

// fail latches the job's failure, wakes every waiter, deregisters the job
// (late frames are dropped), and tells the other workers to abandon it.
func (j *cjob) fail(err error) {
	j.mu.Lock()
	if j.failErr != nil {
		j.mu.Unlock()
		return
	}
	j.failErr = err
	sendCancel := !j.cancelSent
	j.cancelSent = true
	j.mu.Unlock()
	j.cond.Broadcast()
	j.c.removeJob(j.id)
	if sendCancel {
		payload, perr := encodePayload(cancelMsg{Reason: err.Error()})
		if perr != nil {
			payload = nil
		}
		for _, n := range j.c.nodes {
			if werr := n.write(&frame{Kind: kJobCancel, Job: j.id, Src: -1, Payload: payload}); werr != nil {
				j.c.nodeDown(n, werr)
			}
		}
	}
}

// barrier blocks until every rank has finished producing the given
// superstep (their batches, relayed FIFO ahead of the StepDone, have then
// all been forwarded). Returns the latched failure instead of blocking
// forever when the job is dead.
func (j *cjob) barrier(step int64) error {
	j.mu.Lock()
	for {
		if j.failErr != nil {
			err := j.failErr
			j.mu.Unlock()
			return err
		}
		if j.stepDones[step] >= j.ranks {
			delete(j.stepDones, step)
			j.mu.Unlock()
			return nil
		}
		if len(j.rankDones) == j.ranks {
			// Every worker finished the whole job, yet this superstep never
			// completed: the replicated solvers diverged — a protocol bug,
			// not a data condition.
			j.mu.Unlock()
			err := fmt.Errorf("dist: job %d: all ranks finished but superstep %d incomplete (SPMD divergence)", j.id, step)
			j.fail(err)
			return err
		}
		j.cond.Wait()
	}
}

// gather blocks until every rank has reported success, or the job failed.
func (j *cjob) gather() (map[int]*jobDoneMsg, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for {
		if j.failErr != nil {
			return nil, j.failErr
		}
		if len(j.rankDones) == j.ranks {
			return j.rankDones, nil
		}
		j.cond.Wait()
	}
}

// NodeStats is one worker process's transport-level counters, cumulative
// over the cluster's lifetime (all jobs). The tags are its /v1/stats form
// (engine.dist, one row per node).
type NodeStats struct {
	Rank       int    `json:"rank"`
	Addr       string `json:"addr"`
	Alive      bool   `json:"alive"`
	BytesSent  int64  `json:"bytesSent"` // bytes the coordinator sent to this node
	BytesRecv  int64  `json:"bytesRecv"` // bytes received from this node
	FramesSent int64  `json:"framesSent"`
	FramesRecv int64  `json:"framesRecv"`
	Exchanges  int64  `json:"exchanges"` // superstep completions (StepDone frames)
	Load       int64  `json:"load"`      // cumulative projection-function operations reported
	Jobs       int64  `json:"jobs"`      // finished job reports
}

// NodeStats snapshots every worker node's counters.
func (c *Cluster) NodeStats() []NodeStats {
	out := make([]NodeStats, len(c.nodes))
	for i, n := range c.nodes {
		out[i] = NodeStats{
			Rank:       n.rank,
			Addr:       n.addr,
			Alive:      !n.down.Load(),
			BytesSent:  n.conn.bytesSent.Load(),
			BytesRecv:  n.conn.bytesRecv.Load(),
			FramesSent: n.conn.framesSent.Load(),
			FramesRecv: n.conn.framesRecv.Load(),
			Exchanges:  n.exchanges.Load(),
			Load:       n.load.Load(),
			Jobs:       n.jobs.Load(),
		}
	}
	return out
}

// Enable registers c as the process's "dist" execution backend: after
// this, engine.New (and every estimate request naming the backend "dist")
// runs its supersteps across the cluster's worker processes. Calling
// Enable again with a new cluster replaces the previous one for new jobs.
func Enable(c *Cluster) {
	engine.Register(engine.DistName, func(workers int, job engine.Job) (engine.Backend, error) {
		return c.NewJob(workers, job)
	})
}
