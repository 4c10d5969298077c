package cluster

import (
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// Options configures a Cluster.
type Options struct {
	// Self is this replica's advertised address. Required; added to
	// Members if absent.
	Self string
	// Members is the full static membership (every replica's advertised
	// address, self included). Every replica must be configured with the
	// same set — the ring is a pure function of it.
	Members []string
	// HealthEvery is the background peer health-check cadence; 0 means
	// 2s, < 0 disables the checker (tests drive CheckOnce directly).
	HealthEvery time.Duration
	// Probe checks one peer's health. Nil means GET
	// http://<addr>/healthz expecting 200 within healthTimeout.
	Probe func(addr string) error
	// Logger receives membership and health transitions. Nil means
	// slog.Default().
	Logger *slog.Logger
}

// healthTimeout bounds one default health probe.
const healthTimeout = time.Second

func (o Options) withDefaults() (Options, error) {
	if o.Self == "" {
		return o, fmt.Errorf("cluster: Options.Self is required")
	}
	if o.HealthEvery == 0 {
		o.HealthEvery = 2 * time.Second
	}
	if o.Probe == nil {
		o.Probe = httpProbe
	}
	if o.Logger == nil {
		o.Logger = slog.Default()
	}
	return o, nil
}

// peer is one remote member's forwarding state.
type peer struct {
	addr string
	// down is the peer's one liveness bit: set by a failed probe or a
	// failed forward, cleared by a passed probe or a served request.
	// Peers start up: a briefly-unprobed peer still gets its keys, and a
	// dead one costs the one forward that finds it dead.
	down     atomic.Bool
	lastErr  atomic.Pointer[string]
	forwards atomic.Uint64 // requests this replica forwarded to the peer
	failures atomic.Uint64 // transport-level forward failures
}

// PeerStats is one peer's snapshot for /v1/stats and, by its tags, /metrics.
type PeerStats struct {
	Addr      string `json:"addr" metric:"{peer}"`
	Up        bool   `json:"up" metric:"cluster_peer_up" help:"Whether the peer's last health probe (or forward) succeeded."`
	Forwards  uint64 `json:"forwards" metric:"cluster_peer_forwards_total" help:"Requests forwarded to the peer."`
	Failures  uint64 `json:"failures" metric:"cluster_peer_failures_total" help:"Transport-level failures forwarding to the peer."`
	LastError string `json:"lastError,omitempty"`
}

// Stats is the cluster layer's snapshot for /v1/stats.
type Stats struct {
	Self    string      `json:"self"`
	Members []string    `json:"members" metric:"cluster_members" help:"Configured cluster members (self included)."`
	Peers   []PeerStats `json:"peers"`
}

// Cluster is one replica's view of the serving cluster: the shared ring
// plus each peer's liveness bit. Ownership is static (the ring); Allow is
// the dynamic gate deciding forward vs. local fallback.
type Cluster struct {
	opts  Options
	ring  *Ring
	peers map[string]*peer // keyed by address; self excluded

	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}
}

// New builds a cluster view from the static membership and starts the
// background health checker (unless disabled). Close releases it.
func New(opts Options) (*Cluster, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	members := append([]string(nil), opts.Members...)
	found := false
	for _, m := range members {
		if m == opts.Self {
			found = true
			break
		}
	}
	if !found {
		members = append(members, opts.Self)
	}
	ring, err := NewRing(members, 0)
	if err != nil {
		return nil, err
	}
	c := &Cluster{
		opts:  opts,
		ring:  ring,
		peers: make(map[string]*peer),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	for _, m := range ring.Members() {
		if m == opts.Self {
			continue
		}
		c.peers[m] = &peer{addr: m}
	}
	if opts.HealthEvery > 0 && len(c.peers) > 0 {
		go c.healthLoop()
	} else {
		close(c.done)
	}
	return c, nil
}

// probeClient is the default probe's own short-timeout client, so a
// wedged peer cannot stall the checker.
var probeClient = &http.Client{Timeout: healthTimeout}

// httpProbe is the default health probe: GET /healthz expecting 200.
func httpProbe(addr string) error {
	resp, err := probeClient.Get("http://" + addr + "/healthz")
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("cluster: %s /healthz returned %d", addr, resp.StatusCode)
	}
	return nil
}

// Close stops the health checker.
func (c *Cluster) Close() {
	c.stopOnce.Do(func() { close(c.stop) })
	<-c.done
}

// Self returns this replica's advertised address.
func (c *Cluster) Self() string { return c.opts.Self }

// Members returns the full sorted membership, self included.
func (c *Cluster) Members() []string { return c.ring.Members() }

// Owner maps a key hash to its home member's address (possibly self).
func (c *Cluster) Owner(keyHash uint64) string { return c.ring.Owner(keyHash) }

// IsSelf reports whether addr is this replica.
func (c *Cluster) IsSelf(addr string) bool { return addr == c.opts.Self }

// Allow reports whether a forward to addr should be attempted now: addr
// is a peer and its liveness bit says up. Unknown addresses — never in
// the membership — are never forwarded to.
func (c *Cluster) Allow(addr string) bool {
	p, ok := c.peers[addr]
	return ok && !p.down.Load()
}

// ReportSuccess records a forwarded request addr served: the peer is up
// (a served request is the strongest health signal there is).
func (c *Cluster) ReportSuccess(addr string) {
	if p, ok := c.peers[addr]; ok {
		p.forwards.Add(1)
		c.mark(p, nil)
	}
}

// ReportFailure records a transport-level failure forwarding to addr:
// the peer is down until a probe passes or a request is served.
func (c *Cluster) ReportFailure(addr string, err error) {
	if p, ok := c.peers[addr]; ok {
		p.failures.Add(1)
		c.mark(p, err)
	}
}

// CheckOnce probes every peer once and records each outcome. Exposed so
// tests (and the first loop iteration) can force a synchronous pass.
func (c *Cluster) CheckOnce() {
	for _, p := range c.peers {
		c.mark(p, c.opts.Probe(p.addr))
	}
}

// mark sets p's liveness bit from one outcome of reaching it, a probe's
// or a forward's: nil marks it up, an error down.
func (c *Cluster) mark(p *peer, err error) {
	if err == nil {
		p.lastErr.Store(nil)
		if p.down.Swap(false) {
			c.opts.Logger.Info("cluster: peer recovered", "peer", p.addr)
		}
		return
	}
	msg := err.Error()
	p.lastErr.Store(&msg)
	if !p.down.Swap(true) {
		c.opts.Logger.Warn("cluster: peer unhealthy", "peer", p.addr, "err", err)
	}
}

func (c *Cluster) healthLoop() {
	defer close(c.done)
	t := time.NewTicker(c.opts.HealthEvery)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			c.CheckOnce()
		}
	}
}

// Stats snapshots the cluster view, peers in member order.
func (c *Cluster) Stats() Stats {
	st := Stats{Self: c.opts.Self, Members: c.ring.Members()}
	for _, m := range st.Members {
		p, ok := c.peers[m]
		if !ok {
			continue // self
		}
		ps := PeerStats{
			Addr:     p.addr,
			Up:       !p.down.Load(),
			Forwards: p.forwards.Load(),
			Failures: p.failures.Load(),
		}
		if msg := p.lastErr.Load(); msg != nil {
			ps.LastError = *msg
		}
		st.Peers = append(st.Peers, ps)
	}
	return st
}
