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
	// VirtualNodes per member (≤ 0 means DefaultVirtualNodes).
	VirtualNodes int
	// FailThreshold is the consecutive forward failures that open a
	// peer's circuit (≤ 0 means 3).
	FailThreshold int
	// Cooldown is how long an open circuit rejects forwards before one
	// probe request is let through (≤ 0 means 5s).
	Cooldown time.Duration
	// HealthEvery is the background peer health-check cadence; 0 means
	// 2s, < 0 disables the checker (tests drive CheckOnce directly).
	HealthEvery time.Duration
	// HealthTimeout bounds one health probe (≤ 0 means 1s).
	HealthTimeout time.Duration
	// Probe checks one peer's readiness. Nil means GET
	// http://<addr>/readyz expecting 200.
	Probe func(addr string) error
	// Logger receives membership and health transitions. Nil means
	// slog.Default().
	Logger *slog.Logger
}

func (o Options) withDefaults() (Options, error) {
	if o.Self == "" {
		return o, fmt.Errorf("cluster: Options.Self is required")
	}
	if o.FailThreshold <= 0 {
		o.FailThreshold = 3
	}
	if o.Cooldown <= 0 {
		o.Cooldown = 5 * time.Second
	}
	if o.HealthEvery == 0 {
		o.HealthEvery = 2 * time.Second
	}
	if o.HealthTimeout <= 0 {
		o.HealthTimeout = time.Second
	}
	if o.Logger == nil {
		o.Logger = slog.Default()
	}
	return o, nil
}

// Breaker is a per-peer circuit breaker: FailThreshold consecutive
// failures open it for Cooldown, during which Allow rejects immediately
// (the caller serves the key locally instead of waiting on a dead
// host). After the cooldown one request is let through as the probe;
// its outcome closes or re-opens the circuit. Methods take the clock as
// a parameter so tests need no sleeping.
type Breaker struct {
	mu        sync.Mutex
	failures  int
	openUntil time.Time

	threshold int
	cooldown  time.Duration

	trips atomic.Uint64
}

// NewBreaker returns a closed breaker (threshold ≤ 0 means 3, cooldown
// ≤ 0 means 5s).
func NewBreaker(threshold int, cooldown time.Duration) *Breaker {
	if threshold <= 0 {
		threshold = 3
	}
	if cooldown <= 0 {
		cooldown = 5 * time.Second
	}
	return &Breaker{threshold: threshold, cooldown: cooldown}
}

// Allow reports whether a request may go to the peer at time now: true
// while the circuit is closed, false while open, true again once the
// cooldown elapsed (the half-open probe).
func (b *Breaker) Allow(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return !now.Before(b.openUntil)
}

// Success closes the circuit.
func (b *Breaker) Success() {
	b.mu.Lock()
	b.failures = 0
	b.openUntil = time.Time{}
	b.mu.Unlock()
}

// Failure records one failure at time now; reaching the threshold (or
// failing the half-open probe) opens the circuit for the cooldown.
func (b *Breaker) Failure(now time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failures++
	if b.failures >= b.threshold {
		// A half-open probe failure re-opens immediately: failures is
		// already at or past the threshold from the streak that opened it.
		if now.After(b.openUntil) {
			b.trips.Add(1)
		}
		b.openUntil = now.Add(b.cooldown)
	}
}

// Open reports whether the circuit is open at time now.
func (b *Breaker) Open(now time.Time) bool { return !b.Allow(now) }

// Trips returns how many times the circuit opened.
func (b *Breaker) Trips() uint64 { return b.trips.Load() }

// peer is one remote member's forwarding state.
type peer struct {
	addr    string
	breaker *Breaker
	// up mirrors the last health probe (1 = ready). Peers start up:
	// before the first probe lands, the breaker alone decides — an
	// optimistic start means a briefly-unprobed peer still gets its
	// keys, and a dead one trips the breaker on the first forward.
	up       atomic.Int32
	lastErr  atomic.Pointer[string]
	forwards atomic.Uint64 // requests this replica forwarded to the peer
	failures atomic.Uint64 // transport-level forward failures
}

// PeerStats is one peer's snapshot for /v1/stats and, by its tags, /metrics.
type PeerStats struct {
	Addr        string `json:"addr" metric:"{peer}"`
	Up          bool   `json:"up" metric:"cluster_peer_up" help:"Whether the peer's last readiness probe (or forward) succeeded."`
	BreakerOpen bool   `json:"breakerOpen" metric:"cluster_peer_breaker_open" help:"Whether the peer's circuit breaker is open (forwards fail fast to local execution)."`
	Trips       uint64 `json:"breakerTrips" metric:"cluster_peer_breaker_trips_total" help:"Times the peer's circuit breaker opened."`
	Forwards    uint64 `json:"forwards" metric:"cluster_peer_forwards_total" help:"Requests forwarded to the peer."`
	Failures    uint64 `json:"failures" metric:"cluster_peer_failures_total" help:"Transport-level failures forwarding to the peer."`
	LastError   string `json:"lastError,omitempty"`
}

// Stats is the cluster layer's snapshot for /v1/stats.
type Stats struct {
	Self    string      `json:"self"`
	Members []string    `json:"members" metric:"cluster_members" help:"Configured cluster members (self included)."`
	Peers   []PeerStats `json:"peers"`
}

// Cluster is one replica's view of the serving cluster: the shared ring
// plus per-peer health and breaker state. Ownership is static (the
// ring); Allow is the dynamic gate deciding forward vs. local fallback.
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
	ring, err := NewRing(members, opts.VirtualNodes)
	if err != nil {
		return nil, err
	}
	if opts.Probe == nil {
		opts.Probe = httpProbe(opts.HealthTimeout)
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
		p := &peer{addr: m, breaker: NewBreaker(opts.FailThreshold, opts.Cooldown)}
		p.up.Store(1)
		c.peers[m] = p
	}
	if opts.HealthEvery > 0 && len(c.peers) > 0 {
		go c.healthLoop()
	} else {
		close(c.done)
	}
	return c, nil
}

// httpProbe returns the default readiness probe: GET /readyz with its
// own short-timeout client, so a wedged peer cannot stall the checker.
func httpProbe(timeout time.Duration) func(addr string) error {
	client := &http.Client{Timeout: timeout}
	return func(addr string) error {
		resp, err := client.Get("http://" + addr + "/readyz")
		if err != nil {
			return err
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("cluster: %s /readyz returned %d", addr, resp.StatusCode)
		}
		return nil
	}
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

// Allow reports whether a forward to addr should be attempted now:
// the peer's last health probe passed and its circuit is closed (or
// half-open). Unknown addresses — never in the membership — are never
// forwarded to.
func (c *Cluster) Allow(addr string) bool {
	p, ok := c.peers[addr]
	if !ok {
		return false
	}
	return p.up.Load() == 1 && p.breaker.Allow(time.Now())
}

// ReportSuccess records a successful forward to addr: the breaker
// closes and the peer counts as up (a served request is the strongest
// health signal there is).
func (c *Cluster) ReportSuccess(addr string) {
	p, ok := c.peers[addr]
	if !ok {
		return
	}
	p.forwards.Add(1)
	p.breaker.Success()
	p.up.Store(1)
}

// ReportFailure records a transport-level forward failure to addr.
func (c *Cluster) ReportFailure(addr string) {
	p, ok := c.peers[addr]
	if !ok {
		return
	}
	p.failures.Add(1)
	p.breaker.Failure(time.Now())
}

// CheckOnce probes every peer once and updates its up state. Exposed so
// tests (and the first loop iteration) can force a synchronous pass.
func (c *Cluster) CheckOnce() {
	for _, p := range c.peers {
		err := c.opts.Probe(p.addr)
		was := p.up.Load()
		if err != nil {
			msg := err.Error()
			p.lastErr.Store(&msg)
			p.up.Store(0)
			if was == 1 {
				c.opts.Logger.Warn("cluster: peer unhealthy", "peer", p.addr, "err", err)
			}
			continue
		}
		p.lastErr.Store(nil)
		p.up.Store(1)
		if was == 0 {
			c.opts.Logger.Info("cluster: peer recovered", "peer", p.addr)
		}
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
	now := time.Now()
	for _, m := range st.Members {
		p, ok := c.peers[m]
		if !ok {
			continue // self
		}
		ps := PeerStats{
			Addr:        p.addr,
			Up:          p.up.Load() == 1,
			BreakerOpen: p.breaker.Open(now),
			Trips:       p.breaker.Trips(),
			Forwards:    p.forwards.Load(),
			Failures:    p.failures.Load(),
		}
		if msg := p.lastErr.Load(); msg != nil {
			ps.LastError = *msg
		}
		st.Peers = append(st.Peers, ps)
	}
	return st
}
