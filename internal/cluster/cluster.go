package cluster

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"cad/internal/obs"
)

// Config parameterizes a Cluster.
type Config struct {
	// Self is this node's id; Advertise the base URL peers reach it at.
	Self      string
	Advertise string
	// Peers are the other members (static membership: every node is
	// configured with the same set, minus itself).
	Peers []Node
	// VNodes is the virtual-node count per member (≤ 0 means DefaultVNodes).
	VNodes int
	// HealthInterval spaces the peer /readyz probes (≤ 0 means 2s).
	HealthInterval time.Duration
	// HealthFailures is how many consecutive failed probes mark a peer down
	// (≤ 0 means 3). One successful probe marks it up again.
	HealthFailures int
	// HealthTimeout bounds one probe (≤ 0 means 2s).
	HealthTimeout time.Duration
	// Client issues forwarded requests, scatter-gather fan-outs, and health
	// probes; nil means a private client with sane timeouts.
	Client *http.Client
	// Registry receives the cluster metrics; nil creates a private one.
	Registry *obs.Registry
	// Logger, when non-nil, gets membership-transition lines.
	Logger *slog.Logger
	// OnPeerUp, when non-nil, runs after a peer transitions down→up (also
	// once per peer that is up at the first health pass). cadserve hooks
	// rebalancing here: a joining or recovering peer should receive the
	// local streams it now owns.
	OnPeerUp func(peer Node)
}

// peerState tracks one peer's liveness.
type peerState struct {
	node     Node
	down     bool
	failures int
	probed   bool // at least one probe completed
	lastErr  string
}

// Cluster is one node's view of the membership: the ring, peer liveness,
// and the HTTP plumbing for forwarding and fan-out. Safe for concurrent use.
type Cluster struct {
	self   Node
	ring   *Ring
	client *http.Client
	reg    *obs.Registry
	logger *slog.Logger
	onUp   func(Node)

	interval time.Duration
	failures int
	timeout  time.Duration

	mu    sync.Mutex
	peers map[string]*peerState

	forwarded     func(peer string) *obs.Counter
	forwardErrors func(peer string) *obs.Counter
	scattered     func(peer string) *obs.Counter
	scatterErrors func(peer string) *obs.Counter
	peerUp        func(peer string) *obs.Gauge
	handoffsSent  *obs.Counter
	handoffsRecv  *obs.Counter
	tailColumns   *obs.Counter
}

// New builds this node's cluster view. Self must not appear in Peers.
func New(cfg Config) (*Cluster, error) {
	if cfg.Self == "" {
		return nil, fmt.Errorf("cluster: empty self node id")
	}
	if cfg.Advertise == "" {
		return nil, fmt.Errorf("cluster: node %s: empty advertise URL", cfg.Self)
	}
	if _, err := url.Parse(cfg.Advertise); err != nil {
		return nil, fmt.Errorf("cluster: advertise %q: %w", cfg.Advertise, err)
	}
	self := Node{ID: cfg.Self, URL: cfg.Advertise}
	members := append([]Node{self}, cfg.Peers...)
	ring, err := NewRing(cfg.VNodes, members...)
	if err != nil {
		return nil, err
	}
	if cfg.HealthInterval <= 0 {
		cfg.HealthInterval = 2 * time.Second
	}
	if cfg.HealthFailures <= 0 {
		cfg.HealthFailures = 3
	}
	if cfg.HealthTimeout <= 0 {
		cfg.HealthTimeout = 2 * time.Second
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: 30 * time.Second}
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	c := &Cluster{
		self:     self,
		ring:     ring,
		client:   cfg.Client,
		reg:      cfg.Registry,
		logger:   cfg.Logger,
		onUp:     cfg.OnPeerUp,
		interval: cfg.HealthInterval,
		failures: cfg.HealthFailures,
		timeout:  cfg.HealthTimeout,
		peers:    make(map[string]*peerState, len(cfg.Peers)),
	}
	for _, p := range cfg.Peers {
		// Peers start optimistically up: routing to a dead peer fails fast
		// and the health loop demotes it within a few probes, whereas
		// starting down would black-hole a healthy cluster until the first
		// full health pass.
		c.peers[p.ID] = &peerState{node: p}
	}
	reg := cfg.Registry
	c.forwarded = func(peer string) *obs.Counter {
		return reg.Counter("cad_cluster_forwarded_total",
			"Requests forwarded to their owning node, by peer.",
			obs.Label{Name: "peer", Value: peer})
	}
	c.forwardErrors = func(peer string) *obs.Counter {
		return reg.Counter("cad_cluster_forward_errors_total",
			"Forwarded requests that failed to reach their peer.",
			obs.Label{Name: "peer", Value: peer})
	}
	c.scattered = func(peer string) *obs.Counter {
		return reg.Counter("cad_cluster_scatter_requests_total",
			"Scatter-gather fan-out requests issued, by peer.",
			obs.Label{Name: "peer", Value: peer})
	}
	c.scatterErrors = func(peer string) *obs.Counter {
		return reg.Counter("cad_cluster_scatter_errors_total",
			"Scatter-gather fan-out requests that failed, by peer.",
			obs.Label{Name: "peer", Value: peer})
	}
	c.peerUp = func(peer string) *obs.Gauge {
		return reg.Gauge("cad_cluster_peer_up",
			"1 while the peer answers health probes, 0 while it is down.",
			obs.Label{Name: "peer", Value: peer})
	}
	c.handoffsSent = reg.Counter("cad_cluster_handoffs_sent_total",
		"Stream migration bundles handed off to a peer.")
	c.handoffsRecv = reg.Counter("cad_cluster_handoffs_received_total",
		"Stream migration bundles imported from a peer.")
	c.tailColumns = reg.Counter("cad_cluster_handoff_tail_columns_total",
		"WAL-tail columns replayed while importing migration bundles.")
	for _, p := range cfg.Peers {
		c.peerUp(p.ID).Set(1)
	}
	return c, nil
}

// Self returns this node's identity.
func (c *Cluster) Self() Node { return c.self }

// Ring returns the placement ring.
func (c *Cluster) Ring() *Ring { return c.ring }

// Registry returns the metrics registry the cluster reports into.
func (c *Cluster) Registry() *obs.Registry { return c.reg }

// Alive reports whether the member is routable: self always is, a peer is
// until the health checker marks it down.
func (c *Cluster) Alive(id string) bool {
	if id == c.self.ID {
		return true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	p, ok := c.peers[id]
	return ok && !p.down
}

// Owner returns the live owner of the stream (ownership falls clockwise
// past down members). ok is false only when every member is down — which
// cannot happen while this node answers, since self is always alive.
func (c *Cluster) Owner(stream string) (Node, bool) {
	return c.ring.OwnerAmong(stream, c.Alive)
}

// AlivePeers returns the peers currently routable, sorted by id.
func (c *Cluster) AlivePeers() []Node {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Node, 0, len(c.peers))
	for _, p := range c.peers {
		if !p.down {
			out = append(out, p.node)
		}
	}
	sortNodes(out)
	return out
}

func sortNodes(nodes []Node) {
	for i := 1; i < len(nodes); i++ {
		for j := i; j > 0 && nodes[j].ID < nodes[j-1].ID; j-- {
			nodes[j], nodes[j-1] = nodes[j-1], nodes[j]
		}
	}
}

// MarkDown demotes a peer immediately (e.g. after a failed forward), without
// waiting for the health loop to notice. The next successful probe brings it
// back.
func (c *Cluster) MarkDown(id string) {
	c.mu.Lock()
	p, ok := c.peers[id]
	if ok && !p.down {
		p.down = true
		p.failures = c.failures
		p.lastErr = "marked down after a failed request"
	}
	c.mu.Unlock()
	if ok {
		c.peerUp(id).Set(0)
	}
}

// Start runs the health loop until ctx is done: every HealthInterval each
// peer's /readyz is probed, HealthFailures consecutive failures mark it
// down, one success marks it up (firing OnPeerUp on the transition).
func (c *Cluster) Start(ctx context.Context) {
	go func() {
		tick := time.NewTicker(c.interval)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
				c.CheckPeers(ctx)
			}
		}
	}()
}

// CheckPeers runs one synchronous health pass over every peer. Exposed so
// tests (and boot) can force a deterministic membership view.
func (c *Cluster) CheckPeers(ctx context.Context) {
	c.mu.Lock()
	peers := make([]Node, 0, len(c.peers))
	for _, p := range c.peers {
		peers = append(peers, p.node)
	}
	c.mu.Unlock()
	for _, p := range peers {
		c.probe(ctx, p)
	}
}

// probe health-checks one peer and applies the up/down transition rules.
// A 503 /readyz still proves the process is reachable — a degraded peer
// keeps serving its streams from memory, so it stays routable; only a
// transport-level failure (no answer at all) counts toward down.
func (c *Cluster) probe(ctx context.Context, peer Node) {
	pctx, cancel := context.WithTimeout(ctx, c.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, strings.TrimSuffix(peer.URL, "/")+"/readyz", nil)
	if err == nil {
		var resp *http.Response
		resp, err = c.client.Do(req)
		if err == nil {
			resp.Body.Close()
		}
	}
	c.mu.Lock()
	p, ok := c.peers[peer.ID]
	if !ok {
		c.mu.Unlock()
		return
	}
	var cameUp bool
	if err != nil {
		p.lastErr = err.Error()
		if p.failures < c.failures {
			p.failures++
		}
		if !p.down && p.failures >= c.failures {
			p.down = true
			if c.logger != nil {
				c.logger.Warn("cluster peer down", "peer", peer.ID, "err", err)
			}
		}
	} else {
		p.lastErr = ""
		p.failures = 0
		// The first successful probe also fires OnPeerUp so boot-time
		// rebalancing runs once the peer is provably reachable.
		cameUp = p.down || !p.probed
		if p.down && c.logger != nil {
			c.logger.Info("cluster peer up", "peer", peer.ID)
		}
		p.down = false
	}
	p.probed = true
	down := p.down
	c.mu.Unlock()
	if down {
		c.peerUp(peer.ID).Set(0)
	} else {
		c.peerUp(peer.ID).Set(1)
	}
	if cameUp && c.onUp != nil {
		c.onUp(peer)
	}
}

// PeerStatus is one member's entry in the /v1/cluster payload.
type PeerStatus struct {
	ID    string `json:"id"`
	URL   string `json:"url"`
	Self  bool   `json:"self,omitempty"`
	Alive bool   `json:"alive"`
	// Error is the last probe failure while the peer is down.
	Error string `json:"error,omitempty"`
}

// Status is the GET /v1/cluster payload: this node's view of the membership
// and placement parameters.
type Status struct {
	Self   string       `json:"self"`
	VNodes int          `json:"vnodes"`
	Nodes  []PeerStatus `json:"nodes"`
}

// Status returns this node's membership view.
func (c *Cluster) Status() Status {
	st := Status{Self: c.self.ID, VNodes: c.ring.vnodes}
	c.mu.Lock()
	for _, n := range c.ring.Nodes() {
		ps := PeerStatus{ID: n.ID, URL: n.URL, Alive: true, Self: n.ID == c.self.ID}
		if p, ok := c.peers[n.ID]; ok {
			ps.Alive = !p.down
			if p.down {
				ps.Error = p.lastErr
			}
		}
		st.Nodes = append(st.Nodes, ps)
	}
	c.mu.Unlock()
	return st
}

// DownPeers returns the ids of peers currently marked down, sorted.
func (c *Cluster) DownPeers() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []string
	for id, p := range c.peers {
		if p.down {
			out = append(out, id)
		}
	}
	sortStrings(out)
	return out
}

func sortStrings(xs []string) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
