package client

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"easypap/internal/core"
	"easypap/internal/serve"
	"easypap/internal/serve/cluster"
)

// Multi talks to a whole cluster: it accepts multiple daemon endpoints,
// fans submissions across them round-robin, and — once it has fetched
// the ring from any member (GET /v1/cluster) — routes each submission
// straight to the node that owns its config hash, saving the daemon-side
// proxy hop. Endpoints that fail are skipped in favor of the next one,
// so a sweep keeps going when a node dies mid-run.
//
// The routing table is LIVE: the membership the daemons maintain by
// gossip is re-fetched when it goes stale (RingMaxAge) and immediately
// after a failed attempt, so a sweep follows deaths, joins and
// recoveries instead of routing on a boot-time snapshot. Members the
// gossip layer has declared dead are left off the client-side ring.
// Only a definite "not clustered" answer (404 from a plain single-node
// daemon) pins round-robin mode.
//
// Multi implements expt.Runner, which is how expt.Sweep.Remote fans a
// parameter study across the cluster.
type Multi struct {
	rr atomic.Uint64 // round-robin cursor

	mu      sync.RWMutex
	clients []*Client          // the configured endpoints, fixed order
	byID    map[string]*Client // ring node id -> client (after RefreshRing)
	alive   map[string]bool    // ring node id -> last seen alive (not suspect)
	ring    *cluster.Ring

	lastRefresh  atomic.Int64 // unix nanos of the last ring refresh attempt
	notClustered atomic.Bool  // a member answered 404: plain daemon, stay round-robin
}

// RingMaxAge is how stale the client-side ring may get before the next
// submission re-fetches it (time-based refresh; failures refresh
// immediately).
const RingMaxAge = 2 * time.Second

// NewMulti returns a client over the given daemon base URLs. At least
// one endpoint is required for any call to succeed; the ring is fetched
// lazily on first RunConfig (or explicitly via RefreshRing).
func NewMulti(bases ...string) *Multi {
	m := &Multi{byID: make(map[string]*Client)}
	for _, b := range bases {
		m.clients = append(m.clients, New(b))
	}
	return m
}

// RefreshRing fetches the membership view from the first endpoint that
// answers and rebuilds the hash-aware routing table. Against a
// single-node daemon (no cluster layer) every endpoint 404s and Multi
// stays in round-robin mode — that is not an error condition worth
// failing a sweep over, so only transport-level failure of every
// endpoint is returned.
func (m *Multi) RefreshRing(ctx context.Context) error {
	m.lastRefresh.Store(time.Now().UnixNano())
	var lastErr error
	for _, c := range m.snapshotClients(m.rr.Add(1)) {
		var mem cluster.Membership
		if err := c.callJSON(ctx, http.MethodGet, "/v1/cluster", nil, &mem); err != nil {
			var apiErr *APIError
			if errors.As(err, &apiErr) &&
				(apiErr.StatusCode == http.StatusNotFound || apiErr.StatusCode == http.StatusMethodNotAllowed) {
				m.notClustered.Store(true)
				return nil // alive but not clustered: round-robin mode
			}
			// Anything else (booting 503, transport failure, ...) says
			// nothing about whether the cluster exists — ask the next
			// endpoint rather than settling for hop-paying round-robin.
			lastErr = err
			continue
		}
		// Mirror the server-side ring: alive and suspect members route,
		// dead ones are off it (their entries moved to the successors).
		ids := make([]string, 0, len(mem.Members))
		byID := make(map[string]*Client, len(mem.Members))
		alive := make(map[string]bool, len(mem.Members))
		for _, mi := range mem.Members {
			if mi.State == "dead" {
				continue
			}
			ids = append(ids, mi.ID)
			alive[mi.ID] = mi.Healthy || mi.State == ""
			if c := m.clientFor(mi.URL); c != nil {
				byID[mi.ID] = c
			} else {
				byID[mi.ID] = New(mi.URL) // member we were not configured with
			}
		}
		ring := cluster.NewRing(ids, mem.VirtualNodes)
		m.mu.Lock()
		m.ring, m.byID, m.alive = ring, byID, alive
		m.mu.Unlock()
		return nil
	}
	return lastErr
}

// clientFor finds a configured client by base URL.
func (m *Multi) clientFor(base string) *Client {
	base = strings.TrimRight(base, "/")
	m.mu.RLock()
	defer m.mu.RUnlock()
	for _, c := range m.clients {
		if c.Base == base {
			return c
		}
	}
	return nil
}

// snapshotClients returns the configured clients rotated by offset, so
// successive calls spread load without shared state beyond the cursor.
func (m *Multi) snapshotClients(offset uint64) []*Client {
	m.mu.RLock()
	defer m.mu.RUnlock()
	n := len(m.clients)
	out := make([]*Client, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, m.clients[(int(offset)+i)%n])
	}
	return out
}

// candidates orders the endpoints for one submission: the ring owner
// and its failover replicas first (when the ring is known and the
// config hashes), then the remaining configured endpoints round-robin.
func (m *Multi) candidates(cfg core.Config, frames bool) []*Client {
	m.mu.RLock()
	ring := m.ring
	m.mu.RUnlock()

	var out []*Client
	var lagging []*Client // suspect members: still routable, tried last
	seen := make(map[*Client]bool)
	if ring != nil {
		if _, _, key, err := cluster.RouteKey(cfg, frames); err == nil {
			for _, id := range ring.Replicas(key, 0) {
				m.mu.RLock()
				c, ok := m.byID[id], m.alive[id]
				m.mu.RUnlock()
				if c == nil || seen[c] {
					continue
				}
				seen[c] = true
				if ok {
					out = append(out, c)
				} else {
					lagging = append(lagging, c)
				}
			}
			out = append(out, lagging...)
		}
	}
	for _, c := range m.snapshotClients(m.rr.Add(1)) {
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	return out
}

// transient reports whether an error means "this endpoint is unusable
// right now, try another": transport failures and gateway/overload
// statuses. A 400 is final — the config is bad on every node.
func transient(err error) bool {
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		return true // transport-level: connection refused, reset, timeout
	}
	switch apiErr.StatusCode {
	case http.StatusTooManyRequests, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// Submit sends a job to the best endpoint, failing over past dead or
// overloaded ones. It returns the status and the client that accepted
// the submission (subsequent Wait/Frames calls on cluster job ids work
// through any endpoint, but the accepting one is the cheapest).
func (m *Multi) Submit(ctx context.Context, cfg core.Config, frames bool) (*serve.JobStatus, *Client, error) {
	cands := m.candidates(cfg, frames)
	if len(cands) == 0 {
		return nil, nil, fmt.Errorf("client: no endpoints configured")
	}
	var lastErr error
	for _, c := range cands {
		st, err := c.Submit(ctx, cfg, frames)
		if err == nil {
			return st, c, nil
		}
		if !transient(err) {
			return nil, nil, err
		}
		lastErr = err
	}
	return nil, nil, fmt.Errorf("client: every endpoint failed: %w", lastErr)
}

// Wait polls the job to a terminal state, preferring the given client
// and falling back to the other endpoints (cluster job ids route from
// anywhere). A nil preferred starts with round-robin order.
func (m *Multi) Wait(ctx context.Context, id string, preferred *Client) (*serve.JobStatus, error) {
	cands := m.snapshotClients(m.rr.Add(1))
	if preferred != nil {
		ordered := []*Client{preferred}
		for _, c := range cands {
			if c != preferred {
				ordered = append(ordered, c)
			}
		}
		cands = ordered
	}
	var lastErr error
	for _, c := range cands {
		st, err := c.Wait(ctx, id)
		if err == nil {
			return st, nil
		}
		if !transient(err) {
			return nil, err
		}
		lastErr = err
	}
	return nil, fmt.Errorf("client: every endpoint failed waiting for %s: %w", id, lastErr)
}

// Stats fetches the cluster-aggregated stats (GET /v1/cluster/stats)
// from the first endpoint that answers.
func (m *Multi) Stats(ctx context.Context) (*cluster.ClusterAggregate, error) {
	var lastErr error
	for _, c := range m.snapshotClients(m.rr.Add(1)) {
		var agg cluster.ClusterAggregate
		if err := c.callJSON(ctx, http.MethodGet, "/v1/cluster/stats", nil, &agg); err != nil {
			lastErr = err
			continue
		}
		return &agg, nil
	}
	return nil, lastErr
}

// ensureRing keeps the routing table fresh, best-effort: refreshed when
// older than RingMaxAge, skipped entirely once a plain (non-clustered)
// daemon identified itself. Failures are tolerated — a stale ring still
// routes, and the failover paths correct for it.
func (m *Multi) ensureRing() {
	if m.notClustered.Load() {
		return
	}
	if time.Since(time.Unix(0, m.lastRefresh.Load())) < RingMaxAge {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	_ = m.RefreshRing(ctx)
}

// RunConfig submits cfg, waits for completion, and returns the result —
// the expt.Runner contract, cluster-wide. A node dying mid-job surfaces
// as a transient wait failure; the config is then resubmitted, which
// routes past the dead node (both this client and the daemons' own
// replica failover skip it), so a sweep completes as long as any node
// survives. A job ending "interrupted" — its node restarted mid-job
// without re-enqueueing it — is likewise resubmitted: on the second
// pass the restarted node usually answers straight from its warm disk
// cache, so a sweep rides through a rolling deploy.
func (m *Multi) RunConfig(cfg core.Config) (core.Result, error) {
	ctx := context.Background()
	attempts := len(m.snapshotClients(0)) + 1
	var lastErr error
	for a := 0; a < attempts; a++ {
		m.ensureRing()
		if a > 0 {
			// A lost or bounced job: back off with jitter (honoring any
			// Retry-After the cluster sent) and re-fetch the ring so the
			// resubmission routes around whatever just failed.
			sleepRetry(ctx, lastErr, a-1)
			refreshCtx, cancel := context.WithTimeout(ctx, 2*time.Second)
			_ = m.RefreshRing(refreshCtx)
			cancel()
		}
		st, cl, err := m.Submit(ctx, cfg, false)
		if err != nil {
			if a < attempts-1 && transient(err) {
				// Every endpoint refused this round (overload, churn). The
				// next round re-resolves membership and backs off first.
				lastErr = err
				continue
			}
			return core.Result{}, err
		}
		if !st.State.Terminal() {
			st, err = m.Wait(ctx, st.ID, cl)
			if err != nil {
				// The node holding the job is gone; resubmit elsewhere.
				lastErr = err
				continue
			}
		}
		if st.State == serve.JobInterrupted {
			lastErr = fmt.Errorf("client: job %s interrupted by a daemon restart", st.ID)
			continue
		}
		if st.State != serve.JobDone || st.Result == nil {
			return core.Result{}, fmt.Errorf("client: job %s ended %s: %s", st.ID, st.State, st.Error)
		}
		return *st.Result, nil
	}
	return core.Result{}, fmt.Errorf("client: job lost repeatedly: %w", lastErr)
}
