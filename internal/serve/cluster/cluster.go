// Package cluster turns a set of easypapd daemons into one horizontally
// scalable compute service. Every node runs the full single-box stack
// (internal/serve: queueing, warm pools, result cache) plus this layer:
//
//   - SWIM-style gossip membership (gossip.go): members carry
//     alive/suspect/dead states with incarnation numbers, views travel
//     piggybacked on the health probe, and a node started with nothing
//     but --join=<any live peer> appears in every member's ring without
//     a fleet restart,
//   - a consistent-hash ring (Ring) over the canonical config hash
//     (core.Config.Hash via serve.NormalizeSubmission), so identical
//     configs always land on the node whose result cache already holds
//     them — cache locality without a shared cache. The ring holds the
//     non-dead members and is rebuilt only when that set changes:
//     suspicion never moves keys, so a flapping peer cannot oscillate
//     routing,
//   - R-way result replication (replicate.go): completed entries are
//     pushed write-behind to the next R-1 ring successors, reads fail
//     over owner -> replica -> recompute, and a background rebalancer
//     migrates entries to new owners after every ring change under a
//     bandwidth budget, with CRC+hash verification on receipt,
//   - transparent proxying: any node accepts any request; submissions
//     hop to the owning node, status/cancel/frames follow the node
//     prefix embedded in cluster job ids ("n1a2b3c4.j-000017"),
//   - retry-on-next-replica failover: when the owner is unreachable the
//     submission walks the ring to the next distinct node, the dead peer
//     is marked suspect, and gossip brings it back when it recovers.
//
// The coordination path is deliberately lock-light: member state is
// atomics, the ring is immutable and swapped whole under a short mutex
// on membership change, and the proxy path takes no node-wide lock.
package cluster

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"easypap/internal/core"
	"easypap/internal/metrics"
	"easypap/internal/serve"
)

// HopHeader marks a proxied request so the receiving node serves it
// locally instead of re-routing — one hop max, so divergent membership
// views degrade to an extra network hop, never a forwarding loop.
const HopHeader = "X-Easypap-Cluster-Hop"

// NodeID derives the stable node id advertised for a base URL: "n" plus
// the first 8 hex digits of its SHA-256. Ids are embedded in cluster job
// ids, so they must be short, path-safe and identical on every node that
// knows the URL.
func NodeID(baseURL string) string {
	sum := sha256.Sum256([]byte(strings.TrimRight(baseURL, "/")))
	return "n" + hex.EncodeToString(sum[:4])
}

// Options configures a Node.
type Options struct {
	// Self is this node's advertised base URL (e.g. "http://10.0.0.3:8080"),
	// the address peers use to reach it. Required.
	Self string
	// Peers are seed members' base URLs (Self may be included; it is
	// recognized and deduplicated). The lists need not agree: gossip
	// spreads every member to every node, so one live seed suffices.
	Peers []string
	// VirtualNodes is the ring points per node (DefaultVirtualNodes if 0).
	VirtualNodes int
	// ProbeInterval is the gossip/health-probe period (default 1s;
	// negative disables active probing — passive marking on proxy
	// failure remains).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one gossip exchange (default 500ms).
	ProbeTimeout time.Duration
	// SuspectTimeout is how long a member stays suspect before it is
	// declared dead and dropped from the ring (default 10x ProbeInterval,
	// min 2s). Short enough that routing converges fast after a crash,
	// long enough that one dropped probe never moves keys.
	SuspectTimeout time.Duration
	// ProbeBackoffCap bounds the exponential probe backoff applied to
	// failing members (default 30x ProbeInterval, max 30s): after k
	// consecutive failures a member is probed every
	// min(ProbeInterval<<k, cap), so a dead peer costs little and a
	// recovered one is still noticed within the cap.
	ProbeBackoffCap time.Duration
	// Replicate is the replication factor R for cache entries: completed
	// entries are pushed to the R-1 ring successors of their owner, and
	// reads fail over to replicas before recomputing. 0 or 1 disables
	// replication. Requires a disk store on every participating node.
	Replicate int
	// RebalanceBPS caps rebalance transfer bandwidth in bytes/second
	// (default 8 MiB/s; negative disables the rebalancer).
	RebalanceBPS int64
	// HTTP is the client of every request to a peer. The default has no
	// overall timeout (frame-stream proxies are long-lived); every other
	// request is bounded by its own deadline (Node.call).
	HTTP *http.Client
}

func (o Options) withDefaults() (Options, error) {
	if o.Self == "" {
		return o, fmt.Errorf("cluster: Options.Self (advertised base URL) is required")
	}
	o.Self = strings.TrimRight(o.Self, "/")
	if o.VirtualNodes <= 0 {
		o.VirtualNodes = DefaultVirtualNodes
	}
	if o.ProbeInterval == 0 {
		o.ProbeInterval = time.Second
	}
	if o.ProbeTimeout <= 0 {
		o.ProbeTimeout = 500 * time.Millisecond
	}
	if o.SuspectTimeout <= 0 {
		o.SuspectTimeout = 10 * o.ProbeInterval
		if o.SuspectTimeout < 2*time.Second {
			o.SuspectTimeout = 2 * time.Second
		}
	}
	if o.ProbeBackoffCap <= 0 {
		o.ProbeBackoffCap = 30 * o.ProbeInterval
		if o.ProbeBackoffCap > 30*time.Second {
			o.ProbeBackoffCap = 30 * time.Second
		}
		if o.ProbeBackoffCap < o.ProbeInterval {
			o.ProbeBackoffCap = o.ProbeInterval
		}
	}
	if o.RebalanceBPS == 0 {
		o.RebalanceBPS = 8 << 20
	}
	if o.HTTP == nil {
		o.HTTP = &http.Client{}
	}
	return o, nil
}

// member is one node of the cluster as seen from here. State is
// written by gossip and the proxy path, read lock-free everywhere;
// transitions that change the routable set go through n.mu so the ring
// rebuild is serialized.
type member struct {
	id   string
	url  string
	self bool

	state       atomic.Int32  // stateAlive | stateSuspect | stateDead (gossip.go)
	incarnation atomic.Uint64 // owned by the member itself; rumors carry it
	suspectAt   atomic.Int64  // unix nanos when suspicion began (0 otherwise)
	lastSeen    atomic.Int64  // unix nanos of the last successful contact
	failures    atomic.Int64  // probe + proxy failures observed (lifetime)
	probeFails  atomic.Int64  // consecutive probe failures (drives backoff)
	nextProbe   atomic.Int64  // unix nanos before which the prober skips us
	// warmDisk is the peer's advertised disk-cache entry count, learned
	// from gossip. A restarted node re-advertises its warm disk tier
	// here, making "route back to it, it still owns its results"
	// visible in the membership view instead of a matter of faith.
	warmDisk atomic.Int64
}

// alive reports whether the member is fully alive (not suspect, not
// dead) — the "healthy" bit of membership views and candidate ordering.
func (m *member) alive() bool { return m.state.Load() == stateAlive }

// Node is one cluster member: the local Manager plus the routing layer.
// Create with NewNode, expose with Handler, shut down with Close (the
// Manager's lifecycle stays with its owner).
type Node struct {
	opts Options
	id   string
	mgr  *serve.Manager

	mu      sync.RWMutex
	members map[string]*member // id -> member (includes self)
	ring    *Ring

	// ringVersion counts ring swaps; it is the convergence clock the
	// chaos suites (and operators) read: two nodes agree on routing iff
	// their rings hold the same member set, and a kill is "converged"
	// once every survivor's ring has dropped the victim.
	ringVersion   atomic.Uint64
	rebalanceKick chan struct{} // buffered(1): ring changed, rebalance

	stop chan struct{}
	wg   sync.WaitGroup

	replq chan replTask // write-behind replication queue (nil if R<=1)

	// Stage histograms registered into the manager's metrics registry
	// (obs.go): routing and membership latencies that only exist in
	// cluster mode.
	proxyHist     *metrics.Histogram
	replicateHist *metrics.Histogram
	gossipHist    *metrics.Histogram

	// Edge frame fan-out (edge.go): one upstream stream per (job,
	// format) shared by all local viewers of a remote job's frames.
	edgeMu        sync.Mutex
	edges         map[string]*edgeStream
	edgeClosed    bool
	edgeUpstreams atomic.Int64   // upstream frame streams opened (dedup'd fetches)
	edgeStats     serve.HubStats // local edge-hub subscriber/drop counters

	// Counters surfaced in ClusterStats.
	jobsOwned     atomic.Int64 // cluster submissions served by the local manager
	jobsProxied   atomic.Int64 // submissions forwarded to their owning peer
	statusProxied atomic.Int64 // status/cancel/frames calls forwarded by id prefix
	failovers     atomic.Int64 // submissions re-routed past an unreachable replica
	replPushed    atomic.Int64 // entries pushed to ring successors
	replDropped   atomic.Int64 // pushes dropped (queue full or no reachable target)
	replFetched   atomic.Int64 // entries fetched from a replica on local miss
	rebalanced    atomic.Int64 // entries migrated by the rebalancer
	rebalBytes    atomic.Int64 // bytes moved by the rebalancer
}

// NewNode builds the routing layer around mgr and starts the health
// prober. The node immediately considers every configured peer healthy
// and lets probing/proxying correct that — optimistic start means a
// cluster booting in any order routes correctly as soon as peers are up.
func NewNode(mgr *serve.Manager, opts Options) (*Node, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	n := &Node{
		opts:          opts,
		id:            NodeID(opts.Self),
		mgr:           mgr,
		members:       make(map[string]*member),
		rebalanceKick: make(chan struct{}, 1),
		stop:          make(chan struct{}),
		edges:         make(map[string]*edgeStream),
	}
	self := &member{id: n.id, url: opts.Self, self: true}
	self.lastSeen.Store(time.Now().UnixNano())
	n.members[n.id] = self
	for _, p := range opts.Peers {
		n.addSeed(p)
	}
	n.rebuildRingLocked()
	n.registerObs()
	if opts.ProbeInterval > 0 {
		n.wg.Add(1)
		go n.probeLoop()
	}
	// Distributed single-job execution: sharded submissions reaching this
	// node's manager are coordinated across the ring (shard.go).
	hooks := &serve.ClusterHooks{RunSharded: n.runSharded}
	if opts.Replicate > 1 {
		n.replq = make(chan replTask, 256)
		hooks.Spilled, hooks.Fetch = n.enqueueReplication, n.fetchEntry
		n.wg.Add(1)
		go n.replicateLoop()
	}
	if opts.Replicate > 1 && opts.RebalanceBPS > 0 {
		n.wg.Add(1)
		go n.rebalanceLoop()
	}
	mgr.SetClusterHooks(hooks)
	return n, nil
}

// ID returns this node's id (NodeID of its advertised URL).
func (n *Node) ID() string { return n.id }

// Manager returns the wrapped local manager.
func (n *Node) Manager() *serve.Manager { return n.mgr }

// Close stops the prober, replicator and rebalancer. It does not close
// the Manager.
func (n *Node) Close() {
	n.mgr.SetClusterHooks(nil)
	n.closeEdges()
	close(n.stop)
	n.wg.Wait()
}

// RingVersion returns the ring-swap counter (the convergence clock).
func (n *Node) RingVersion() uint64 { return n.ringVersion.Load() }

// addSeed registers a seed peer URL. NewNode calls it before the node is
// shared, so it takes no lock; members learned later arrive through the
// gossip merge (applyRemoteLocked).
func (n *Node) addSeed(baseURL string) {
	baseURL = strings.TrimRight(baseURL, "/")
	if baseURL == "" {
		return
	}
	id := NodeID(baseURL)
	if _, ok := n.members[id]; ok {
		return
	}
	// Optimistic start: new members begin alive (the zero state) and the
	// prober demotes dead peers, so a cluster booting in any order routes
	// correctly as soon as peers are up.
	n.members[id] = &member{id: id, url: baseURL}
}

// rebuildRingLocked rebuilds the ring over the non-dead members,
// swapping (and bumping ringVersion) only when the routable set
// actually changed — suspect transitions land here too and must be
// free. A real swap kicks the rebalancer.
func (n *Node) rebuildRingLocked() {
	ids := make([]string, 0, len(n.members))
	for id, m := range n.members {
		if m.state.Load() != stateDead {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	if n.ring != nil && slices.Equal(n.ring.Nodes(), ids) {
		return
	}
	n.ring = NewRing(ids, n.opts.VirtualNodes)
	n.ringVersion.Add(1)
	select {
	case n.rebalanceKick <- struct{}{}:
	default:
	}
}

// snapshot returns the current ring and a stable member list.
func (n *Node) snapshot() (*Ring, []*member) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	ms := make([]*member, 0, len(n.members))
	for _, m := range n.members {
		ms = append(ms, m)
	}
	sort.Slice(ms, func(i, j int) bool { return ms[i].id < ms[j].id })
	return n.ring, ms
}

func (n *Node) memberByID(id string) *member {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.members[id]
}

// candidates returns the failover chain for a routing key: every member
// in ring order starting at the owner, alive nodes first (ring order
// preserved within each class). Suspects stay in the chain — suspicion
// may be stale, and trying them last costs nothing when an alive
// replica answered first. Dead members are off the ring entirely.
func (n *Node) candidates(key uint64) []*member {
	ring, _ := n.snapshot()
	ids := ring.Replicas(key, 0)
	alive := make([]*member, 0, len(ids))
	var suspect []*member
	for _, id := range ids {
		m := n.memberByID(id)
		if m == nil {
			continue
		}
		if m.alive() {
			alive = append(alive, m)
		} else {
			suspect = append(suspect, m)
		}
	}
	return append(alive, suspect...)
}

// markUp records a successful direct contact. It only refreshes
// liveness bookkeeping — state revival flows through gossip merge, so
// a one-off lucky response to a proxied request cannot resurrect a
// dead member ahead of its refutation round.
func (n *Node) markUp(m *member) {
	m.lastSeen.Store(time.Now().UnixNano())
	m.probeFails.Store(0)
	m.nextProbe.Store(0)
}

// --- requests to a peer -----------------------------------------------

// jsonLimit bounds a peer's JSON answer: a gossip view, stats, a trace.
const jsonLimit = 4 << 20

// peerCall is one bounded request to a peer (Node.call).
type peerCall struct {
	method, url string
	body        []byte // sent as ctype when non-nil
	ctype       string
	traceID     string // sent as serve.TraceHeader when set
	limit       int64  // most response bytes read
	ok          []int  // accepted statuses (200 alone when empty)
}

// statusError is a peer's answer with a status its caller does not
// accept.
type statusError struct {
	url  string
	code int
}

func (e *statusError) Error() string {
	return fmt.Sprintf("cluster: %s answered HTTP %d", e.url, e.code)
}

// call makes one bounded request to a peer. Every node-to-node exchange
// goes through it except the two stream relays (proxy, pumpEdge), which
// have no deadline by design. ctx carries the caller's deadline. call
// returns at most pc.limit bytes of the response body, and on every path
// reads the body up to that limit and closes it. It only moves bytes:
// what a failure says about the peer is the caller's to record.
func (n *Node) call(ctx context.Context, pc peerCall) ([]byte, error) {
	var body io.Reader
	if pc.body != nil {
		body = bytes.NewReader(pc.body)
	}
	req, err := http.NewRequestWithContext(ctx, pc.method, pc.url, body)
	if err != nil {
		return nil, err
	}
	if pc.body != nil {
		req.Header.Set("Content-Type", pc.ctype)
	}
	if pc.traceID != "" {
		req.Header.Set(serve.TraceHeader, pc.traceID)
	}
	resp, err := n.opts.HTTP.Do(req)
	if err != nil {
		return nil, err
	}
	var data []byte
	if resp.ContentLength != 0 { // a bodiless answer, such as a halo's 204, needs no buffer
		data, err = io.ReadAll(io.LimitReader(resp.Body, pc.limit))
	}
	resp.Body.Close()
	ok := pc.ok
	if len(ok) == 0 {
		ok = []int{http.StatusOK}
	}
	if !slices.Contains(ok, resp.StatusCode) {
		return nil, &statusError{url: pc.url, code: resp.StatusCode}
	}
	return data, err
}

// --- gossip probing ---------------------------------------------------

func (n *Node) probeLoop() {
	defer n.wg.Done()
	n.probeAll()
	ticker := time.NewTicker(n.opts.ProbeInterval)
	defer ticker.Stop()
	for {
		select {
		case <-n.stop:
			return
		case <-ticker.C:
			n.probeAll()
			n.sweepSuspects()
		}
	}
}

// probeAll gossips with every due peer concurrently. Exchanges are
// cheap (one JSON view each way) and bounded by ProbeTimeout, so a
// wedged peer costs one goroutine-interval, not a head-of-line stall
// for the others. Members under probe backoff (consecutive failures)
// are skipped until their nextProbe deadline — a dead peer is probed
// geometrically less often, up to ProbeBackoffCap.
func (n *Node) probeAll() {
	now := time.Now().UnixNano()
	_, ms := n.snapshot()
	var wg sync.WaitGroup
	for _, m := range ms {
		if m.self || m.nextProbe.Load() > now {
			continue
		}
		wg.Add(1)
		go func(m *member) {
			defer wg.Done()
			if !n.gossipWith(m) {
				n.suspect(m)
			}
		}(m)
	}
	wg.Wait()
}

// --- wire types ------------------------------------------------------

// HealthInfo is the GET /v1/cluster/health body: liveness plus cache
// warmth, so peers (and operators) can see that a restarted node still
// owns its previously computed results on disk.
type HealthInfo struct {
	OK           bool   `json:"ok"`
	ID           string `json:"id"`
	URL          string `json:"url"`
	CacheEntries int    `json:"cache_entries"` // in-memory tier
	DiskEntries  int64  `json:"disk_entries"`  // durable tier (0 without --data-dir)
	DiskBytes    int64  `json:"disk_bytes,omitempty"`
}

// MemberInfo is one row of the membership document. Healthy is
// state == "alive" — a suspect member is unhealthy but still routable
// (on the ring); a dead one is neither.
type MemberInfo struct {
	ID          string    `json:"id"`
	URL         string    `json:"url"`
	Self        bool      `json:"self,omitempty"`
	Healthy     bool      `json:"healthy"`
	State       string    `json:"state"`
	Incarnation uint64    `json:"incarnation"`
	LastSeen    time.Time `json:"last_seen,omitempty"`
	Failures    int64     `json:"failures,omitempty"`
	// DiskEntries is the member's advertised durable-cache size (its
	// last gossip exchange; self reads its own store directly).
	DiskEntries int64 `json:"disk_entries,omitempty"`
}

// Membership is the GET /v1/cluster body: this node's view of the ring.
type Membership struct {
	Self         string       `json:"self"` // this node's id
	VirtualNodes int          `json:"virtual_nodes"`
	RingVersion  uint64       `json:"ring_version"`
	Members      []MemberInfo `json:"members"`
}

// Membership returns this node's current membership view.
func (n *Node) Membership() Membership {
	_, ms := n.snapshot()
	out := Membership{Self: n.id, VirtualNodes: n.opts.VirtualNodes, RingVersion: n.ringVersion.Load()}
	for _, m := range ms {
		st := m.state.Load()
		if m.self {
			st = stateAlive
		}
		mi := MemberInfo{
			ID: m.id, URL: m.url, Self: m.self,
			Healthy: st == stateAlive, State: stateName(st),
			Incarnation: m.incarnation.Load(), Failures: m.failures.Load(),
			DiskEntries: m.warmDisk.Load(),
		}
		if m.self {
			_, disk, _ := n.mgr.CacheSizes()
			mi.DiskEntries = int64(disk)
		}
		if ns := m.lastSeen.Load(); ns > 0 {
			mi.LastSeen = time.Unix(0, ns)
		}
		out.Members = append(out.Members, mi)
	}
	return out
}

// ClusterStats is the per-node routing section added to /v1/stats.
type ClusterStats struct {
	NodeID      string       `json:"node_id"`
	SelfURL     string       `json:"self_url"`
	RingNodes   int          `json:"ring_nodes"`
	RingVersion uint64       `json:"ring_version"` // swap counter (convergence clock)
	RingShare   float64      `json:"ring_share"`   // fraction of the key space this node owns
	Replicate   int          `json:"replicate,omitempty"`
	Members     []MemberInfo `json:"members"`

	JobsOwned     int64 `json:"jobs_owned"`     // cluster submissions run locally
	JobsProxied   int64 `json:"jobs_proxied"`   // submissions forwarded to a peer
	StatusProxied int64 `json:"status_proxied"` // status/cancel/frames forwarded by id prefix
	Failovers     int64 `json:"failovers"`      // submissions re-routed past a dead replica

	// Replication counters (no omitempty: a reported zero must be
	// distinguishable from "replication disabled" — Replicate carries
	// that bit).
	ReplicaPushed  int64 `json:"replica_pushed"`  // entries pushed to successors
	ReplicaDropped int64 `json:"replica_dropped"` // pushes lost (queue full / unreachable)
	ReplicaFetched int64 `json:"replica_fetched"` // remote-hit fetches served to local misses
	Rebalanced     int64 `json:"rebalanced"`      // entries migrated after ring changes
	RebalanceBytes int64 `json:"rebalance_bytes"`

	// Edge frame fan-out: a viewing non-owner opens ONE upstream stream
	// per (job, format) and fans it out to all local subscribers.
	EdgeUpstreams    int64 `json:"edge_upstreams"`
	EdgeSubscribers  int64 `json:"edge_subscribers"`
	EdgeDroppedToKey int64 `json:"edge_dropped_to_keyframe"`
}

// NodeStats is the cluster-mode GET /v1/stats body: the single-node
// serve.Stats flattened, plus the routing section.
type NodeStats struct {
	serve.Stats
	Cluster ClusterStats `json:"cluster"`
}

// Stats returns the local stats with the routing section attached.
func (n *Node) Stats() NodeStats {
	ring, _ := n.snapshot()
	mem := n.Membership()
	return NodeStats{
		Stats: n.mgr.Stats(),
		Cluster: ClusterStats{
			NodeID:         n.id,
			SelfURL:        n.opts.Self,
			RingNodes:      ring.Len(),
			RingVersion:    n.ringVersion.Load(),
			RingShare:      ring.Shares()[n.id],
			Replicate:      n.opts.Replicate,
			Members:        mem.Members,
			JobsOwned:      n.jobsOwned.Load(),
			JobsProxied:    n.jobsProxied.Load(),
			StatusProxied:  n.statusProxied.Load(),
			Failovers:      n.failovers.Load(),
			ReplicaPushed:  n.replPushed.Load(),
			ReplicaDropped: n.replDropped.Load(),
			ReplicaFetched: n.replFetched.Load(),
			Rebalanced:     n.rebalanced.Load(),
			RebalanceBytes: n.rebalBytes.Load(),

			EdgeUpstreams:    n.edgeUpstreams.Load(),
			EdgeSubscribers:  n.edgeStats.Subscribers.Load(),
			EdgeDroppedToKey: n.edgeStats.DroppedToKey.Load(),
		},
	}
}

// ClusterTotals sums the headline counters across reachable members.
type ClusterTotals struct {
	Submitted   int64 `json:"submitted"`
	Completed   int64 `json:"completed"`
	Computed    int64 `json:"computed"`
	Failed      int64 `json:"failed"`
	Canceled    int64 `json:"canceled"`
	Rejected    int64 `json:"rejected"`
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
	DiskHits    int64 `json:"disk_hits"`
	Spills      int64 `json:"spills"`
	DiskEntries int64 `json:"disk_entries"`
	Recovered   int64 `json:"recovered_jobs"`
	Interrupted int64 `json:"interrupted_jobs"`
	JobsOwned   int64 `json:"jobs_owned"`
	JobsProxied int64 `json:"jobs_proxied"`
	Failovers   int64 `json:"failovers"`

	// Distributed-execution totals (no omitempty, like every counter
	// here): cluster-wide shard coordination and halo-exchange activity.
	JobsCoordinated int64 `json:"jobs_coordinated"`
	ShardsExecuted  int64 `json:"shards_executed"`
	HalosSent       int64 `json:"halos_sent"`
	HalosSkipped    int64 `json:"halos_skipped"`
}

// MemberStats is one member's contribution to the aggregate (Stats nil
// when the member was unreachable).
type MemberStats struct {
	ID      string     `json:"id"`
	URL     string     `json:"url"`
	Healthy bool       `json:"healthy"`
	Error   string     `json:"error,omitempty"`
	Stats   *NodeStats `json:"stats,omitempty"`
}

// ClusterAggregate is the GET /v1/cluster/stats body: every member's
// /v1/stats merged into cluster-wide totals.
type ClusterAggregate struct {
	Nodes   int           `json:"nodes"`
	Healthy int           `json:"healthy"`
	Totals  ClusterTotals `json:"totals"`
	Members []MemberStats `json:"members"`
}

// AggregateStats fans GET /v1/stats out to every member (self answers
// locally) and merges the results. Unreachable members appear with an
// error and contribute nothing to the totals.
func (n *Node) AggregateStats(ctx context.Context) ClusterAggregate {
	_, ms := n.snapshot()
	agg := ClusterAggregate{Nodes: len(ms)}
	results := make([]MemberStats, len(ms))
	var wg sync.WaitGroup
	for i, m := range ms {
		wg.Add(1)
		go func(i int, m *member) {
			defer wg.Done()
			r := MemberStats{ID: m.id, URL: m.url}
			if m.self {
				st := n.Stats()
				r.Stats, r.Healthy = &st, true
			} else if st, err := n.fetchStats(ctx, m); err != nil {
				r.Error = err.Error()
			} else {
				r.Stats, r.Healthy = st, true
			}
			results[i] = r
		}(i, m)
	}
	wg.Wait()
	for _, r := range results {
		agg.Members = append(agg.Members, r)
		if r.Stats == nil {
			continue
		}
		agg.Healthy++
		s := r.Stats
		agg.Totals.Submitted += s.Submitted
		agg.Totals.Completed += s.Completed
		agg.Totals.Computed += s.Computed
		agg.Totals.Failed += s.Failed
		agg.Totals.Canceled += s.Canceled
		agg.Totals.Rejected += s.Rejected
		agg.Totals.CacheHits += s.CacheHits
		agg.Totals.CacheMisses += s.CacheMisses
		agg.Totals.DiskHits += s.DiskHits
		agg.Totals.Spills += s.Spills
		agg.Totals.DiskEntries += int64(s.DiskEntries)
		agg.Totals.Recovered += s.RecoveredJobs
		agg.Totals.Interrupted += s.InterruptedJobs
		agg.Totals.JobsOwned += s.Cluster.JobsOwned
		agg.Totals.JobsProxied += s.Cluster.JobsProxied
		agg.Totals.Failovers += s.Cluster.Failovers
		agg.Totals.JobsCoordinated += s.JobsCoordinated
		agg.Totals.ShardsExecuted += s.ShardsExecuted
		agg.Totals.HalosSent += s.HalosSent
		agg.Totals.HalosSkipped += s.HalosSkipped
	}
	return agg
}

func (n *Node) fetchStats(ctx context.Context, m *member) (*NodeStats, error) {
	ctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	data, err := n.call(ctx, peerCall{method: http.MethodGet, url: m.url + "/v1/stats", limit: jsonLimit})
	if err != nil {
		return nil, err
	}
	var st NodeStats
	if err := json.Unmarshal(data, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// --- routing keys and job ids ----------------------------------------

// RouteKey computes the routing key of a submission: the canonical hash
// the owner's cache will use, mapped onto the ring's key space. Frames
// submissions route identically — they bypass the cache, but keeping
// them on the owner means the whole lifecycle of a config lives on one
// node.
//
// It also returns the normalized config, and the router forwards THAT,
// not the raw client body: normalization fills machine-dependent
// defaults (Threads defaults to the local GOMAXPROCS), so on a
// heterogeneous cluster the owner re-deriving defaults from the raw
// config could compute a different hash than the one it was routed by,
// splitting one submission's cache entry across nodes. Forwarding the
// normalized form makes the entry node's canonicalization authoritative
// — normalization is idempotent (FuzzConfigCanonicalHash), so the owner
// lands on exactly the routed hash.
func RouteKey(cfg core.Config, frames bool) (core.Config, string, uint64, error) {
	norm, hash, err := serve.NormalizeSubmission(cfg, frames)
	if err != nil {
		return cfg, "", 0, err
	}
	return norm, hash, core.HashPoint(hash), nil
}

// prefixID namespaces a manager-local job id with this node's id.
func (n *Node) prefixID(local string) string { return n.id + "." + local }

// SplitJobID splits a cluster job id "n1a2b3c4.j-000017" into node and
// local parts. Unprefixed ids return ("", id, false).
func SplitJobID(id string) (node, local string, ok bool) {
	i := strings.IndexByte(id, '.')
	if i <= 0 || i == len(id)-1 {
		return "", id, false
	}
	return id[:i], id[i+1:], true
}
