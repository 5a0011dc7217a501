package cluster_test

// The in-process cluster harness: N full daemons (manager + cluster
// node + HTTP server) wired into one ring over httptest servers. On top
// of it, the acceptance tests of cluster mode: single-node vs cluster
// result equivalence (byte-identical frames), cache-hit routing
// (identical configs land on the owning node and hit its cache exactly
// once cluster-wide), and membership/ownership surfaces.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"easypap/internal/core"
	"easypap/internal/expt"
	"easypap/internal/gfx"
	_ "easypap/internal/kernels" // register the predefined kernels
	"easypap/internal/serve"
	"easypap/internal/serve/client"
	"easypap/internal/serve/cluster"
)

// swapHandler lets the httptest server come up before the node handler
// exists (the node needs its own URL first). Until the first set,
// requests wait for the handler, the way a daemon's listening socket
// queues connections until it serves (perfbench boots its nodes that
// way). They must not fail: NewNode starts the prober at once, so a
// node built earlier would mark this one suspect{0} in its first
// gossip round, and that suspicion can land after waitAllHealthy has
// passed. set(nil) halts the node: 503 from then on, like a daemon
// going down.
type swapHandler struct {
	init, boot sync.Once
	ready      chan struct{} // closed by the first set
	mu         sync.RWMutex
	h          http.Handler
}

func (s *swapHandler) readyCh() chan struct{} {
	s.init.Do(func() { s.ready = make(chan struct{}) })
	return s.ready
}

func (s *swapHandler) set(h http.Handler) {
	s.mu.Lock()
	s.h = h
	s.mu.Unlock()
	s.boot.Do(func() { close(s.readyCh()) })
}

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	select {
	case <-s.readyCh():
	case <-r.Context().Done():
		return
	}
	s.mu.RLock()
	h := s.h
	s.mu.RUnlock()
	if h == nil {
		http.Error(w, `{"error":"halted"}`, http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}

// testCluster is N in-process daemons forming one ring.
type testCluster struct {
	t      testing.TB
	urls   []string
	mgrs   []*serve.Manager
	nodes  []*cluster.Node
	srvs   []*httptest.Server
	killed []bool
}

// startCluster boots n daemons that all know each other statically —
// the --peers topology — and waits until every node sees every peer
// healthy, so tests observe steady-state routing.
func startCluster(t testing.TB, n int, opts serve.Options) *testCluster {
	t.Helper()
	return startClusterHTTP(t, n, opts, nil)
}

// startClusterHTTP is startCluster with httpc as every node's cluster
// client (nil for the default), the client that carries proxying,
// gossip, replication and halo traffic.
func startClusterHTTP(t testing.TB, n int, opts serve.Options, httpc *http.Client) *testCluster {
	t.Helper()
	tc := &testCluster{
		t:      t,
		urls:   make([]string, n),
		mgrs:   make([]*serve.Manager, n),
		nodes:  make([]*cluster.Node, n),
		srvs:   make([]*httptest.Server, n),
		killed: make([]bool, n),
	}
	swaps := make([]*swapHandler, n)
	for i := 0; i < n; i++ {
		swaps[i] = &swapHandler{}
		tc.srvs[i] = httptest.NewServer(swaps[i])
		tc.urls[i] = tc.srvs[i].URL
	}
	for i := 0; i < n; i++ {
		tc.mgrs[i] = serve.NewManager(opts)
		node, err := cluster.NewNode(tc.mgrs[i], cluster.Options{
			Self:          tc.urls[i],
			Peers:         tc.urls,
			ProbeInterval: 50 * time.Millisecond,
			ProbeTimeout:  time.Second,
			HTTP:          httpc,
		})
		if err != nil {
			t.Fatal(err)
		}
		tc.nodes[i] = node
		swaps[i].set(node.Handler())
	}
	t.Cleanup(tc.closeAll)
	tc.waitAllHealthy()
	return tc
}

func (tc *testCluster) closeAll() {
	for i := range tc.nodes {
		if !tc.killed[i] {
			tc.kill(i)
		}
	}
}

// kill tears node i down completely: server, router, manager. Peers see
// connection-refused from here on.
func (tc *testCluster) kill(i int) {
	if tc.killed[i] {
		return
	}
	tc.killed[i] = true
	tc.srvs[i].Close()
	tc.nodes[i].Close()
	tc.mgrs[i].Close()
}

// waitAllHealthy blocks until every live node has exchanged gossip
// with every member and reports each one healthy. Members start alive
// (optimistic start), so without the exchange this would pass before
// any probe had answered.
func (tc *testCluster) waitAllHealthy() {
	tc.t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		ok := true
		for i, node := range tc.nodes {
			if tc.killed[i] {
				continue
			}
			mem := node.Membership()
			if len(mem.Members) != len(tc.nodes) {
				ok = false
				break
			}
			for _, m := range mem.Members {
				if !m.Healthy || m.LastSeen.IsZero() {
					ok = false
				}
			}
			if !ok {
				break
			}
		}
		if ok {
			return
		}
		if time.Now().After(deadline) {
			tc.t.Fatalf("cluster never converged to all-healthy:%s", tc.views())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// views renders every live node's view of the membership, each member
// as state{incarnation} plus its failed contacts, for failure messages:
// a member some node does not see alive is one the shard planner skips
// and routing tries last.
func (tc *testCluster) views() string {
	var b strings.Builder
	for i, node := range tc.nodes {
		if tc.killed[i] {
			continue
		}
		fmt.Fprintf(&b, "\n  node %d (%s) sees", i, node.ID())
		for _, m := range node.Membership().Members {
			fmt.Fprintf(&b, " %s=%s{%d}", m.ID, m.State, m.Incarnation)
			if m.Failures > 0 {
				fmt.Fprintf(&b, "/%d failed contacts", m.Failures)
			}
		}
	}
	return b.String()
}

// ownerIndex returns which node owns cfg, resolved through the HTTP
// ownership endpoint and cross-checked against a locally built ring.
func (tc *testCluster) ownerIndex(cfg core.Config, frames bool) int {
	tc.t.Helper()
	_, hash, key, err := cluster.RouteKey(cfg, frames)
	if err != nil {
		tc.t.Fatal(err)
	}
	var live int
	for i := range tc.nodes {
		if !tc.killed[i] {
			live = i
			break
		}
	}
	resp, err := http.Get(tc.urls[live] + "/v1/cluster/owner/" + hash)
	if err != nil {
		tc.t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Owner string `json:"owner"`
	}
	if err := decodeJSON(resp, &body); err != nil {
		tc.t.Fatal(err)
	}
	// Cross-check: the exported ring must agree with the server's view.
	ids := make([]string, len(tc.urls))
	for i, u := range tc.urls {
		ids[i] = cluster.NodeID(u)
	}
	if want := cluster.NewRing(ids, 0).Owner(key); want != body.Owner {
		tc.t.Fatalf("owner endpoint says %s, local ring says %s", body.Owner, want)
	}
	for i, u := range tc.urls {
		if cluster.NodeID(u) == body.Owner {
			return i
		}
	}
	tc.t.Fatalf("owner %s is not a cluster member", body.Owner)
	return -1
}

func decodeJSON(resp *http.Response, out any) error {
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %s", resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// mandelCfg is the small deterministic job the harness routes around.
func mandelCfg(iters, grain int) core.Config {
	return core.Config{
		Kernel: "mandel", Variant: "seq", Dim: 64, TileW: grain,
		Iterations: iters, Threads: 1,
	}
}

// TestRingDeterminism: every node must compute the same ownership for
// the same key, shares must be sane, and the failover chain must cover
// all nodes exactly once.
func TestRingDeterminism(t *testing.T) {
	ids := []string{"n-a", "n-b", "n-c"}
	r1 := cluster.NewRing(ids, 0)
	r2 := cluster.NewRing([]string{"n-c", "n-a", "n-b", "n-a"}, 0) // order + dup must not matter
	shares := r1.Shares()
	var total float64
	for _, id := range ids {
		if shares[id] <= 0 {
			t.Errorf("node %s owns no key space", id)
		}
		total += shares[id]
	}
	if total < 0.999 || total > 1.001 {
		t.Errorf("shares sum to %v, want 1", total)
	}
	for key := uint64(0); key < 1<<20; key += 1 << 14 {
		if r1.Owner(key) != r2.Owner(key) {
			t.Fatalf("rings disagree on key %d", key)
		}
		reps := r1.Replicas(key, 0)
		if len(reps) != 3 {
			t.Fatalf("Replicas(%d) = %v, want all 3 nodes", key, reps)
		}
		if reps[0] != r1.Owner(key) {
			t.Fatalf("replica chain %v does not start at owner %s", reps, r1.Owner(key))
		}
		seen := map[string]bool{}
		for _, n := range reps {
			if seen[n] {
				t.Fatalf("replica chain %v repeats %s", reps, n)
			}
			seen[n] = true
		}
	}
}

// TestClusterCacheHitRouting: a config submitted through a NON-owner
// node runs on the owner (the job id says so), a resubmission through a
// different non-owner is served from the owner's cache, and the hit
// counter increments exactly once cluster-wide.
func TestClusterCacheHitRouting(t *testing.T) {
	tc := startCluster(t, 3, serve.Options{Workers: 1, QueueDepth: 16})
	ctx := context.Background()
	cfg := mandelCfg(3, 16)

	owner := tc.ownerIndex(cfg, false)
	ownerID := cluster.NodeID(tc.urls[owner])
	submitter := (owner + 1) % 3
	resubmitter := (owner + 2) % 3

	// First submission through a non-owner: must be proxied to the owner.
	cl1 := client.New(tc.urls[submitter])
	st, err := cl1.Submit(ctx, cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	node, _, prefixed := cluster.SplitJobID(st.ID)
	if !prefixed || node != ownerID {
		t.Fatalf("job id %q not owned by ring owner %s", st.ID, ownerID)
	}
	// Status polling through the submitter exercises the proxy path too.
	if st, err = cl1.Wait(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	if st.State != serve.JobDone || st.Cached {
		t.Fatalf("first submission ended %s cached=%v", st.State, st.Cached)
	}
	if st.Result == nil || st.Result.Iterations != 3 {
		t.Fatalf("result %+v", st.Result)
	}

	// Resubmission through yet another node: owner's cache answers.
	cl2 := client.New(tc.urls[resubmitter])
	again, err := cl2.Submit(ctx, cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached || again.State != serve.JobDone {
		t.Fatalf("resubmission not a cache hit: state=%s cached=%v", again.State, again.Cached)
	}
	if node, _, _ := cluster.SplitJobID(again.ID); node != ownerID {
		t.Fatalf("cached job id %q not on owner %s", again.ID, ownerID)
	}

	// Exactly one hit, on the owner, cluster-wide.
	for i, mgr := range tc.mgrs {
		want := int64(0)
		if i == owner {
			want = 1
		}
		if got := mgr.Stats().CacheHits; got != want {
			t.Errorf("node %d cache hits = %d, want %d", i, got, want)
		}
	}
	agg, err := client.NewMulti(tc.urls...).Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Totals.CacheHits != 1 {
		t.Errorf("cluster-wide cache hits = %d, want exactly 1", agg.Totals.CacheHits)
	}
	if agg.Totals.JobsProxied < 2 {
		t.Errorf("jobs proxied = %d, want >= 2 (both submissions hopped)", agg.Totals.JobsProxied)
	}
	if agg.Healthy != 3 || agg.Nodes != 3 {
		t.Errorf("aggregate sees %d/%d healthy", agg.Healthy, agg.Nodes)
	}

	// Per-node stats surface the routing counters.
	ns := tc.nodes[submitter].Stats()
	if ns.Cluster.JobsProxied < 1 {
		t.Errorf("submitter proxied %d jobs, want >= 1", ns.Cluster.JobsProxied)
	}
	if ns.Cluster.RingShare <= 0 || ns.Cluster.RingShare >= 1 {
		t.Errorf("ring share %v out of (0, 1)", ns.Cluster.RingShare)
	}
	if tc.nodes[owner].Stats().Cluster.JobsOwned < 1 {
		t.Error("owner reports no owned jobs")
	}
}

// TestClusterVsSingleNodeEquivalence: the same sweep executed against a
// 3-node cluster and a single standalone daemon must produce identical
// results, and the frames of every configuration must be byte-identical
// — proxying must never corrupt a stream.
func TestClusterVsSingleNodeEquivalence(t *testing.T) {
	tc := startCluster(t, 3, serve.Options{Workers: 2, QueueDepth: 32})
	ctx := context.Background()

	// The single-node reference service.
	single := serve.NewManager(serve.Options{Workers: 2, QueueDepth: 32})
	singleSrv := httptest.NewServer(serve.NewHandler(single))
	defer func() {
		singleSrv.Close()
		single.Close()
	}()
	singleCl := client.New(singleSrv.URL)

	newSweep := func(r expt.Runner) *expt.Sweep {
		return &expt.Sweep{
			Base: core.Config{Kernel: "mandel", Variant: "seq", Dim: 64,
				Iterations: 2, Threads: 1},
			Grains: []int{8, 16, 32},
			Runs:   2, // repeats exercise the cluster-wide cache
			Remote: r,
		}
	}
	multi := client.NewMulti(tc.urls...)
	clusterResults, err := newSweep(multi).Execute()
	if err != nil {
		t.Fatal(err)
	}
	singleResults, err := newSweep(singleCl).Execute()
	if err != nil {
		t.Fatal(err)
	}
	if len(clusterResults) != len(singleResults) || len(clusterResults) != 6 {
		t.Fatalf("result counts differ: cluster %d, single %d", len(clusterResults), len(singleResults))
	}
	for i := range clusterResults {
		cr, sr := clusterResults[i], singleResults[i]
		if cr.Iterations != sr.Iterations {
			t.Errorf("run %d: cluster %d iterations, single %d", i, cr.Iterations, sr.Iterations)
		}
		if cr.Config.TileW != sr.Config.TileW {
			t.Errorf("run %d: configs diverged (%d vs %d)", i, cr.Config.TileW, sr.Config.TileW)
		}
	}

	// The sweep's repeats must have been answered from node-local caches:
	// 3 unique combinations, 3 cache hits — never recomputed.
	agg, err := multi.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Totals.CacheHits != 3 {
		t.Errorf("cluster-wide cache hits = %d, want 3 (one per repeated combination)", agg.Totals.CacheHits)
	}

	// Byte-identical frames for every configuration, cluster vs single.
	for _, grain := range []int{8, 16, 32} {
		cfg := mandelCfg(2, grain)
		clusterPNGs := lastFrames(t, func() (string, *client.Client) {
			st, cl, err := multi.Submit(ctx, cfg, true)
			if err != nil {
				t.Fatal(err)
			}
			// Read the stream through a different node than the one that
			// accepted it, so the frames proxy path is on the wire.
			other := client.New(tc.urls[0])
			if other.Base == cl.Base {
				other = client.New(tc.urls[1])
			}
			return st.ID, other
		})
		singlePNGs := lastFrames(t, func() (string, *client.Client) {
			st, err := singleCl.Submit(ctx, cfg, true)
			if err != nil {
				t.Fatal(err)
			}
			return st.ID, singleCl
		})
		if len(clusterPNGs) != len(singlePNGs) {
			t.Fatalf("grain %d: %d cluster frames vs %d single frames",
				grain, len(clusterPNGs), len(singlePNGs))
		}
		for i := range clusterPNGs {
			if !bytes.Equal(clusterPNGs[i], singlePNGs[i]) {
				t.Errorf("grain %d frame %d: cluster and single-node PNGs differ", grain, i)
			}
		}
	}
}

// lastFrames submits a frames job via submit and returns every frame's
// PNG bytes in order.
func lastFrames(t *testing.T, submit func() (string, *client.Client)) [][]byte {
	t.Helper()
	id, cl := submit()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var pngs [][]byte
	if err := cl.Frames(ctx, id, func(f *gfx.Record) bool {
		pngs = append(pngs, f.Payload)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(pngs) == 0 {
		t.Fatal("frames job produced no frames")
	}
	return pngs
}

// TestClusterJoinMerge: a node pointed at a single member learns the
// whole cluster through its first gossip exchange with that member.
func TestClusterJoinMerge(t *testing.T) {
	tc := startCluster(t, 2, serve.Options{Workers: 1, QueueDepth: 8})

	// A third daemon that only knows node 0.
	swap := &swapHandler{}
	srv := httptest.NewServer(swap)
	defer srv.Close()
	mgr := serve.NewManager(serve.Options{Workers: 1, QueueDepth: 8})
	defer mgr.Close()
	node, err := cluster.NewNode(mgr, cluster.Options{
		Self:          srv.URL,
		Peers:         tc.urls[:1],
		ProbeInterval: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	swap.set(node.Handler())

	deadline := time.Now().Add(5 * time.Second)
	for {
		if len(node.Membership().Members) == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("joiner never learned full membership: %+v", node.Membership())
		}
		time.Sleep(10 * time.Millisecond)
	}
	// And node 0 learned the joiner.
	if len(tc.nodes[0].Membership().Members) != 3 {
		t.Errorf("seed node membership = %+v, want 3 members", tc.nodes[0].Membership())
	}
}
