package cluster_test

// Restart chaos: a cluster node dies and comes back on the same URL
// with the same data directory. The ring routes identical submissions
// back to it (same URL → same node id → same ring points), and the
// node must answer them from its warm disk cache instead of
// recomputing — the whole point of the persistence layer in cluster
// mode. Also covered: the restarted member re-advertises its disk
// warmth through health probes, and the aggregated stats account the
// disk tier.

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"easypap/internal/core"
	"easypap/internal/serve"
	"easypap/internal/serve/client"
	"easypap/internal/serve/cluster"
	"easypap/internal/serve/store"
)

// persistCluster is n in-process daemons, each with its own data dir,
// restartable in place: the httptest server (and so the URL) survives a
// restart, exactly like a daemon process bouncing on a fixed host:port.
type persistCluster struct {
	t     *testing.T
	urls  []string
	dirs  []string
	swaps []*swapHandler
	mgrs  []*serve.Manager
	nodes []*cluster.Node
	srvs  []*httptest.Server
}

func startPersistCluster(t *testing.T, n int) *persistCluster {
	t.Helper()
	pc := &persistCluster{
		t:     t,
		urls:  make([]string, n),
		dirs:  make([]string, n),
		swaps: make([]*swapHandler, n),
		mgrs:  make([]*serve.Manager, n),
		nodes: make([]*cluster.Node, n),
		srvs:  make([]*httptest.Server, n),
	}
	for i := 0; i < n; i++ {
		pc.swaps[i] = &swapHandler{}
		pc.srvs[i] = httptest.NewServer(pc.swaps[i])
		pc.urls[i] = pc.srvs[i].URL
		pc.dirs[i] = t.TempDir()
	}
	for i := 0; i < n; i++ {
		pc.boot(i)
	}
	t.Cleanup(func() {
		for i := range pc.nodes {
			pc.halt(i)
			pc.srvs[i].Close()
		}
	})
	pc.waitHealthy()
	return pc
}

// boot starts generation g of node i on its data dir.
func (pc *persistCluster) boot(i int) {
	pc.t.Helper()
	s, err := store.Open(pc.dirs[i], store.Options{})
	if err != nil {
		pc.t.Fatal(err)
	}
	pc.mgrs[i] = serve.NewManager(serve.Options{Workers: 1, Store: s})
	testStores[pc.mgrs[i]] = s
	node, err := cluster.NewNode(pc.mgrs[i], cluster.Options{
		Self:          pc.urls[i],
		Peers:         pc.urls,
		ProbeInterval: 50 * time.Millisecond,
		ProbeTimeout:  time.Second,
	})
	if err != nil {
		pc.t.Fatal(err)
	}
	pc.nodes[i] = node
	pc.swaps[i].set(node.Handler())
}

// halt stops node i (handler answers 503, like a daemon going down),
// closing its manager and store. The server and URL stay.
func (pc *persistCluster) halt(i int) {
	if pc.nodes[i] == nil {
		return
	}
	pc.swaps[i].set(nil)
	pc.nodes[i].Close()
	st := managerStore(pc.mgrs[i])
	pc.mgrs[i].Close()
	if st != nil {
		st.Close()
		delete(testStores, pc.mgrs[i])
	}
	pc.nodes[i] = nil
}

// restart bounces node i in place: same URL, same data dir, fresh
// process state (empty memory cache, rebuilt ring).
func (pc *persistCluster) restart(i int) {
	pc.t.Helper()
	pc.halt(i)
	pc.boot(i)
	pc.waitHealthy()
}

// managerStore digs the store back out for closing. The manager does
// not own it (mirrors cmd/easypapd, which closes it after the manager).
var testStores = map[*serve.Manager]*store.Store{}

func managerStore(m *serve.Manager) *store.Store { return testStores[m] }

func (pc *persistCluster) waitHealthy() {
	pc.t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		ok := true
		for i, node := range pc.nodes {
			if node == nil {
				continue
			}
			mem := node.Membership()
			if len(mem.Members) != len(pc.nodes) {
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
			_ = i
		}
		if ok {
			return
		}
		if time.Now().After(deadline) {
			pc.t.Fatal("cluster never converged to all-healthy")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t testing.TB, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestClusterRestartServesFromWarmDisk(t *testing.T) {
	pc := startPersistCluster(t, 3)
	ctx := context.Background()

	// A small sweep through the ring: each config computes exactly once
	// on its owning node and spills to that node's disk.
	configs := []core.Config{mandelCfg(3, 8), mandelCfg(3, 16), mandelCfg(3, 32)}
	multi := client.NewMulti(pc.urls...)
	for _, cfg := range configs {
		if _, err := multi.RunConfig(cfg); err != nil {
			t.Fatal(err)
		}
	}
	for i := range pc.nodes {
		i := i
		waitFor(t, "spills to settle", func() bool {
			st := pc.mgrs[i].Stats()
			return st.Spills == st.Computed
		})
	}

	// Bounce the node that owns configs[0].
	owner := pc.ownerOf(configs[0])
	preStats := pc.mgrs[owner].Stats()
	if preStats.Computed == 0 {
		t.Fatalf("owner %d computed nothing pre-restart", owner)
	}
	pc.restart(owner)

	// Resubmit the whole sweep through a non-owner entry point: the ring
	// still routes configs[0] to the restarted node, which must answer
	// from disk — no recompute anywhere in the cluster.
	entry := (owner + 1) % len(pc.urls)
	cl := client.New(pc.urls[entry])
	for _, cfg := range configs {
		st, err := cl.Submit(ctx, cfg, false)
		if err != nil {
			t.Fatal(err)
		}
		if !st.State.Terminal() {
			if st, err = cl.Wait(ctx, st.ID); err != nil {
				t.Fatal(err)
			}
		}
		if st.State != serve.JobDone || !st.Cached {
			t.Fatalf("replayed %v: %+v", cfg, st)
		}
	}
	ownerStats := pc.mgrs[owner].Stats()
	if ownerStats.Computed != 0 {
		t.Fatalf("restarted owner recomputed %d jobs, want 0 (disk hits)", ownerStats.Computed)
	}
	if ownerStats.DiskHits == 0 {
		t.Fatalf("restarted owner served no disk hits: %+v", ownerStats)
	}

	// The restarted member re-advertises its warm disk tier: peers learn
	// its disk_entries through health probes.
	ownerID := cluster.NodeID(pc.urls[owner])
	waitFor(t, "warm-disk advertisement", func() bool {
		for _, m := range pc.nodes[entry].Membership().Members {
			if m.ID == ownerID {
				return m.DiskEntries > 0
			}
		}
		return false
	})

	// And the aggregate accounts the disk tier cluster-wide.
	agg := pc.nodes[entry].AggregateStats(ctx)
	if agg.Totals.DiskHits == 0 || agg.Totals.DiskEntries == 0 {
		t.Fatalf("aggregate misses the disk tier: %+v", agg.Totals)
	}
}

// ownerOf resolves which node index owns cfg on the current ring.
func (pc *persistCluster) ownerOf(cfg core.Config) int {
	pc.t.Helper()
	_, _, key, err := cluster.RouteKey(cfg, false)
	if err != nil {
		pc.t.Fatal(err)
	}
	ids := make([]string, len(pc.urls))
	for i, u := range pc.urls {
		ids[i] = cluster.NodeID(u)
	}
	ownerID := cluster.NewRing(ids, 0).Owner(key)
	for i, u := range pc.urls {
		if cluster.NodeID(u) == ownerID {
			return i
		}
	}
	pc.t.Fatalf("no node owns %v", cfg)
	return -1
}

// TestClusterRecoversInterruptedSweepJobs: kill a node mid-job with an
// open journal, restart it, and watch the journaled job finish under
// its original cluster id.
func TestClusterRecoversInterruptedSweepJobs(t *testing.T) {
	pc := startPersistCluster(t, 2)
	ctx := context.Background()

	// A long job, entered at node 0 but routed by hash to its ring
	// owner — the id prefix says where it actually lives.
	cfg := mandelCfg(60, 8)
	cfg.Dim = 256
	cl := client.New(pc.urls[0])
	st, err := cl.Submit(ctx, cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	if st.State.Terminal() {
		t.Fatalf("long job finished instantly: %+v", st)
	}
	nodeID, local, ok := cluster.SplitJobID(st.ID)
	if !ok {
		t.Fatalf("unprefixed cluster job id %q", st.ID)
	}
	owner := -1
	for i, u := range pc.urls {
		if cluster.NodeID(u) == nodeID {
			owner = i
		}
	}
	if owner < 0 {
		t.Fatalf("job id %q names no cluster member", st.ID)
	}

	// Wait until it is actually running, then pull the plug on the
	// owner. halt() closes the manager gracefully, which CANCELS the job
	// and journals the cancel — so fabricate the crash the way a SIGKILL
	// leaves it: re-open the journal and re-admit the job before boot.
	waitFor(t, "job running", func() bool {
		got, err := cl.Job(ctx, st.ID)
		return err == nil && got.State == serve.JobRunning
	})
	pc.halt(owner)
	s, err := store.Open(pc.dirs[owner], store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	norm, hash, err := serve.NormalizeSubmission(cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Journal.Begin(local, hash, false, norm, 0); err != nil {
		t.Fatal(err)
	}
	s.Close()

	pc.boot(owner)
	pc.waitHealthy()

	// The recovered job is pollable under its pre-crash cluster id —
	// from the surviving node — and runs to completion.
	other := (owner + 1) % len(pc.urls)
	done, err := client.New(pc.urls[other]).Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != serve.JobDone || !done.Recovered {
		t.Fatalf("recovered cluster job: %+v", done)
	}
	if got := pc.mgrs[owner].Stats(); got.RecoveredJobs != 1 {
		t.Fatalf("recovered_jobs=%d, want 1", got.RecoveredJobs)
	}
}
