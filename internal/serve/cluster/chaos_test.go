package cluster_test

// Chaos acceptance suites for the elastic cluster: a deterministic
// fault-injection transport (internal/serve/chaosnet) sits under every
// node's HTTP client, nodes die for real (server closed, loops
// stopped), and the assertions are the robustness contract itself:
//
//   - killing any one node under a sustained sweep yields ZERO failed
//     RunConfig calls,
//   - every survivor's ring drops the victim in under a second,
//   - the recompute count is bounded by the entries whose replication
//     had not completed at kill time (zero once replication settled).

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"easypap/internal/core"
	"easypap/internal/serve"
	"easypap/internal/serve/chaosnet"
	"easypap/internal/serve/client"
	"easypap/internal/serve/cluster"
	"easypap/internal/serve/store"
)

// chaosCluster is n in-process daemons with disk stores, R-way
// replication, fast gossip, and one seeded chaosnet transport per node
// (so pairwise faults need no origin plumbing: node i's view of node j
// is controlled on transport i).
type chaosCluster struct {
	t      testing.TB
	urls   []string
	hosts  []string
	swaps  []*swapHandler
	mgrs   []*serve.Manager
	nodes  []*cluster.Node
	srvs   []*httptest.Server
	chaos  []*chaosnet.Transport
	killed []bool
}

func hostOf(url string) string { return strings.TrimPrefix(url, "http://") }

func startChaosCluster(t testing.TB, n, replicate int) *chaosCluster {
	t.Helper()
	cc := &chaosCluster{
		t:      t,
		urls:   make([]string, n),
		hosts:  make([]string, n),
		swaps:  make([]*swapHandler, n),
		mgrs:   make([]*serve.Manager, n),
		nodes:  make([]*cluster.Node, n),
		srvs:   make([]*httptest.Server, n),
		chaos:  make([]*chaosnet.Transport, n),
		killed: make([]bool, n),
	}
	for i := 0; i < n; i++ {
		cc.swaps[i] = &swapHandler{}
		cc.srvs[i] = httptest.NewServer(cc.swaps[i])
		cc.urls[i] = cc.srvs[i].URL
		cc.hosts[i] = hostOf(cc.urls[i])
		cc.chaos[i] = chaosnet.New(uint64(i)+1, nil)
	}
	for i := 0; i < n; i++ {
		s, err := store.Open(t.TempDir(), store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		cc.mgrs[i] = serve.NewManager(serve.Options{Workers: 2, QueueDepth: 64, Store: s})
		testStores[cc.mgrs[i]] = s
		node, err := cluster.NewNode(cc.mgrs[i], cluster.Options{
			Self:           cc.urls[i],
			Peers:          cc.urls,
			ProbeInterval:  25 * time.Millisecond,
			ProbeTimeout:   500 * time.Millisecond,
			SuspectTimeout: 250 * time.Millisecond,
			Replicate:      replicate,
			RebalanceBPS:   64 << 20,
			HTTP:           &http.Client{Transport: cc.chaos[i]},
		})
		if err != nil {
			t.Fatal(err)
		}
		cc.nodes[i] = node
		cc.swaps[i].set(node.Handler())
	}
	t.Cleanup(func() {
		for i := range cc.nodes {
			if !cc.killed[i] {
				cc.kill(i)
			}
		}
	})
	cc.waitAlive()
	return cc
}

// kill tears node i down the SIGKILL way: every peer's network path to
// it fails (chaosnet), its server stops accepting, and its loops and
// manager are stopped without any goodbye to the cluster.
func (cc *chaosCluster) kill(i int) {
	if cc.killed[i] {
		return
	}
	cc.killed[i] = true
	for j := range cc.chaos {
		if j != i {
			cc.chaos[j].Kill(cc.hosts[i])
		}
	}
	cc.srvs[i].Close()
	cc.nodes[i].Close()
	st := managerStore(cc.mgrs[i])
	cc.mgrs[i].Close()
	if st != nil {
		st.Close()
		delete(testStores, cc.mgrs[i])
	}
}

// waitAlive blocks until every live node sees every member alive and
// has heard from it (see waitAllHealthy).
func (cc *chaosCluster) waitAlive() {
	cc.t.Helper()
	waitFor(cc.t, "cluster all-alive", func() bool {
		for i, node := range cc.nodes {
			if cc.killed[i] {
				continue
			}
			mem := node.Membership()
			if len(mem.Members) != len(cc.nodes) {
				return false
			}
			for _, m := range mem.Members {
				if !m.Healthy || m.LastSeen.IsZero() {
					return false
				}
			}
		}
		return true
	})
}

// waitConverged blocks until every survivor's ring has dropped the
// victim, returning how long convergence took from the call.
func (cc *chaosCluster) waitConverged() time.Duration {
	cc.t.Helper()
	start := time.Now()
	live := 0
	for i := range cc.nodes {
		if !cc.killed[i] {
			live++
		}
	}
	waitFor(cc.t, "ring convergence after kill", func() bool {
		for i, node := range cc.nodes {
			if cc.killed[i] {
				continue
			}
			if node.Stats().Cluster.RingNodes != live {
				return false
			}
		}
		return true
	})
	return time.Since(start)
}

// survivorsComputed sums Computed over live nodes.
func (cc *chaosCluster) survivorsComputed() int64 {
	var total int64
	for i, mgr := range cc.mgrs {
		if !cc.killed[i] {
			total += mgr.Stats().Computed
		}
	}
	return total
}

// replicaCount returns on how many live nodes hash is durably stored.
func (cc *chaosCluster) replicaCount(hash string) int {
	count := 0
	for i, mgr := range cc.mgrs {
		if cc.killed[i] {
			continue
		}
		if _, ok := mgr.GetEntry(hash); ok {
			count++
		}
	}
	return count
}

// sweepConfigs is the workload: distinct configs spread over the ring.
func sweepConfigs() []core.Config {
	var cfgs []core.Config
	for _, grain := range []int{8, 16, 32, 64} {
		for _, iters := range []int{2, 3} {
			cfgs = append(cfgs, mandelCfg(iters, grain))
		}
	}
	return cfgs
}

func hashOf(t testing.TB, cfg core.Config) string {
	t.Helper()
	_, hash, _, err := cluster.RouteKey(cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	return hash
}

// TestChaosKillAfterReplicationZeroRecompute is the strong form of the
// acceptance bound: once replication has settled (every entry on >= R
// nodes), killing ANY node costs zero recomputes — the whole sweep is
// re-served from replicas — with zero failed RunConfig calls and
// sub-second routing convergence.
func TestChaosKillAfterReplicationZeroRecompute(t *testing.T) {
	const R = 2
	cc := startChaosCluster(t, 3, R)
	cfgs := sweepConfigs()

	multi := client.NewMulti(cc.urls...)
	for _, cfg := range cfgs {
		if _, err := multi.RunConfig(cfg); err != nil {
			t.Fatalf("pass 1 RunConfig(%+v): %v", cfg, err)
		}
	}

	// Wait for write-behind replication to settle: every entry durable on
	// at least R nodes.
	waitFor(t, "replication to settle", func() bool {
		for _, cfg := range cfgs {
			if cc.replicaCount(hashOf(t, cfg)) < R {
				return false
			}
		}
		return true
	})

	victim := cc.ownerOf(cfgs[0])
	before := func() int64 {
		var total int64
		for i, mgr := range cc.mgrs {
			if i != victim {
				total += mgr.Stats().Computed
			}
		}
		return total
	}()

	cc.kill(victim)
	conv := cc.waitConverged()
	if conv >= time.Second {
		t.Fatalf("routing convergence took %v, want < 1s", conv)
	}
	t.Logf("ring convergence after SIGKILL: %v", conv)

	// The whole sweep again, through the survivors: zero errors, zero
	// recomputes — every config is on a replica's disk.
	var survivors []string
	for i, u := range cc.urls {
		if !cc.killed[i] {
			survivors = append(survivors, u)
		}
	}
	multi2 := client.NewMulti(survivors...)
	for _, cfg := range cfgs {
		if _, err := multi2.RunConfig(cfg); err != nil {
			t.Fatalf("post-kill RunConfig(%+v): %v", cfg, err)
		}
	}
	if delta := cc.survivorsComputed() - before; delta != 0 {
		t.Fatalf("survivors recomputed %d jobs after the kill, want 0 (fully replicated)", delta)
	}
}

// TestChaosKillMidSweepBoundedRecompute kills a node while a sweep is
// actively running and replication may not have settled. The contract:
// the sweep still completes with zero RunConfig failures, routing
// converges in under a second, and the survivors recompute at most the
// entries that were not yet on any surviving disk at kill time.
func TestChaosKillMidSweepBoundedRecompute(t *testing.T) {
	const R = 2
	cc := startChaosCluster(t, 3, R)
	cfgs := sweepConfigs()

	// Pass 1: populate the cluster (no replication wait — the kill must
	// land while some entries exist only on their owner).
	multi := client.NewMulti(cc.urls...)
	for _, cfg := range cfgs {
		if _, err := multi.RunConfig(cfg); err != nil {
			t.Fatalf("pass 1 RunConfig: %v", err)
		}
	}

	victim := cc.ownerOf(cfgs[0])

	// The sustained sweep: every config continuously resubmitted from
	// several workers while the kill lands.
	var wg sync.WaitGroup
	errs := make(chan error, len(cfgs)*4)
	stopSweep := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			m := client.NewMulti(cc.urls...)
			for round := 0; ; round++ {
				select {
				case <-stopSweep:
					return
				default:
				}
				cfg := cfgs[(w+round)%len(cfgs)]
				if _, err := m.RunConfig(cfg); err != nil {
					errs <- fmt.Errorf("worker %d round %d cfg %+v: %w", w, round, cfg, err)
					return
				}
			}
		}(w)
	}

	time.Sleep(50 * time.Millisecond) // let the sweep get airborne

	// Snapshot the replication frontier at the kill instant, then kill.
	beforeSurvivors := func() int64 {
		var total int64
		for i, mgr := range cc.mgrs {
			if i != victim {
				total += mgr.Stats().Computed
			}
		}
		return total
	}()
	unreplicated := 0
	survivorSetAtKill := make(map[string]bool)
	for i, mgr := range cc.mgrs {
		if i == victim {
			continue
		}
		for _, h := range mgr.EntryHashes() {
			survivorSetAtKill[h] = true
		}
	}
	for _, cfg := range cfgs {
		if !survivorSetAtKill[hashOf(t, cfg)] {
			unreplicated++
		}
	}
	cc.kill(victim)
	conv := cc.waitConverged()
	if conv >= time.Second {
		t.Fatalf("routing convergence took %v, want < 1s", conv)
	}
	t.Logf("ring convergence under sustained sweep: %v", conv)

	// Let the sweep run a little past the kill, then wind it down.
	time.Sleep(300 * time.Millisecond)
	close(stopSweep)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("sweep failed across the kill: %v", err)
	}

	// The recompute bound: survivors may recompute only what was not on
	// any surviving disk when the victim died.
	delta := cc.survivorsComputed() - beforeSurvivors
	if delta > int64(unreplicated) {
		t.Fatalf("survivors recomputed %d jobs, want <= %d (entries unreplicated at kill time)",
			delta, unreplicated)
	}
}

// ownerOf resolves which node index owns cfg on the full original ring.
func (cc *chaosCluster) ownerOf(cfg core.Config) int {
	cc.t.Helper()
	_, _, key, err := cluster.RouteKey(cfg, false)
	if err != nil {
		cc.t.Fatal(err)
	}
	ids := make([]string, len(cc.urls))
	for i, u := range cc.urls {
		ids[i] = cluster.NodeID(u)
	}
	ownerID := cluster.NewRing(ids, 0).Owner(key)
	for i, u := range cc.urls {
		if cluster.NodeID(u) == ownerID {
			return i
		}
	}
	cc.t.Fatalf("no node owns %v", cfg)
	return -1
}

// TestChaosTracePropagationKillMidSweep is the trace-propagation
// contract under faults: with a node killed mid-sweep, every job that
// completes AND whose trace is still resolvable yields a non-empty,
// connected span tree containing the stage that produced its result
// (compute or a cache tier). Jobs whose trace state died with the
// victim surface as a clean lookup error, never a broken tree.
func TestChaosTracePropagationKillMidSweep(t *testing.T) {
	const R = 2
	cc := startChaosCluster(t, 3, R)
	cfgs := sweepConfigs()

	// Pass 1 populates the cluster so post-kill rounds exercise the
	// cache/replica stages, not just compute.
	seed := client.NewMulti(cc.urls...)
	for _, cfg := range cfgs {
		if _, err := seed.RunConfig(cfg); err != nil {
			t.Fatalf("seed RunConfig: %v", err)
		}
	}

	victim := cc.ownerOf(cfgs[0])
	var verified, skipped atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	stopSweep := make(chan struct{})
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			m := client.NewMulti(cc.urls...)
			ctx := context.Background()
			for round := 0; ; round++ {
				select {
				case <-stopSweep:
					return
				default:
				}
				cfg := cfgs[(w+round)%len(cfgs)]
				st, cl, err := m.Submit(ctx, cfg, false)
				if err != nil {
					errs <- fmt.Errorf("worker %d submit: %w", w, err)
					return
				}
				if !st.State.Terminal() {
					if st, err = m.Wait(ctx, st.ID, cl); err != nil || !st.State.Terminal() {
						continue // job lost to the kill; the sweep moves on
					}
				}
				if st.State != serve.JobDone {
					continue
				}
				doc, err := m.Trace(ctx, st.ID, cl)
				if err != nil {
					// The trace state died with the victim (or the fetch hit
					// the dying node): a clean error is the contract here.
					skipped.Add(1)
					continue
				}
				spans := flatSpans(doc.Spans)
				if len(spans) == 0 {
					errs <- fmt.Errorf("job %s: trace %s resolved but has no spans", st.ID, doc.TraceID)
					continue
				}
				stages := stageCount(spans)
				if stages[serve.StageCompute] == 0 && stages[serve.StageCacheMem] == 0 &&
					stages[serve.StageCacheDisk] == 0 && stages[serve.StageReplicaFetch] == 0 {
					errs <- fmt.Errorf("job %s: trace has no compute/cache span: %v", st.ID, stages)
					continue
				}
				assertConnectedTrace(t, doc)
				verified.Add(1)
			}
		}(w)
	}

	time.Sleep(50 * time.Millisecond) // let the sweep get airborne
	cc.kill(victim)
	cc.waitConverged()
	time.Sleep(300 * time.Millisecond)
	close(stopSweep)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("trace propagation under chaos: %v", err)
	}
	if verified.Load() == 0 {
		t.Fatal("no trace was verified across the kill")
	}
	t.Logf("verified %d span trees across the kill (%d skipped with the victim's state)",
		verified.Load(), skipped.Load())
}
