package cluster_test

// Acceptance suites for distributed single-job execution (row-band
// sharding with frontier-aware halo exchange):
//
//   - the byte-identity battery: for every halo-capable kernel (life,
//     fire, sandpile), several seeds, and shard counts that split the
//     grid unevenly, the sharded cluster run must produce the SAME
//     image checksum and iteration count as an in-process run of the
//     same normalized config,
//   - frontier-awareness: a sparse board (one blinker) must skip more
//     halo exchanges than it performs, without changing the output,
//   - chaos: killing a shard node, partitioning two shard neighbors or
//     holding the coordinator's requests to one of them mid-job must
//     fail the job with the typed "shard_failed" error within the halo
//     timeout — never a hang — drain every shard session and goroutine,
//     and let the client resubmit unsharded successfully.

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"easypap/internal/core"
	"easypap/internal/gfx"
	"easypap/internal/serve"
	"easypap/internal/serve/chaosnet"
	"easypap/internal/serve/client"
	"easypap/internal/serve/cluster"
)

// shardCfg is the battery's base config: 64x64, 8x8 tiles (8 tile rows,
// so 3 shards split 3/3/2 — the uneven case the issue calls out).
func shardCfg(kernel, arg string, iters int, seed int64) core.Config {
	return core.Config{
		Kernel: kernel, Variant: "mpi_omp", Dim: 64, TileW: 8, TileH: 8,
		Iterations: iters, Threads: 2, Arg: arg, Seed: seed,
	}
}

// singleNodeRef computes the reference result for cfg in-process (the
// normalized form a daemon would run).
func singleNodeRef(t *testing.T, cfg core.Config) core.Result {
	t.Helper()
	norm, _, err := serve.NormalizeSubmission(cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	out, err := core.RunWith(context.Background(), norm, core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Result.Checksum == "" {
		t.Fatal("reference run produced no checksum")
	}
	return out.Result
}

// shardsExecuted reads every manager's shard-rank counter.
func shardsExecuted(mgrs []*serve.Manager) []int64 {
	n := make([]int64, len(mgrs))
	for i, m := range mgrs {
		n[i] = m.Stats().ShardsExecuted
	}
	return n
}

// shardPlan reports the ranks each node ran since before — the plan the
// coordinator chose — and their total.
func shardPlan(mgrs []*serve.Manager, before []int64) (string, int64) {
	var b strings.Builder
	var total int64
	for i, n := range shardsExecuted(mgrs) {
		fmt.Fprintf(&b, " node %d: %d", i, n-before[i])
		total += n - before[i]
	}
	return b.String(), total
}

// TestShardedByteIdenticalToSingleNode is the equivalence battery: every
// kernel, multiple seeds, shard counts 2 and 3 (3 over 8 tile rows is
// the uneven split), plus an over-asked count that must clamp to the
// cluster size. Checksums and iteration counts must match the
// single-node reference exactly.
func TestShardedByteIdenticalToSingleNode(t *testing.T) {
	tc := startCluster(t, 3, serve.Options{Workers: 2, QueueDepth: 16})
	cases := []struct {
		name string
		cfg  core.Config
	}{
		{"life-random-s3", shardCfg("life", "random", 24, 3)},
		{"life-random-s7", shardCfg("life", "random", 24, 7)},
		{"life-diag", shardCfg("life", "diag", 20, 0)},
		{"fire-forest-s3", shardCfg("fire", "forest", 40, 3)},
		{"fire-sparse-s9", shardCfg("fire", "sparse", 40, 9)},
		{"sandpile", shardCfg("sandpile", "", 60, 0)},
	}
	ctx := context.Background()
	for _, tcase := range cases {
		for _, shards := range []int{2, 3, 5} { // 5 clamps to the 3 live nodes
			// The shard count is advisory and not part of the cache key,
			// so resubmitting the identical config would be answered by
			// the result cache. Perturb the iteration count per shard
			// count to make each submission a fresh key.
			cfg := tcase.cfg
			cfg.Iterations += 3 * shards
			ref := singleNodeRef(t, cfg)
			before := shardsExecuted(tc.mgrs)

			// Submit through a non-owner so the shards field rides the
			// routing hop to the coordinator.
			owner := tc.ownerIndex(cfg, false)
			c := client.New(tc.urls[(owner+1)%len(tc.urls)])
			st, err := c.SubmitShards(ctx, cfg, false, shards)
			if err != nil {
				t.Fatalf("%s shards=%d: submit: %v", tcase.name, shards, err)
			}
			if !st.State.Terminal() {
				if st, err = c.Wait(ctx, st.ID); err != nil {
					t.Fatalf("%s shards=%d: wait: %v", tcase.name, shards, err)
				}
			}
			if st.State != serve.JobDone || st.Result == nil {
				t.Fatalf("%s shards=%d: job ended %s: %s", tcase.name, shards, st.State, st.Error)
			}
			if st.Result.Checksum != ref.Checksum {
				t.Errorf("%s shards=%d: checksum %s, single-node %s — sharding changed the image",
					tcase.name, shards, st.Result.Checksum, ref.Checksum)
			}
			if st.Result.Iterations != ref.Iterations {
				t.Errorf("%s shards=%d: ran %d iterations, single-node %d",
					tcase.name, shards, st.Result.Iterations, ref.Iterations)
			}
			wantRanks := int64(shards)
			if shards > 3 {
				wantRanks = 3
			}
			if plan, got := shardPlan(tc.mgrs, before); got != wantRanks {
				t.Errorf("%s shards=%d: %d shard ranks executed (%s), want %d (cache must not have answered, and the clamp must hold); views:%s",
					tcase.name, shards, got, plan, wantRanks, tc.views())
			}
			if tc.mgrs[owner].Stats().JobsCoordinated == 0 {
				t.Errorf("%s shards=%d: owner node %d never counted a coordinated job; views:%s",
					tcase.name, shards, owner, tc.views())
			}
		}
	}
}

// TestShardedSparseSkipsHalos: a lone blinker oscillates in the middle
// band, so after the priming exchange every band-boundary tile row stays
// quiet — the frontier rule must skip (nearly) every halo send, and
// skipping must not change the result.
func TestShardedSparseSkipsHalos(t *testing.T) {
	tc := startCluster(t, 3, serve.Options{Workers: 2, QueueDepth: 16})
	cfg := shardCfg("life", "blinker", 50, 0)
	ref := singleNodeRef(t, cfg)
	before := shardsExecuted(tc.mgrs)

	c := client.New(tc.urls[0])
	st, err := c.SubmitShards(context.Background(), cfg, false, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !st.State.Terminal() {
		if st, err = c.Wait(context.Background(), st.ID); err != nil {
			t.Fatal(err)
		}
	}
	if st.State != serve.JobDone || st.Result == nil {
		t.Fatalf("job ended %s: %s", st.State, st.Error)
	}
	if st.Result.Checksum != ref.Checksum {
		t.Errorf("skipping halos changed the image: %s vs %s", st.Result.Checksum, ref.Checksum)
	}
	var sent, skipped int64
	for _, m := range tc.mgrs {
		s := m.Stats()
		sent += s.HalosSent
		skipped += s.HalosSkipped
	}
	if skipped <= sent {
		plan, _ := shardPlan(tc.mgrs, before)
		t.Errorf("sparse board sent %d halos but skipped only %d — frontier-aware skipping is not engaging; ranks run:%s; views:%s",
			sent, skipped, plan, tc.views())
	}
	if st.Result.HalosSkipped == 0 {
		t.Errorf("result reports no skipped halos: %+v", st.Result)
	}
}

// shardProbe is a cluster transport for the start-order tests. It
// counts the /v1/shard/halo responses that are 404: a halo that reached
// a node before its rank's session was registered there, which the
// sender retries after a pause. It also counts /v1/shard/abort
// requests. With refuseStart it answers every /v1/shard/start with 503
// instead of sending it.
type shardProbe struct {
	refuseStart bool
	haloMisses  atomic.Int64
	aborts      atomic.Int64
}

func (p *shardProbe) RoundTrip(r *http.Request) (*http.Response, error) {
	if p.refuseStart && r.URL.Path == "/v1/shard/start" {
		return &http.Response{StatusCode: http.StatusServiceUnavailable, Body: http.NoBody, Request: r}, nil
	}
	if r.URL.Path == "/v1/shard/abort" {
		p.aborts.Add(1)
	}
	resp, err := http.DefaultTransport.RoundTrip(r)
	if err == nil && r.URL.Path == "/v1/shard/halo" && resp.StatusCode == http.StatusNotFound {
		p.haloMisses.Add(1)
	}
	return resp, err
}

// TestShardedStartRegistersCoordinatorFirst: the coordinator registers
// rank 0's session before it starts the remote rank, so in a two-node
// cluster no halo ever finds its session missing. Were rank 0 registered
// only after the remote start, the remote rank's first halos would race
// it, get 404 and wait out a retry pause. A remote rank that completes
// unregisters its own session, so no successful job sends an abort.
func TestShardedStartRegistersCoordinatorFirst(t *testing.T) {
	probe := &shardProbe{}
	tc := startClusterHTTP(t, 2, serve.Options{Workers: 2, QueueDepth: 16}, &http.Client{Transport: probe})
	c := client.New(tc.urls[0])
	const jobs = 12
	before := shardsExecuted(tc.mgrs)
	for seed := int64(1); seed <= jobs; seed++ {
		cfg := shardCfg("life", "random", 8, seed)
		st, err := c.SubmitShards(context.Background(), cfg, false, 2)
		if err != nil {
			t.Fatal(err)
		}
		if !st.State.Terminal() {
			if st, err = c.Wait(context.Background(), st.ID); err != nil {
				t.Fatal(err)
			}
		}
		if st.State != serve.JobDone || st.Result == nil {
			t.Fatalf("seed %d: job ended %s: %s", seed, st.State, st.Error)
		}
	}
	if plan, ranks := shardPlan(tc.mgrs, before); ranks != 2*jobs {
		t.Fatalf("%d shard ranks ran (%s), want %d: every job must shard", ranks, plan, 2*jobs)
	}
	if n := probe.haloMisses.Load(); n != 0 {
		t.Errorf("%d halos over %d two-shard jobs got 404: a rank's session was not registered before its peer's halos arrived", n, jobs)
	}
	if n := probe.aborts.Load(); n != 0 {
		t.Errorf("%d aborts sent over %d successful two-shard jobs, want 0", n, jobs)
	}
}

// TestShardedStartFailureReleasesRankZero: when the remote rank cannot
// start, the coordinator releases the rank 0 session it registered first
// and runs the job on its plain path: the single-node result, no shard
// rank run, and no session left behind on either node.
func TestShardedStartFailureReleasesRankZero(t *testing.T) {
	probe := &shardProbe{refuseStart: true}
	tc := startClusterHTTP(t, 2, serve.Options{Workers: 2, QueueDepth: 16}, &http.Client{Transport: probe})
	cfg := shardCfg("life", "random", 8, 3)
	ref := singleNodeRef(t, cfg)
	c := client.New(tc.urls[0])
	st, err := c.SubmitShards(context.Background(), cfg, false, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !st.State.Terminal() {
		if st, err = c.Wait(context.Background(), st.ID); err != nil {
			t.Fatal(err)
		}
	}
	if st.State != serve.JobDone || st.Result == nil {
		t.Fatalf("job ended %s: %s", st.State, st.Error)
	}
	if st.Result.Checksum != ref.Checksum {
		t.Errorf("checksum %s, single-node %s", st.Result.Checksum, ref.Checksum)
	}
	for i, m := range tc.mgrs {
		if n := m.Stats().ShardsExecuted; n != 0 {
			t.Errorf("node %d ran %d shard ranks, want 0: no remote rank started", i, n)
		}
		if n := m.ShardSessions(); n != 0 {
			t.Errorf("node %d holds %d shard sessions after the fallback, want 0", i, n)
		}
	}
}

// TestShardedFramesJobStreamsEveryFrame: a sharded frames job streams
// rank 0's gathered frames through the coordinator's hub sink, which
// encodes them on helper goroutines. A viewer that attaches once the job
// is done must still get every frame (the runner flushes the sink before
// it closes the hub on the sharded path too), each equal to a
// single-node run's: three ranks, so the last frame's gather must not
// take a fast rank's final band in place of a slower rank's.
func TestShardedFramesJobStreamsEveryFrame(t *testing.T) {
	tc := startCluster(t, 3, serve.Options{Workers: 2, QueueDepth: 16})
	cfg := shardCfg("life", "random", 20, 5)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	norm, _, err := serve.NormalizeSubmission(cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	var ref bytes.Buffer
	if _, err := core.RunWith(ctx, norm, core.RunOptions{Sink: gfx.NewStreamSink(&ref)}); err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	for br := bufio.NewReader(&ref); ; {
		f, err := gfx.ReadFrame(br)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, f.PNG)
	}

	before := shardsExecuted(tc.mgrs)
	c := client.New(tc.urls[tc.ownerIndex(cfg, true)])
	st, err := c.SubmitShards(ctx, cfg, true, 3)
	if err != nil {
		t.Fatal(err)
	}
	if st, err = c.Wait(ctx, st.ID); err != nil || st.State != serve.JobDone {
		t.Fatalf("job ended %+v (%v)", st, err)
	}
	if plan, got := shardPlan(tc.mgrs, before); got != 3 {
		t.Fatalf("%d shard ranks executed (%s), want 3", got, plan)
	}
	var got [][]byte
	if err := c.Frames(ctx, st.ID, func(f *gfx.StreamFrame) bool {
		got = append(got, f.PNG)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) || len(want) != cfg.Iterations {
		t.Fatalf("sharded job streamed %d frames, single-node %d, iterations %d", len(got), len(want), cfg.Iterations)
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("frame %d differs from the single-node run's", i+1)
		}
	}
}

// TestDeclinedShardRunsAsPlainJob: a sharded submission the cluster
// declines (an omp variant cannot be split into bands) runs on the
// owner's plain path, with its warm pool and options: it computes the
// single-node result, and no node counts a coordinated job or a shard.
func TestDeclinedShardRunsAsPlainJob(t *testing.T) {
	tc := startCluster(t, 3, serve.Options{Workers: 2, QueueDepth: 16})
	cfg := shardCfg("life", "random", 20, 5)
	cfg.Variant = "omp_tiled"
	ref := singleNodeRef(t, cfg)

	c := client.New(tc.urls[0])
	st, err := c.SubmitShards(context.Background(), cfg, false, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !st.State.Terminal() {
		if st, err = c.Wait(context.Background(), st.ID); err != nil {
			t.Fatal(err)
		}
	}
	if st.State != serve.JobDone || st.Result == nil {
		t.Fatalf("job ended %s: %s", st.State, st.Error)
	}
	if st.Result.Checksum != ref.Checksum {
		t.Errorf("checksum %s, single-node %s", st.Result.Checksum, ref.Checksum)
	}
	for i, m := range tc.mgrs {
		if s := m.Stats(); s.JobsCoordinated != 0 || s.ShardsExecuted != 0 {
			t.Errorf("node %d: jobs_coordinated=%d shards_executed=%d, want 0 for a declined plan",
				i, s.JobsCoordinated, s.ShardsExecuted)
		}
	}
}

// --- chaos -----------------------------------------------------------

// shardChaosCluster is 3 daemons with a fast halo timeout and one
// seeded chaosnet transport per node, so shard traffic (which rides the
// node's cluster HTTP client) can be cut per-path.
type shardChaosCluster struct {
	t      *testing.T
	urls   []string
	hosts  []string
	mgrs   []*serve.Manager
	nodes  []*cluster.Node
	srvs   []*httptest.Server
	chaos  []*chaosnet.Transport
	killed []bool
	// heal, when an injected fault sets it, lifts the fault before the
	// unsharded resubmit, which the fault would otherwise stall.
	heal func()
}

func startShardChaosCluster(t *testing.T, n int) *shardChaosCluster {
	t.Helper()
	sc := &shardChaosCluster{
		t:      t,
		urls:   make([]string, n),
		hosts:  make([]string, n),
		mgrs:   make([]*serve.Manager, n),
		nodes:  make([]*cluster.Node, n),
		srvs:   make([]*httptest.Server, n),
		chaos:  make([]*chaosnet.Transport, n),
		killed: make([]bool, n),
	}
	swaps := make([]*swapHandler, n)
	for i := 0; i < n; i++ {
		swaps[i] = &swapHandler{}
		sc.srvs[i] = httptest.NewServer(swaps[i])
		sc.urls[i] = sc.srvs[i].URL
		sc.hosts[i] = hostOf(sc.urls[i])
		sc.chaos[i] = chaosnet.New(uint64(i)+41, nil)
	}
	for i := 0; i < n; i++ {
		sc.mgrs[i] = serve.NewManager(serve.Options{
			Workers: 2, QueueDepth: 16, HaloTimeout: 300 * time.Millisecond,
		})
		node, err := cluster.NewNode(sc.mgrs[i], cluster.Options{
			Self:           sc.urls[i],
			Peers:          sc.urls,
			ProbeInterval:  25 * time.Millisecond,
			ProbeTimeout:   500 * time.Millisecond,
			SuspectTimeout: 250 * time.Millisecond,
			HTTP:           &http.Client{Transport: sc.chaos[i]},
		})
		if err != nil {
			t.Fatal(err)
		}
		sc.nodes[i] = node
		swaps[i].set(node.Handler())
	}
	t.Cleanup(func() {
		for i := range sc.nodes {
			if !sc.killed[i] {
				sc.kill(i)
			}
		}
	})
	waitFor(t, "shard chaos cluster all-alive", func() bool {
		for i, node := range sc.nodes {
			if sc.killed[i] {
				continue
			}
			mem := node.Membership()
			if len(mem.Members) != n {
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
	return sc
}

func (sc *shardChaosCluster) kill(i int) {
	if sc.killed[i] {
		return
	}
	sc.killed[i] = true
	for j := range sc.chaos {
		if j != i {
			sc.chaos[j].Kill(sc.hosts[i])
		}
	}
	sc.srvs[i].Close()
	sc.nodes[i].Close()
	sc.mgrs[i].Close()
}

// partition cuts the network between nodes i and j (both stay up).
func (sc *shardChaosCluster) partition(i, j int) {
	sc.chaos[i].Kill(sc.hosts[j])
	sc.chaos[j].Kill(sc.hosts[i])
}

// ownerOf resolves which node coordinates cfg.
func (sc *shardChaosCluster) ownerOf(cfg core.Config) int {
	sc.t.Helper()
	_, _, key, err := cluster.RouteKey(cfg, false)
	if err != nil {
		sc.t.Fatal(err)
	}
	ids := make([]string, len(sc.urls))
	for i, u := range sc.urls {
		ids[i] = cluster.NodeID(u)
	}
	owner := cluster.NewRing(ids, 0).Owner(key)
	for i, id := range ids {
		if id == owner {
			return i
		}
	}
	sc.t.Fatalf("owner %s not a member", owner)
	return -1
}

// neverConverging is a sharded job that runs until canceled: blinkers
// oscillate forever, so the chaos suites control exactly when it ends.
func neverConverging() core.Config {
	return shardCfg("life", "random", 10_000_000, 5)
}

// waitShardActive blocks until every live node is executing a shard and
// halos are flowing.
func (sc *shardChaosCluster) waitShardActive() {
	sc.t.Helper()
	waitFor(sc.t, "sharded job active on every node", func() bool {
		for i, m := range sc.mgrs {
			if sc.killed[i] {
				continue
			}
			s := m.Stats()
			if s.ShardsExecuted == 0 || s.HalosSent == 0 {
				return false
			}
		}
		return true
	})
}

// drainAssert waits for shard sessions and their goroutines to drain on
// every live node after a shard failure.
func (sc *shardChaosCluster) drainAssert(baseline int) {
	sc.t.Helper()
	waitFor(sc.t, "shard sessions drained", func() bool {
		for i, m := range sc.mgrs {
			if !sc.killed[i] && m.ShardSessions() != 0 {
				return false
			}
		}
		return true
	})
	waitFor(sc.t, "goroutines back to baseline", func() bool {
		// Idle keep-alive connections from the halo burst are pool
		// reuse, not leaks — reap them so the count reflects shard
		// session goroutines only.
		if tr, ok := http.DefaultTransport.(*http.Transport); ok {
			tr.CloseIdleConnections()
		}
		runtime.GC()
		return runtime.NumGoroutine() <= baseline+10
	})
}

// runShardChaos drives the shared chaos scenario: start a never-ending
// sharded job, inject the fault mid-run, and assert the typed-failure /
// no-hang / drain / resubmit-unsharded contract.
func runShardChaos(t *testing.T, inject func(sc *shardChaosCluster, owner int)) {
	sc := startShardChaosCluster(t, 3)
	baseline := runtime.NumGoroutine()
	cfg := neverConverging()
	owner := sc.ownerOf(cfg)
	c := client.New(sc.urls[owner])
	ctx := context.Background()

	st, err := c.SubmitShards(ctx, cfg, false, 3)
	if err != nil {
		t.Fatal(err)
	}
	if st.State.Terminal() {
		t.Fatalf("never-converging job terminal at submit: %s %s", st.State, st.Error)
	}
	sc.waitShardActive()

	faultAt := time.Now()
	inject(sc, owner)

	// The job must fail typed within the halo timeout (300ms) plus
	// transport slack — and must never hang.
	wctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	st, err = c.Wait(wctx, st.ID)
	cancel()
	if err != nil {
		t.Fatalf("job did not reach a terminal state after the fault: %v", err)
	}
	detect := time.Since(faultAt)
	if st.State != serve.JobFailed {
		t.Fatalf("job ended %s (%s), want failed", st.State, st.Error)
	}
	if st.ErrorKind != serve.ErrorKindShardFailed {
		t.Fatalf("error kind %q (%s), want %q", st.ErrorKind, st.Error, serve.ErrorKindShardFailed)
	}
	if !client.ShardFailed(st) {
		t.Fatal("client.ShardFailed must recognize the typed status")
	}
	if detect > 5*time.Second {
		t.Errorf("shard failure took %v to surface; the halo timeout is 300ms", detect)
	}

	sc.drainAssert(baseline)
	if sc.heal != nil {
		sc.heal()
	}

	// The typed error's contract: the same config resubmitted unsharded
	// must succeed. Bound the iteration count so the retry finishes.
	retry := cfg
	retry.Iterations = 30
	st, err = c.Submit(ctx, retry, false)
	if err != nil {
		t.Fatalf("unsharded resubmit: %v", err)
	}
	if !st.State.Terminal() {
		wctx, cancel := context.WithTimeout(ctx, 30*time.Second)
		st, err = c.Wait(wctx, st.ID)
		cancel()
		if err != nil {
			t.Fatalf("unsharded resubmit never finished: %v", err)
		}
	}
	if st.State != serve.JobDone || st.Result == nil {
		t.Fatalf("unsharded resubmit ended %s: %s", st.State, st.Error)
	}
}

// TestShardChaosKillNode: a shard node dies mid-job (server closed,
// network cut, loops stopped).
func TestShardChaosKillNode(t *testing.T) {
	runShardChaos(t, func(sc *shardChaosCluster, owner int) {
		sc.kill((owner + 1) % 3) // any non-coordinator shard rank
	})
}

// TestShardChaosNeighborPartition: both shard nodes stay alive but the
// network between two of them is cut — halo sends between those ranks
// fail, and nothing may hang.
func TestShardChaosNeighborPartition(t *testing.T) {
	runShardChaos(t, func(sc *shardChaosCluster, owner int) {
		sc.partition((owner+1)%3, (owner+2)%3)
	})
}

// TestShardChaosSilentNeighbor: the coordinator's requests to one shard
// node are held, so that peer neither answers nor refuses. A halo send
// to it must fail the job within the halo timeout as a refused one does,
// not wait out the hold.
func TestShardChaosSilentNeighbor(t *testing.T) {
	runShardChaos(t, func(sc *shardChaosCluster, owner int) {
		held := sc.hosts[(owner+1)%3]
		sc.chaos[owner].Delay(held, 20*time.Second)
		sc.heal = func() { sc.chaos[owner].Delay(held, 0) }
	})
}
