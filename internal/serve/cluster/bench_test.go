package cluster_test

// Routing-overhead benchmarks behind EXPERIMENTS.md's cluster-routing
// row: what one proxy hop costs a submission, and what a cluster-wide
// cache hit costs when it is served by the owner directly vs. through a
// non-owner node. All nodes are in-process (httptest), so the numbers
// isolate the software overhead — HTTP round-trip, routing decision,
// hop — from network latency.

import (
	"context"
	"testing"

	"easypap/internal/core"
	_ "easypap/internal/kernels"
	"easypap/internal/serve"
	"easypap/internal/serve/client"
	"easypap/internal/serve/cluster"
)

// benchTinyCfg is the near-free job (one scrollup iteration, 32x32) so
// the measured time is serving + routing overhead, not compute.
func benchTinyCfg(seed int64) core.Config {
	return core.Config{
		Kernel: "scrollup", Variant: "seq", Dim: 32, TileW: 16,
		Iterations: 1, Threads: 1, Seed: seed,
	}
}

// seedsOwnedBy collects n seeds whose tiny-job config routes to the
// given node (varying the seed varies the hash, so ownership hops
// around the ring; the benchmarks need it pinned).
func seedsOwnedBy(b *testing.B, tc *testCluster, nodeIdx int, n int) []int64 {
	b.Helper()
	ids := make([]string, len(tc.urls))
	for i, u := range tc.urls {
		ids[i] = cluster.NodeID(u)
	}
	ring := cluster.NewRing(ids, 0)
	want := ids[nodeIdx]
	seeds := make([]int64, 0, n)
	for s := int64(1); len(seeds) < n; s++ {
		_, _, key, err := cluster.RouteKey(benchTinyCfg(s), false)
		if err != nil {
			b.Fatal(err)
		}
		if ring.Owner(key) == want {
			seeds = append(seeds, s)
		}
	}
	return seeds
}

// benchSubmit drives b.N tiny jobs through the HTTP endpoint at
// submitIdx, each owned by ownerIdx, waiting in-process on the owner's
// manager (no poll latency in the measurement).
func benchSubmit(b *testing.B, nodes int, submitIdx, ownerIdx int) {
	tc := startCluster(b, nodes, serve.Options{Workers: 1, QueueDepth: 1 << 16, CacheCapacity: 1})
	seeds := seedsOwnedBy(b, tc, ownerIdx, b.N)
	cl := client.New(tc.urls[submitIdx])
	ctx := context.Background()
	ownerMgr := tc.mgrs[ownerIdx]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := cl.Submit(ctx, benchTinyCfg(seeds[i]), false)
		if err != nil {
			b.Fatal(err)
		}
		_, local, _ := cluster.SplitJobID(st.ID)
		if st, err = ownerMgr.Wait(ctx, local); err != nil || st.State != serve.JobDone {
			b.Fatalf("job ended %v: %v", st, err)
		}
	}
}

// BenchmarkClusterSubmit1Node: the single-node floor — one cluster node,
// submissions land on it directly (ring of one).
func BenchmarkClusterSubmit1Node(b *testing.B) { benchSubmit(b, 1, 0, 0) }

// BenchmarkClusterSubmit3NodeOwner: 3-node ring, submissions sent
// straight to their owner — the hash-aware client's path, no hop.
func BenchmarkClusterSubmit3NodeOwner(b *testing.B) { benchSubmit(b, 3, 0, 0) }

// BenchmarkClusterSubmit3NodeProxied: 3-node ring, submissions sent to
// a non-owner — one proxy hop to the owner. The delta against the
// Owner variant is the routing overhead per proxied job.
func BenchmarkClusterSubmit3NodeProxied(b *testing.B) { benchSubmit(b, 3, 1, 0) }

// benchCacheHit measures resubmission latency of an already-cached
// config through the HTTP endpoint at submitIdx.
func benchCacheHit(b *testing.B, nodes int, viaOwner bool) {
	tc := startCluster(b, nodes, serve.Options{Workers: 1, QueueDepth: 64})
	cfg := benchTinyCfg(12345)
	owner := tc.ownerIndex(cfg, false)
	submitIdx := owner
	if !viaOwner {
		submitIdx = (owner + 1) % nodes
	}
	ctx := context.Background()
	warm := client.New(tc.urls[owner])
	st, err := warm.Submit(ctx, cfg, false)
	if err != nil {
		b.Fatal(err)
	}
	_, local, _ := cluster.SplitJobID(st.ID)
	if _, err := tc.mgrs[owner].Wait(ctx, local); err != nil {
		b.Fatal(err)
	}
	cl := client.New(tc.urls[submitIdx])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := cl.Submit(ctx, cfg, false)
		if err != nil {
			b.Fatal(err)
		}
		if !st.Cached {
			b.Fatal("expected a cluster cache hit")
		}
	}
}

// BenchmarkClusterCacheHit1Node: cache-hit floor on a ring of one.
func BenchmarkClusterCacheHit1Node(b *testing.B) { benchCacheHit(b, 1, true) }

// BenchmarkClusterCacheHitOwner: 3-node ring, resubmission through the
// owning node — local cache, no hop.
func BenchmarkClusterCacheHitOwner(b *testing.B) { benchCacheHit(b, 3, true) }

// BenchmarkClusterCacheHitProxied: 3-node ring, resubmission through a
// non-owner — the cluster-wide cache-hit latency any node can offer.
func BenchmarkClusterCacheHitProxied(b *testing.B) { benchCacheHit(b, 3, false) }
