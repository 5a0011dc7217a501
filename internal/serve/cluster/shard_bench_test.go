package cluster_test

// Benchmarks behind EXPERIMENTS.md's distributed-execution row: what a
// distributed single-job run actually costs. Three questions, all
// answered with real sharded runs over in-process httptest daemons (so
// numbers isolate protocol + software overhead from physical network
// latency):
//
//   - halo step cost: mean ns per per-iteration halo exchange, read from
//     the easypapd_stage_ns{stage="halo"} histogram each node exports —
//     bit-packed life rows vs raw u32 fire rows,
//   - frontier skipping: halos_skipped/halos_sent for a sparse board vs
//     a dense one,
//   - 1-vs-N shards: wall time of the same job unsharded and split 2 and
//     3 ways (on one box N shards share the same cores, so this bounds
//     the protocol overhead a real multi-host win must amortize).

import (
	"bufio"
	"context"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"easypap/internal/core"
	"easypap/internal/serve"
	"easypap/internal/serve/client"
)

// haloHistogram scrapes easypapd_stage_ns{stage="halo"} sum and count
// from one node's /metrics endpoint.
func haloHistogram(tb testing.TB, url string) (sum, count float64) {
	tb.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		tb.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		var dst *float64
		switch {
		case strings.HasPrefix(line, `easypapd_stage_ns_sum{stage="halo"}`):
			dst = &sum
		case strings.HasPrefix(line, `easypapd_stage_ns_count{stage="halo"}`):
			dst = &count
		default:
			continue
		}
		fields := strings.Fields(line)
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			tb.Fatal(err)
		}
		*dst += v
	}
	return sum, count
}

// benchSharded submits b.N copies of cfg (seed-perturbed so the result
// cache never answers) with the given shard count and reports per-job
// wall time plus, when halos flowed, the mean ns per halo step. The
// halo histograms are sampled (first 16 steps per rank land spans; the
// histogram itself sees every step), so sum/count is the true mean.
func benchSharded(b *testing.B, cfg core.Config, shards int) {
	tc := startCluster(b, 3, serve.Options{Workers: 2, QueueDepth: 16})
	c := client.New(tc.urls[0])
	ctx := context.Background()

	var s0, c0 float64
	for _, u := range tc.urls {
		s, n := haloHistogram(b, u)
		s0, c0 = s0+s, c0+n
	}
	var halosSent, halosSkipped, haloBytes int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run := cfg
		run.Seed = int64(i)*31 + int64(shards) // fresh cache key per run
		st, err := c.SubmitShards(ctx, run, false, shards)
		if err != nil {
			b.Fatal(err)
		}
		if !st.State.Terminal() {
			if st, err = c.Wait(ctx, st.ID); err != nil {
				b.Fatal(err)
			}
		}
		if st.State != serve.JobDone || st.Result == nil {
			b.Fatalf("job ended %s: %s", st.State, st.Error)
		}
		halosSent += st.Result.HalosSent
		halosSkipped += st.Result.HalosSkipped
		haloBytes += st.Result.HaloBytes
	}
	b.StopTimer()
	var s1, c1 float64
	for _, u := range tc.urls {
		s, n := haloHistogram(b, u)
		s1, c1 = s1+s, c1+n
	}
	if steps := c1 - c0; steps > 0 {
		b.ReportMetric((s1-s0)/steps, "ns/halo")
		b.ReportMetric(float64(haloBytes)/float64(halosSent+1), "B/halo")
	}
	if halosSent+halosSkipped > 0 {
		b.ReportMetric(float64(halosSkipped)/float64(halosSent+halosSkipped), "skipped-frac")
	}
}

func distCfg(kernel, arg string, iters int) core.Config {
	return core.Config{
		Kernel: kernel, Variant: "mpi_omp", Dim: 128, TileW: 8, TileH: 8,
		Iterations: iters, Threads: 2, Arg: arg,
	}
}

// Halo step cost, bit-packed (life sends 1 bit/cell) vs raw (fire sends
// 4 B/cell), dense boards so every step really exchanges.
func BenchmarkDistHaloPackedLife(b *testing.B) { benchSharded(b, distCfg("life", "random", 50), 3) }
func BenchmarkDistHaloRawFire(b *testing.B)    { benchSharded(b, distCfg("fire", "forest", 50), 3) }

// Frontier skipping: sparse (one blinker) vs dense (random soup).
func BenchmarkDistSparseLife(b *testing.B) { benchSharded(b, distCfg("life", "blinker", 50), 3) }

// Same job, 1 / 2 / 3 shards. Shards=1 is the plain local run.
func BenchmarkDistShards1(b *testing.B) { benchSharded(b, distCfg("life", "random", 50), 1) }
func BenchmarkDistShards2(b *testing.B) { benchSharded(b, distCfg("life", "random", 50), 2) }
func BenchmarkDistShards3(b *testing.B) { benchSharded(b, distCfg("life", "random", 50), 3) }
