package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"time"

	"easypap/internal/core"
	"easypap/internal/gfx"
	"easypap/internal/img2d"
	"easypap/internal/sched"
	"easypap/internal/serve"
)

// snap is the state of the deployment and the process at one instant;
// per-layer counts are differences of two snaps around the phase.
type snap struct {
	stats   []serve.Stats
	proxied int64
	stages  map[string][2]float64
	gcPause time.Duration
	cpu     []uint64 // the /proc/stat "cpu" line
	cpuRef  time.Duration
}

func sample(dp *deployment) snap {
	s := snap{stages: dp.stageSums(), cpu: procStat(), cpuRef: cpuRef()}
	for _, d := range dp.daemons {
		s.stats = append(s.stats, d.mgr.Stats())
		if d.node != nil {
			s.proxied += d.node.Stats().Cluster.JobsProxied
		}
	}
	var gc debug.GCStats
	debug.ReadGCStats(&gc)
	s.gcPause = gc.PauseTotal
	return s
}

// delta sums one Stats counter's change over every daemon.
func delta(a, b snap, f func(serve.Stats) int64) int64 {
	var n int64
	for i := range a.stats {
		n += f(b.stats[i]) - f(a.stats[i])
	}
	return n
}

// stageMS is the mean duration of one easypapd_stage_ns stage during the
// phase, over every daemon, from the histograms' _sum and _count.
func stageMS(a, b snap, stage string) float64 {
	var sum, count float64
	for k, v := range b.stages {
		if strings.HasSuffix(k, "."+stage) {
			sum += v[0] - a.stages[k][0]
			count += v[1] - a.stages[k][1]
		}
	}
	if count == 0 {
		return 0
	}
	return sum / count / 1e6
}

func procStat() []uint64 {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return nil
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return nil
	}
	var out []uint64
	for _, field := range strings.Fields(sc.Text())[1:] {
		v, _ := strconv.ParseUint(field, 10, 64)
		out = append(out, v)
	}
	return out
}

// cpuRef times a fixed workload on both vCPUs at once, SHA-256 over
// 8 MiB in each of two goroutines, best of three. It tracks the host's
// capacity: on a shared box a neighbour can take a whole vCPU for
// minutes without any steal time showing.
func cpuRef() time.Duration {
	buf := make([]byte, 8<<20)
	var best time.Duration
	for i := 0; i < 3; i++ {
		var wg sync.WaitGroup
		t := time.Now()
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sha256.Sum256(buf)
			}()
		}
		wg.Wait()
		if d := time.Since(t); i == 0 || d < best {
			best = d
		}
	}
	return best
}

// diag holds the per-run diagnostics that explain a noisy run; they
// never filter runs.
type diag struct {
	steal, gcPauseMS, heapPeakMB, cpuRefMS float64
}

func diagnostics(a, b snap, heapPeak uint64) diag {
	d := diag{gcPauseMS: ms(b.gcPause - a.gcPause), heapPeakMB: float64(heapPeak) / (1 << 20),
		cpuRefMS: ms(a.cpuRef+b.cpuRef) / 2}
	if len(a.cpu) > 7 && len(b.cpu) > 7 {
		var total uint64
		for i := range b.cpu {
			total += b.cpu[i] - a.cpu[i]
		}
		if total > 0 {
			d.steal = float64(b.cpu[7]-a.cpu[7]) / float64(total)
		}
	}
	return d
}

// heapSampler tracks the peak live heap while the phase runs.
type heapSampler struct {
	stopc chan struct{}
	peak  chan uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{}), peak: make(chan uint64)}
	go func() {
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		var peak uint64
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			if s[0].Value.Kind() == metrics.KindUint64 {
				peak = max(peak, s[0].Value.Uint64())
			}
			select {
			case <-h.stopc:
				h.peak <- peak
				return
			case <-t.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) stop() uint64 {
	close(h.stopc)
	return <-h.peak
}

// resetPeakRSS restarts the kernel's peak resident set (VmHWM) count
// from the current resident set.
func resetPeakRSS() {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: cannot reset the peak resident set:", err)
	}
}

// peakRSSMB is the process's peak resident set (VmHWM) since the last
// resetPeakRSS.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, _ := strconv.ParseFloat(f[1], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// opSpans builds one traced op's span tree from the client timeline and
// the server's handler spans: the op's root span, the client's calls
// under it, and the handler (entry node, then owner node) under the
// submit.
func opSpans(r *result, handlers map[string][]span) []span {
	ns := func(t time.Time) int64 { return t.UnixNano() }
	root := span{Name: "op", Trace: r.Trace, Start: ns(r.Start), End: ns(r.Start.Add(r.Latency))}
	out := []span{root,
		{Name: "client.submit", Trace: r.Trace, Parent: "op", Start: ns(r.Start), End: ns(r.Start.Add(r.SubmitRT))}}
	if r.Op.Class == clsFrames {
		out = append(out, span{Name: "client.frames", Trace: r.Trace, Parent: "op", Start: out[1].End, End: root.End})
	} else if !r.WaitStart.IsZero() {
		out = append(out,
			span{Name: "serve.wait", Trace: r.Trace, Parent: "op", Start: ns(r.WaitStart), End: ns(r.ResultStart)},
			span{Name: "client.result", Trace: r.Trace, Parent: "op", Start: ns(r.ResultStart), End: ns(r.ResultStart.Add(r.ResultRT))})
	}
	for _, h := range handlers[r.Trace] {
		h.Parent = "client.submit"
		if h.Name == "serve.handler.owner" {
			h.Parent = "serve.handler"
		}
		out = append(out, h)
	}
	return out
}

// selfTimes returns each span's self time: its interval, clipped to its
// parent's, minus the part its children cover. Siblings do not overlap,
// so the self times of a tree sum to the root's duration; the root's own
// self time is the residual no span explains.
func selfTimes(spans []span) map[string]int64 {
	byName := map[string]span{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	clipped := map[string]span{}
	var clip func(name string) span
	clip = func(name string) span {
		if c, ok := clipped[name]; ok {
			return c
		}
		s := byName[name]
		if p, ok := byName[s.Parent]; ok && s.Parent != "" {
			pc := clip(p.Name)
			s.Start = min(max(s.Start, pc.Start), pc.End)
			s.End = max(min(s.End, pc.End), s.Start)
		}
		clipped[name] = s
		return s
	}
	self := map[string]int64{}
	for _, s := range spans {
		c := clip(s.Name)
		self[s.Name] += c.End - c.Start
		if s.Parent != "" {
			self[s.Parent] -= c.End - c.Start
		}
	}
	return self
}

// layerOf maps a span to the layer its self time is charged to.
var layerOf = map[string]string{
	"op":                  "bench.residual",
	"client.submit":       "client",
	"client.result":       "client",
	"client.frames":       "client",
	"serve.handler":       "serve",
	"serve.handler.owner": "cluster",
	"serve.wait":          "serve.wait",
}

// writeSpans writes every traced op's spans at exit.
func writeSpans(b *bench, results []result) error {
	handlers := handlerSpans(b.spans)
	var all []span
	for i := range results {
		if results[i].traced() {
			all = append(all, opSpans(&results[i], handlers)...)
		}
	}
	path := filepath.Join(filepath.Dir(b.work), fmt.Sprintf("spans-%s-seed%d.json", b.p.Workload, b.seed))
	data, err := json.Marshal(all)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func handlerSpans(l *spanLog) map[string][]span {
	out := map[string][]span{}
	for _, s := range l.all() {
		out[s.Trace] = append(out[s.Trace], s)
	}
	return out
}

// layerMetrics fills the per-layer metrics of a traced run.
func layerMetrics(ctx context.Context, m map[string]metric, b *bench, dp *deployment, results, frameRes []result,
	refs map[string]*ref, before, after snap, dg diag, poll []float64) {
	put := func(name, unit string, v float64) { m[name] = metric{v, unit} }
	handlers := handlerSpans(b.spans)

	// client and serve, from the traced ops' spans.
	var submit, fetch, body, handler, proxy []float64
	selfSum := map[string]int64{}
	var latSum int64
	for i := range results {
		r := &results[i]
		if !r.traced() || r.Err != "" {
			continue
		}
		submit = append(submit, ms(r.SubmitRT))
		if r.ResultRT > 0 {
			fetch = append(fetch, ms(r.ResultRT))
		}
		body = append(body, float64(r.BodyBytes)/1024)
		var entry, owner int64
		for _, h := range handlers[r.Trace] {
			if h.Name == "serve.handler" {
				entry = h.End - h.Start
			} else {
				owner = h.End - h.Start
			}
		}
		if entry > 0 {
			handler = append(handler, float64(entry)/1e6)
		}
		if owner > 0 {
			proxy = append(proxy, float64(entry-owner)/1e6)
		}
		for name, d := range selfTimes(opSpans(r, handlers)) {
			selfSum[layerOf[name]] += d
		}
		latSum += r.Latency.Nanoseconds()
	}
	share := func(layer string) float64 {
		if latSum == 0 {
			return 0
		}
		return float64(selfSum[layer]) / float64(latSum)
	}
	put("client.submit_ms", "ms", median(submit))
	put("client.result_ms", "ms", median(fetch))
	put("client.result_kb", "KB", median(body))
	put("client.poll_wait_ms", "ms", median(poll))
	put("client.self_share", "share", share("client"))
	put("serve.handler_ms", "ms", median(handler))
	put("serve.self_share", "share", share("serve"))
	put("serve.wait_share", "share", share("serve.wait"))
	put("cluster.self_share", "share", share("cluster"))
	put("bench.residual_share", "share", share("bench.residual"))
	put("bench.trace_overhead", "ratio", traceOverhead(results))

	put("serve.admit_ms", "ms", stageMS(before, after, serve.StageAdmit))
	put("serve.cache_mem_ms", "ms", stageMS(before, after, serve.StageCacheMem))

	// Jobs that computed: status fields and results.
	var queue, overhead, compute []float64
	var cells, wall = map[string]float64{}, map[string]float64{}
	var seqWall, parWall float64
	var active, total, computedIters int64
	var mpiSent, mpiSkipped, mpiBytes, shardSent, shardSkipped int64
	computes := map[string]int{}
	for i := range results {
		r := &results[i]
		st := r.Status
		if st == nil || st.Result == nil || st.Cached {
			continue
		}
		res := st.Result
		computes[st.Hash]++
		queue = append(queue, float64(st.QueuedNS)/1e6)
		overhead = append(overhead, float64(st.RanNS-res.WallTime.Nanoseconds())/1e6)
		compute = append(compute, ms(res.WallTime))
		n := res.Iterations - res.ResumedFrom
		computedIters += int64(n)
		// Frames jobs render every iteration: their wall time is not
		// kernel time.
		if r.Op.Class != clsFrames {
			cells[res.Config.Kernel] += float64(res.Config.Dim*res.Config.Dim) * float64(n)
			wall[res.Config.Kernel] += res.WallTime.Seconds()
			if rf := refs[refKey(*r.Op.Cfg)]; rf != nil && rf.Err == nil && res.Config.Variant != "seq" && res.ResumedFrom == 0 {
				seqWall += rf.Wall.Seconds()
				parWall += res.WallTime.Seconds()
			}
		}
		for _, a := range res.Activity {
			active += int64(a.Active)
			total += int64(a.Total)
		}
		if r.Op.Class == clsShard {
			shardSent += res.HalosSent
			shardSkipped += res.HalosSkipped
		} else {
			mpiSent += res.HalosSent
			mpiSkipped += res.HalosSkipped
			mpiBytes += res.HaloBytes
		}
	}
	dups := 0
	for _, n := range computes {
		if n > 1 {
			dups++
		}
	}
	put("serve.queue_ms", "ms", median(queue))
	put("serve.run_overhead_ms", "ms", median(overhead))
	put("serve.hits_mem", "count", float64(delta(before, after, func(s serve.Stats) int64 { return s.CacheHits })))
	put("serve.hits_disk", "count", float64(delta(before, after, func(s serve.Stats) int64 { return s.DiskHits })))
	put("serve.resumed", "count", float64(delta(before, after, func(s serve.Stats) int64 { return s.SnapshotsResumed })))
	put("serve.computed", "count", float64(delta(before, after, func(s serve.Stats) int64 { return s.Computed })))
	put("serve.dup_computes", "count", float64(dups))
	put("serve.computed_iters", "count", float64(computedIters))
	put("serve.pool_cold_leases", "count", float64(delta(before, after, func(s serve.Stats) int64 { return s.PoolColdLeases })))
	put("serve.frames_resynced", "count", float64(delta(before, after, func(s serve.Stats) int64 { return s.FrameDroppedToKey })))

	put("store.open_ms", "ms", ms(dp.daemons[0].openDur))
	put("store.disk_get_ms", "ms", stageMS(before, after, serve.StageCacheDisk))
	put("store.spill_ms", "ms", stageMS(before, after, serve.StageSpill))
	put("store.snapshot_ms", "ms", stageMS(before, after, serve.StageSnapshot))
	put("store.resume_ms", "ms", stageMS(before, after, serve.StageResume))
	put("store.spill_drops", "count", float64(delta(before, after, func(s serve.Stats) int64 { return s.SpillDropped })))

	put("core.compute_ms", "ms", median(compute))
	for _, f := range families {
		v := 0.0
		if wall[f.kernel] > 0 {
			v = cells[f.kernel] / wall[f.kernel] / 1e6
		}
		put("kernels."+f.kernel+".mcells_per_s", "Mcell/s", v)
	}
	speedup := 0.0
	if parWall > 0 {
		speedup = seqWall / parWall
	}
	put("kernels.seq_speedup", "ratio", speedup)
	ratio := 0.0
	if total > 0 {
		ratio = float64(active) / float64(total)
	}
	put("tilegrid.active_ratio", "ratio", ratio)
	put("mpi.halos_sent", "count", float64(mpiSent))
	put("mpi.halos_skipped", "count", float64(mpiSkipped))
	put("mpi.halo_kb", "KB", float64(mpiBytes)/1024)

	var recs, keys, fullRecs, jobs int
	for _, r := range frameRes {
		if r.Op.Class == clsFrames && r.Err == "" {
			recs += r.Delta.Records
			keys += r.Delta.Keyframes
			fullRecs += r.Full.Records
			jobs++
		}
	}
	keyShare, perJob := 0.0, 0.0
	if recs > 0 {
		keyShare = float64(keys) / float64(recs)
	}
	if jobs > 0 {
		perJob = float64(fullRecs) / float64(jobs)
	}
	put("gfx.keyframe_share", "share", keyShare)
	put("gfx.records_per_job", "count", perJob)

	rp := replays(ctx, append(append([]result(nil), results...), frameRes...))
	put("serve.frame_path_ms", "ms", median(rp.framePath))
	put("core.snapshot_tax", "ratio", median(rp.snapshotTax))
	put("gfx.png_encode_ms", "ms", median(rp.png))
	put("gfx.delta_encode_ms", "ms", median(rp.delta))
	put("sched.dispatch_us", "us", median(rp.dispatch))
	put("sched.dispatch_share", "share", median(rp.dispatchShare))

	put("cluster.proxy_ms", "ms", median(proxy))
	put("cluster.proxied", "count", float64(after.proxied-before.proxied))
	put("cluster.replicate_ms", "ms", stageMS(before, after, serve.StageReplicate))
	put("cluster.halo_ms", "ms", stageMS(before, after, serve.StageHalo))
	put("cluster.halos_sent", "count", float64(shardSent))
	put("cluster.halos_skipped", "count", float64(shardSkipped))

	put("runtime.gc_pause_ms", "ms", dg.gcPauseMS)
	put("runtime.heap_peak_mb", "MB", dg.heapPeakMB)
	put("host.steal_share", "share", dg.steal)
	put("host.cpu_ref_ms", "ms", dg.cpuRefMS)
}

// traceOverhead compares traced and untraced ops (every other op of a
// traced run is traced) of the same class and shape: the op-weighted
// mean over groups of mean(traced)/mean(untraced) - 1.
func traceOverhead(results []result) float64 {
	type sums struct {
		n   [2]int
		lat [2]float64
	}
	groups := map[string]*sums{}
	for _, r := range results {
		if r.Err != "" {
			continue
		}
		c := r.Op.Cfg
		key := fmt.Sprintf("%s %s/%s/%s %d %d", r.Op.Class, c.Kernel, c.Variant, c.Arg, c.Dim, c.Iterations)
		g := groups[key]
		if g == nil {
			g = &sums{}
			groups[key] = g
		}
		i := 0
		if r.traced() {
			i = 1
		}
		g.n[i]++
		g.lat[i] += ms(r.Latency)
	}
	var sum, weight float64
	for _, g := range groups {
		if g.n[0] < 2 || g.n[1] < 2 {
			continue
		}
		w := float64(g.n[0] + g.n[1])
		sum += w * ((g.lat[1]/float64(g.n[1]))/(g.lat[0]/float64(g.n[0])) - 1)
		weight += w
	}
	if weight == 0 {
		return 0
	}
	return sum / weight
}

// replayOut holds what the replays measured, one value per sampled
// config (per frame for the encoders).
type replayOut struct {
	framePath, snapshotTax, png, delta, dispatch, dispatchShare []float64
}

// replaySample picks up to six computed single-process configs, one per
// kernel first, in plan order; frames jobs (lazy kernels, which report
// dirty tiles for the delta encoder) come first when the run has any.
func replaySample(results []result) []result {
	var out []result
	seen := map[string]bool{}
	var frames, plain []result
	for _, r := range results {
		if r.Op.Class == clsFrames {
			frames = append(frames, r)
		} else {
			plain = append(plain, r)
		}
	}
	if len(frames) > 2 {
		frames = frames[:2]
	}
	results = append(frames, plain...)
	for pass := 0; pass < 2 && len(out) < 6; pass++ {
		for _, r := range results {
			st := r.Status
			if len(out) >= 6 || st == nil || st.Result == nil || st.Cached || st.Config.MPIRanks > 1 || seen[st.Hash] || (pass == 0 && seen[st.Config.Kernel]) {
				continue
			}
			seen[st.Hash], seen[st.Config.Kernel] = true, true
			out = append(out, r)
		}
	}
	return out
}

// replays re-runs sampled configs in-process after the phase: with a
// Null and a stream sink (frame path), with snapshots off and on
// (snapshot tax), through a capturing sink whose frames feed the gfx
// encoders, and as an empty dispatch on the job's grid and policy.
func replays(ctx context.Context, results []result) replayOut {
	var out replayOut
	for _, r := range replaySample(results) {
		cfg := r.Status.Config
		// Each replay keeps its fastest of three runs: the differences
		// taken below are small against one run's noise.
		wallOf := func(opts core.RunOptions) (time.Duration, int, bool) {
			var best time.Duration
			iters := 0
			for i := 0; i < 3; i++ {
				o, err := core.RunWith(ctx, cfg, opts)
				if err != nil {
					return 0, 0, false
				}
				if i == 0 || o.Result.WallTime < best {
					best = o.Result.WallTime
				}
				iters = o.Result.Iterations
			}
			return best, iters, true
		}
		null, frames, ok1 := wallOf(core.RunOptions{Sink: gfx.Null{}})
		stream, _, ok2 := wallOf(core.RunOptions{Sink: gfx.NewStreamSink(io.Discard)})
		if ok1 && ok2 && frames > 0 {
			out.framePath = append(out.framePath, ms(stream-null)/float64(frames))
		}
		if k, err := core.Lookup(cfg.Kernel); err == nil && k.Codec != nil && cfg.Iterations >= snapshotEvery {
			plain, _, ok1 := wallOf(core.RunOptions{})
			snapped, _, ok2 := wallOf(core.RunOptions{SnapshotEvery: snapshotEvery, OnSnapshot: func(int, []byte) {}})
			if ok1 && ok2 && plain > 0 {
				out.snapshotTax = append(out.snapshotTax, snapped.Seconds()/plain.Seconds()-1)
			}
		}
		capture := &captureSink{}
		if _, err := core.RunWith(ctx, cfg, core.RunOptions{Sink: capture}); err == nil {
			for _, f := range capture.frames {
				t := time.Now()
				var buf strings.Builder
				if err := f.img.EncodePNG(&buf); err == nil {
					out.png = append(out.png, ms(time.Since(t)))
				}
				if f.dirty != nil {
					t = time.Now()
					if _, err := gfx.EncodeDelta(f.img, f.dirty); err == nil {
						out.delta = append(out.delta, ms(time.Since(t)))
					}
				}
			}
		}
		if us, err := emptyDispatch(cfg); err == nil {
			out.dispatch = append(out.dispatch, us)
			if w := r.Status.Result.WallTime; w > 0 {
				out.dispatchShare = append(out.dispatchShare, us*1e3*float64(r.Status.Result.Iterations)/float64(w.Nanoseconds()))
			}
		}
	}
	return out
}

// emptyDispatch times an empty ParallelForTiles on the job's grid and
// policy with a warm pool of the job's thread count, in µs per call.
func emptyDispatch(cfg core.Config) (float64, error) {
	grid, err := sched.NewTileGrid(cfg.Dim, cfg.TileW, cfg.TileH)
	if err != nil {
		return 0, err
	}
	pool := sched.NewPool(cfg.Threads)
	defer pool.Close()
	body := func(x, y, w, h, worker int) {}
	for i := 0; i < 50; i++ {
		pool.ParallelForTiles(grid, cfg.Schedule, body)
	}
	const n = 400
	t := time.Now()
	for i := 0; i < n; i++ {
		pool.ParallelForTiles(grid, cfg.Schedule, body)
	}
	return float64(time.Since(t).Nanoseconds()) / n / 1e3, nil
}

// captureSink keeps a copy of the first frames of the main window and
// their dirty tile sets.
type captureSink struct {
	frames []captured
}

type captured struct {
	img   *img2d.Image
	dirty *gfx.TileSet
}

const captureFrames = 24

func (c *captureSink) Frame(window string, iter int, img *img2d.Image) error {
	return c.FrameDirty(window, iter, img, nil)
}

func (c *captureSink) FrameDirty(window string, _ int, img *img2d.Image, dirty *gfx.TileSet) error {
	if window != "main" || len(c.frames) >= captureFrames {
		return nil
	}
	var d *gfx.TileSet
	if dirty != nil {
		cp := *dirty
		cp.Tiles = append([]int32(nil), dirty.Tiles...)
		d = &cp
	}
	c.frames = append(c.frames, captured{img: img.Clone(), dirty: d})
	return nil
}

func (c *captureSink) Close() error { return nil }
