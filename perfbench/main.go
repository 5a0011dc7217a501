// Command perfbench is the repository's benchmark: it runs one named
// workload against an in-process easypapd served on loopback HTTP,
// checks every output against a seq reference, and prints one JSON
// line of metrics. See README.md for the workloads, the metrics and
// what is deliberately left unmeasured.
//
//	perfbench --workload cold_sweep --seed 1 --seconds 6 --trace 0
//
// Run it from the repository root (it works under .bench_build/);
// run.py builds it and passes the arguments through.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"time"

	_ "easypap/internal/kernels" // register the kernels the daemon serves
)

var processStart = time.Now()

// setups is how many times a run sets its workload up; setup_s is the
// median, and the last set-up serves the measured phase.
const setups = 3

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "", "workload name: cold_sweep, warm_sweep, live_frames or cluster_hop")
	seed := flag.Int64("seed", 1, "workload seed: fixes every generated input")
	seconds := flag.Int("seconds", 6, "length of the measured phase, which sizes the generated job list")
	traced := flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end ones")
	warm := flag.Bool("warm", false, "run a short throwaway warm-up process (after a fresh build) and exit")
	flag.Parse()

	work := filepath.Join(".bench_build", "perfbench", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(work)

	if *warm {
		if err := warmProcess(work); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: warm-up:", err)
			return 1
		}
		return 0
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	p, err := makePlan(*workload, *seed, *seconds)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	b := &bench{p: p, work: work, traced: *traced == 1, seed: *seed, seconds: *seconds,
		countsDir: filepath.Join(filepath.Dir(work), "counts")}
	out, err := b.run(context.Background())
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// metric is one printed value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one run of one workload.
type bench struct {
	p       *plan
	work    string
	traced  bool
	seed    int64
	seconds int
	// countsDir keeps the exact counts of earlier runs for repeatCheck;
	// "" skips that check.
	countsDir string
	spans     *spanLog
}

func (b *bench) run(ctx context.Context) (*report, error) {
	if b.traced {
		b.spans = &spanLog{}
	}
	var durs []float64
	var dp *deployment
	for i := 0; i < setups; i++ {
		d, dur, err := b.setup(ctx, i)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		durs = append(durs, dur.Seconds())
		if i < setups-1 {
			d.close()
			// Delete the discarded set-up's files before the next set-up
			// starts, so their write-back does not run under it.
			if err := os.RemoveAll(b.setupDir(i)); err != nil {
				return nil, err
			}
			continue
		}
		dp = d
	}
	defer dp.close()

	rn := newRunner(dp)
	defer rn.close()
	before := sample(dp)
	heap := startHeapSampler()
	// peak_rss_mb covers the measured phase only: it starts from a
	// collected heap with the set-ups' freed memory returned to the OS.
	debug.FreeOSMemory()
	resetPeakRSS()
	results, wall := rn.phase(ctx, b.p.Clients, b.traced)
	rssMB := peakRSSMB()
	heapPeak := heap.stop()
	after := sample(dp)

	// Workloads without frames jobs take the frame metrics from the
	// viewer probe, run after the phase once its writes have settled.
	frameRes, checked := results, [][]result{results}
	if len(b.p.Probe) > 0 {
		settle(dp, 10*time.Second)
		frameRes, _ = rn.phase(ctx, [2][]op{b.p.Probe, nil}, false)
		checked = append(checked, frameRes)
	}
	var poll []float64
	if b.traced {
		poll = pollProbe(ctx, rn, b.p)
	}

	refs := references(ctx, checked...)
	v := verify(refs, checked...)
	v.counts(b.p, before, after)
	if err := v.repeatCheck(b.countsDir, b.p, b.seed, b.seconds); err != nil {
		return nil, fmt.Errorf("comparing exact counts with earlier runs: %w", err)
	}
	v.print(b.p.Workload, b.seed)
	printClasses(results)

	diag := diagnostics(before, after, heapPeak)
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: setups %v s, phase %.3f s, %d ops; steal %.4f, gc pause %.3f ms, cpu ref %.3f ms\n",
		b.p.Workload, b.seed, durs, wall.Seconds(), len(results), diag.steal, diag.gcPauseMS, diag.cpuRefMS)

	rep := &report{Correct: v.correct(), Attempted: v.attempted, Failed: v.failed, Metrics: map[string]metric{}}
	if b.traced {
		layerMetrics(ctx, rep.Metrics, b, dp, results, frameRes, refs, before, after, diag, poll)
		if err := writeSpans(b, results); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
		}
	} else {
		endToEnd(rep.Metrics, durs, results, frameRes, wall, rssMB)
	}
	return rep, nil
}

// endToEnd fills the metrics a user of the service sees.
func endToEnd(m map[string]metric, setupDurs []float64, results, frameRes []result, wall time.Duration, rssMB float64) {
	lat := make([]float64, 0, len(results))
	for _, r := range results {
		lat = append(lat, ms(r.Latency))
	}
	tail, pct := tailValue(lat)
	fmt.Fprintf(os.Stderr, "perfbench: latency_tail_ms is p%.2f of %d samples\n", pct, len(lat))
	ff, gap, fullB, deltaB := frameMetrics(frameRes)
	m["setup_s"] = metric{median(setupDurs), "s"}
	m["jobs_per_s"] = metric{float64(len(results)) / wall.Seconds(), "1/s"}
	m["latency_p50_ms"] = metric{median(lat), "ms"}
	m["latency_tail_ms"] = metric{tail, "ms"}
	m["first_frame_ms"] = metric{ff, "ms"}
	m["frame_gap_ms"] = metric{gap, "ms"}
	m["full_bytes_per_frame"] = metric{fullB, "B"}
	m["delta_bytes_per_frame"] = metric{deltaB, "B"}
	m["peak_rss_mb"] = metric{rssMB, "MB"}
}

// printClasses writes, per planned class, the share of ops, the median
// latency, the share of the summed latency and the share of the ops at
// or below the overall median to standard error, so the mix behind every
// metric is visible.
func printClasses(results []result) {
	type agg struct {
		lat []float64
		sum float64
	}
	by := map[class]*agg{}
	var all []float64
	var total float64
	for _, r := range results {
		a := by[r.Op.Class]
		if a == nil {
			a = &agg{}
			by[r.Op.Class] = a
		}
		l := ms(r.Latency)
		a.lat = append(a.lat, l)
		a.sum += l
		all = append(all, l)
		total += l
	}
	p50 := median(all)
	for _, c := range sortedKeys(by) {
		a := by[c]
		below := 0
		for _, l := range a.lat {
			if l <= p50 {
				below++
			}
		}
		fmt.Fprintf(os.Stderr, "perfbench: class %s: %d ops (%.1f%%), p50 %.3f ms, %.1f%% of op time, %.1f%% of its ops at or below the overall p50\n",
			c, len(a.lat), 100*float64(len(a.lat))/float64(len(results)), median(a.lat), 100*a.sum/total, 100*float64(below)/float64(len(a.lat)))
	}
}

// frameMetrics summarizes the frames jobs among results: the time to the
// first full record (a mean over jobs without the fastest and slowest
// tenth), the mean gap between consecutive records at both viewers
// (streaming time ÷ gaps), and bytes per record of each format. Means,
// not medians: a mix of kernels puts every order statistic near the
// boundary between two kernels' values.
func frameMetrics(results []result) (first, gap, fullB, deltaB float64) {
	var firsts []float64
	var streaming time.Duration
	var gaps int
	var fb, db int64
	var fr, dr int
	for _, r := range results {
		if r.Op.Class != clsFrames || r.Err != "" {
			continue
		}
		firsts = append(firsts, ms(r.FirstFrame))
		for _, s := range []*stream{r.Full, r.Delta} {
			if n := len(s.Arrivals); n > 1 {
				streaming += s.Arrivals[n-1].Sub(s.Arrivals[0])
				gaps += n - 1
			}
		}
		fb += r.Full.Bytes
		db += r.Delta.Bytes
		fr += len(r.Full.Arrivals)
		dr += len(r.Delta.Arrivals)
	}
	if gaps > 0 {
		gap = ms(streaming) / float64(gaps)
	}
	if fr > 0 {
		fullB = float64(fb) / float64(fr)
	}
	if dr > 0 {
		deltaB = float64(db) / float64(dr)
	}
	return trimmedMean(firsts, 0.1), gap, fullB, deltaB
}

// trimmedMean is the mean of xs without the lowest and highest share of
// samples.
func trimmedMean(xs []float64, share float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(share * float64(len(s)))
	s = s[k : len(s)-k]
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// tailValue returns the highest-ranked sample that still has ten samples
// beyond it, and the percentile it sits at.
func tailValue(xs []float64) (float64, float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := max(0, len(s)-11)
	return s[k], 100 * float64(k+1) / float64(len(s))
}
