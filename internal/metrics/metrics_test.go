package metrics

import (
	"math/bits"
	"strings"
	"sync"
	"testing"
)

func render(r *Registry) string {
	var b strings.Builder
	r.WritePrometheus(&b)
	return b.String()
}

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("jobs_total", "Jobs.", Labels{"kind": "sweep"})
	g := r.Gauge("queue_depth", "Depth.", nil)
	c.Inc()
	c.Add(2)
	g.Set(7)
	g.Add(-3)
	if c.Value() != 3 {
		t.Fatalf("counter = %d, want 3", c.Value())
	}
	if g.Value() != 4 {
		t.Fatalf("gauge = %d, want 4", g.Value())
	}
	out := render(r)
	for _, want := range []string{
		"# HELP jobs_total Jobs.",
		"# TYPE jobs_total counter",
		`jobs_total{kind="sweep"} 3`,
		"# TYPE queue_depth gauge",
		"queue_depth 4",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestSampledFuncs(t *testing.T) {
	r := NewRegistry()
	n := uint64(0)
	r.CounterFunc("sampled_total", "Sampled.", nil, func() uint64 { return n })
	r.GaugeFunc("sampled_gauge", "Sampled.", Labels{"x": "y"}, func() float64 { return 1.5 })
	n = 42
	out := render(r)
	if !strings.Contains(out, "sampled_total 42") {
		t.Errorf("CounterFunc not sampled at scrape:\n%s", out)
	}
	if !strings.Contains(out, `sampled_gauge{x="y"} 1.5`) {
		t.Errorf("GaugeFunc missing:\n%s", out)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.HistogramExp("lat_ns", "Latency.", nil, 8, 12) // bounds 256..4096 + Inf
	// One observation per decisive region.
	h.Observe(0)    // < 256
	h.Observe(255)  // < 256
	h.Observe(256)  // < 512
	h.Observe(5000) // +Inf
	if h.Count() != 4 {
		t.Fatalf("count = %d, want 4", h.Count())
	}
	if h.Sum() != 0+255+256+5000 {
		t.Fatalf("sum = %d", h.Sum())
	}
	out := render(r)
	for _, want := range []string{
		`lat_ns_bucket{le="256"} 2`,
		`lat_ns_bucket{le="512"} 3`,
		`lat_ns_bucket{le="1024"} 3`,
		`lat_ns_bucket{le="4096"} 3`,
		`lat_ns_bucket{le="+Inf"} 4`,
		"lat_ns_sum 5511",
		"lat_ns_count 4",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestHistogramBucketInvariant pins the bucket-selection rule: every
// observation v lands in the first bucket whose bound exceeds it —
// v < 1<<(minExp+i) — so cumulative counts are honest "le" semantics.
func TestHistogramBucketInvariant(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_ns", "Latency.", nil)
	for _, v := range []int64{0, 1, 255, 256, 257, 1023, 1 << 20, 1<<34 + 1, 1 << 40} {
		h.Observe(v)
		idx := bits.Len64(uint64(v)) - h.minExp
		if idx < 0 {
			idx = 0
		}
		if idx >= len(h.buckets) {
			idx = len(h.buckets) - 1
		}
		if idx < len(h.buckets)-1 {
			bound := int64(1) << (h.minExp + idx)
			if v >= bound {
				t.Errorf("v=%d filed under bound %d (le violated)", v, bound)
			}
		}
	}
	if h.Count() != 9 {
		t.Fatalf("count = %d, want 9", h.Count())
	}
}

func TestHistogramLabeledFamilies(t *testing.T) {
	r := NewRegistry()
	a := r.Histogram("stage_ns", "Stage latency.", Labels{"stage": "compute"})
	b := r.Histogram("stage_ns", "Stage latency.", Labels{"stage": "queue"})
	a.Observe(1000)
	b.Observe(2000)
	out := render(r)
	if n := strings.Count(out, "# TYPE stage_ns histogram"); n != 1 {
		t.Errorf("family TYPE line appears %d times, want 1:\n%s", n, out)
	}
	if !strings.Contains(out, `stage_ns_count{stage="compute"} 1`) ||
		!strings.Contains(out, `stage_ns_count{stage="queue"} 1`) {
		t.Errorf("labeled histograms not rendered independently:\n%s", out)
	}
}

func TestConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_ns", "Latency.", nil)
	c := r.Counter("n_total", "N.", nil)
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(int64(w*1000 + i))
				c.Inc()
			}
		}(w)
	}
	wg.Wait()
	if h.Count() != workers*per {
		t.Fatalf("histogram lost observations: %d != %d", h.Count(), workers*per)
	}
	if c.Value() != workers*per {
		t.Fatalf("counter lost increments: %d != %d", c.Value(), workers*per)
	}
}

// BenchmarkHistogramObserve pins the hot-path cost of one observation —
// the number the "~ns on the dispatch hot path" claim rests on
// (EXPERIMENTS.md's observability-overhead row).
func BenchmarkHistogramObserve(b *testing.B) {
	r := NewRegistry()
	h := r.Histogram("lat_ns", "Latency.", nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i))
	}
}

// BenchmarkCounterInc is the counter twin.
func BenchmarkCounterInc(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("n_total", "N.", nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}
