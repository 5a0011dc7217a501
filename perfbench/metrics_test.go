package main

import (
	"context"
	"encoding/json"
	"math/rand/v2"
	"os"
	"sort"
	"testing"
	"time"
)

type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func TestWorkloadsMatchBenchmarkFile(t *testing.T) {
	bf := readBenchmarkFile(t)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if len(names) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %v, the benchmark runs %v", names, workloadNames)
	}
	for i := range names {
		if names[i] != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, names[i], workloadNames[i])
		}
	}
}

// One short run in each mode prints exactly the metrics BENCHMARK.json
// declares, with the same units.
func TestPrintedMetricsMatchBenchmarkFile(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark")
	}
	bf := readBenchmarkFile(t)
	want := [2]map[string]string{{}, {}}
	for _, m := range bf.EndToEnd {
		want[0][m.Name] = m.Unit
	}
	for _, m := range bf.PerLayer {
		want[1][m.Name] = m.Unit
	}
	for mode := 0; mode < 2; mode++ {
		p, err := makePlan("warm_sweep", 3, 1)
		if err != nil {
			t.Fatal(err)
		}
		b := &bench{p: p, work: t.TempDir(), traced: mode == 1, seed: 3}
		rep, err := b.run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if rep.Attempted < 1 {
			t.Errorf("mode %d: attempted %d", mode, rep.Attempted)
		}
		for name, m := range rep.Metrics {
			if unit, ok := want[mode][name]; !ok {
				t.Errorf("mode %d prints %q, which BENCHMARK.json does not declare", mode, name)
			} else if unit != m.Unit {
				t.Errorf("mode %d: %q in %s, BENCHMARK.json says %s", mode, name, m.Unit, unit)
			}
		}
		for name := range want[mode] {
			if _, ok := rep.Metrics[name]; !ok {
				t.Errorf("mode %d does not print %q", mode, name)
			}
		}
	}
}

// Per op, the traced layers' self times plus the residual sum to the
// end-to-end latency, whatever the timings and however spans overrun
// their parents.
func TestSelfTimesSumToLatency(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	base := time.Unix(1000, 0)
	for i := 0; i < 2000; i++ {
		d := func(max int) time.Duration { return time.Duration(rng.IntN(max)) * time.Microsecond }
		r := result{Op: &op{Class: clsCompute}, timeline: &timeline{Trace: "pb-0-0", Start: base}}
		r.SubmitRT = d(500)
		cls := rng.IntN(3)
		switch cls {
		case 0: // cache hit: the POST answers
			r.Latency = r.SubmitRT + d(5)
		case 1: // computed: wait, then GET
			r.WaitStart = base.Add(r.SubmitRT + d(50))
			r.ResultStart = r.WaitStart.Add(d(20000))
			r.ResultRT = d(400)
			r.Latency = r.ResultStart.Add(r.ResultRT + d(30)).Sub(base)
		case 2: // frames
			r.Op = &op{Class: clsFrames}
			r.Latency = r.SubmitRT + d(90000)
		}
		// Server spans, sometimes overrunning the client's submit span.
		hStart := base.Add(d(100))
		h := span{Name: "serve.handler", Trace: r.Trace, Start: hStart.UnixNano(), End: hStart.Add(d(600)).UnixNano()}
		handlers := map[string][]span{r.Trace: {h}}
		if rng.IntN(2) == 0 {
			o := span{Name: "serve.handler.owner", Trace: r.Trace, Start: h.Start + int64(d(50)), End: h.End + int64(d(50)) - int64(d(100))}
			handlers[r.Trace] = append(handlers[r.Trace], o)
		}
		var sum int64
		for _, v := range selfTimes(opSpans(&r, handlers)) {
			sum += v
		}
		if sum != r.Latency.Nanoseconds() {
			t.Fatalf("case %d (kind %d): self times sum to %d ns, latency is %d ns", i, cls, sum, r.Latency.Nanoseconds())
		}
	}
}

func TestTailValue(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	rand.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	v, pct := tailValue(xs)
	if v != 90 || pct != 90 {
		t.Fatalf("tail of 1..100 = %v at p%v, want 90 at p90 (ten samples beyond it)", v, pct)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s) - sort.SearchFloat64s(s, v+0.5); n != 10 {
		t.Fatalf("%d samples beyond the tail value, want 10", n)
	}
}
