package trace

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func testMeta() Meta {
	return Meta{
		Kernel: "mandel", Variant: "omp_tiled", Dim: 512,
		TileW: 16, TileH: 16, Threads: 4, Ranks: 1,
		Iterations: 10, Schedule: "dynamic,2", Label: "unit",
	}
}

func makeTrace(n int, seed int64) *Trace {
	rng := rand.New(rand.NewSource(seed))
	meta := testMeta()
	events := make([]Event, n)
	for i := range events {
		start := rng.Int63n(1e9)
		events[i] = Event{
			Iter: int32(1 + rng.Intn(10)), CPU: int16(rng.Intn(4)),
			Rank: int16(rng.Intn(2)), Kind: EventKind(rng.Intn(3)),
			Start: start, End: start + rng.Int63n(1e6),
			X: int32(rng.Intn(512)), Y: int32(rng.Intn(512)), W: 16, H: 16,
			Work: rng.Int63n(1e5),
		}
	}
	return &Trace{Meta: meta, Events: events}
}

func TestBinaryRoundTrip(t *testing.T) {
	tr := makeTrace(500, 42)
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Meta != tr.Meta {
		t.Errorf("meta round trip: %+v != %+v", back.Meta, tr.Meta)
	}
	if !reflect.DeepEqual(back.Events, tr.Events) {
		t.Error("events altered by round trip")
	}
}

func TestQuickEventCodec(t *testing.T) {
	f := func(iter int32, cpu, rank int16, kind uint8, start, end int64, x, y, w, h int32, work int64) bool {
		e := Event{Iter: iter, CPU: cpu, Rank: rank, Kind: EventKind(kind % 3),
			Start: start, End: end, X: x, Y: y, W: w, H: h, Work: work}
		var rec [eventSize]byte
		encodeEvent(&rec, e)
		return decodeEvent(rec[:]) == e
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWorkStats(t *testing.T) {
	// Perfectly proportional work and duration -> correlation 1.
	events := []Event{
		{Start: 0, End: 1000, Work: 10},
		{Start: 0, End: 2000, Work: 20},
		{Start: 0, End: 3000, Work: 30},
		{Start: 0, End: 500, Work: 0}, // no counter: excluded
	}
	ws := Work(events)
	if ws.Count != 3 || ws.TotalWork != 60 {
		t.Errorf("stats = %+v", ws)
	}
	if ws.Correlation < 0.999 {
		t.Errorf("correlation = %v, want ~1", ws.Correlation)
	}
	if ws.MeanRate <= 0 {
		t.Errorf("rate = %v", ws.MeanRate)
	}
	if Work(nil).String() != "no counters" {
		t.Error("empty work stats string")
	}
	// Anti-correlated work/duration.
	anti := []Event{
		{Start: 0, End: 3000, Work: 10},
		{Start: 0, End: 2000, Work: 20},
		{Start: 0, End: 1000, Work: 30},
	}
	if ws := Work(anti); ws.Correlation > -0.999 {
		t.Errorf("anti correlation = %v, want ~-1", ws.Correlation)
	}
}

func TestSaveLoadFile(t *testing.T) {
	tr := makeTrace(100, 7)
	path := filepath.Join(t.TempDir(), "traces", "run.evt")
	if err := tr.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Events) != 100 {
		t.Errorf("loaded %d events", len(back.Events))
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	cases := map[string][]byte{
		"empty":       {},
		"bad magic":   []byte("NOPE after"),
		"truncated":   []byte("EZPT"),
		"bad version": append([]byte("EZPT"), 0xff, 0xff, 0, 0, 0, 0),
	}
	for name, data := range cases {
		if _, err := Read(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: Read accepted corrupt input", name)
		}
	}
}

func TestReadRejectsTruncatedEvents(t *testing.T) {
	tr := makeTrace(10, 3)
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if _, err := Read(bytes.NewReader(raw[:len(raw)-5])); err == nil {
		t.Error("Read accepted a truncated event section")
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "absent.evt")); err == nil {
		t.Error("Load of missing file succeeded")
	}
}

func TestWriteJSON(t *testing.T) {
	tr := makeTrace(3, 1)
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	if !strings.Contains(s, `"kernel": "mandel"`) || !strings.Contains(s, `"events"`) {
		t.Errorf("JSON export missing fields: %s", s[:min(len(s), 200)])
	}
}

func TestIterationQueries(t *testing.T) {
	tr := &Trace{Meta: testMeta(), Events: []Event{
		{Iter: 1, Start: 0, End: 10},
		{Iter: 2, Start: 10, End: 30},
		{Iter: 2, Start: 12, End: 25},
		{Iter: 5, Start: 40, End: 45},
	}}
	if tr.Iterations() != 5 {
		t.Errorf("Iterations = %d, want 5", tr.Iterations())
	}
	if n := len(tr.ForIter(2)); n != 2 {
		t.Errorf("ForIter(2) has %d events, want 2", n)
	}
	if n := len(tr.ForIterRange(1, 2)); n != 3 {
		t.Errorf("ForIterRange(1,2) has %d events, want 3", n)
	}
	if s, e := tr.IterSpan(2); s != 10 || e != 30 {
		t.Errorf("IterSpan(2) = (%d,%d), want (10,30)", s, e)
	}
	if s, e := tr.Span(); s != 0 || e != 45 {
		t.Errorf("Span = (%d,%d), want (0,45)", s, e)
	}
}

func TestEmptyTraceQueries(t *testing.T) {
	tr := &Trace{Meta: testMeta()}
	if tr.Iterations() != 0 {
		t.Error("Iterations of empty trace != 0")
	}
	if s, e := tr.Span(); s != 0 || e != 0 {
		t.Errorf("Span of empty trace = (%d,%d)", s, e)
	}
	if Durations(nil).Count != 0 {
		t.Error("Durations(nil) non-zero")
	}
	if Durations(nil).String() != "no events" {
		t.Error("empty stats string")
	}
}

func TestDurationStats(t *testing.T) {
	events := []Event{
		{Start: 0, End: 10}, {Start: 0, End: 20}, {Start: 0, End: 30},
		{Start: 0, End: 40}, {Start: 0, End: 100},
	}
	s := Durations(events)
	if s.Count != 5 || s.Min != 10 || s.Max != 100 || s.Mean != 40 || s.Median != 30 {
		t.Errorf("stats = %+v", s)
	}
	if s.Total != 200 {
		t.Errorf("total = %v", s.Total)
	}
}

func TestPerCPUBusyAndImbalance(t *testing.T) {
	meta := testMeta()
	meta.Threads = 2
	tr := &Trace{Meta: meta, Events: []Event{
		{Iter: 1, CPU: 0, Start: 0, End: 100},
		{Iter: 1, CPU: 1, Start: 0, End: 20},
		{Iter: 2, CPU: 0, Start: 200, End: 210},
	}}
	busy := tr.PerCPUBusy(1)
	if busy[0] != 100 || busy[1] != 20 {
		t.Errorf("busy = %v", busy)
	}
	// max=100, mean=(100+20)/2=60 -> imbalance 1.67
	got := tr.LoadImbalance(1)
	if got < 1.6 || got > 1.7 {
		t.Errorf("imbalance = %v, want ~1.67", got)
	}
	// Iteration where one CPU idles entirely.
	got = tr.LoadImbalance(2)
	if got != 2.0 { // max=10, mean=5
		t.Errorf("imbalance iter 2 = %v, want 2.0", got)
	}
}

func TestCompare(t *testing.T) {
	slow := &Trace{Meta: Meta{Kernel: "blur", Variant: "omp_tiled", Threads: 1}, Events: []Event{
		{Iter: 1, Start: 0, End: 300}, {Iter: 1, Start: 300, End: 600},
	}}
	fast := &Trace{Meta: Meta{Kernel: "blur", Variant: "omp_tiled_opt", Threads: 1}, Events: []Event{
		{Iter: 1, Start: 0, End: 100}, {Iter: 1, Start: 100, End: 200},
	}}
	res, err := Compare(slow, fast)
	if err != nil {
		t.Fatal(err)
	}
	if res.SpeedupAtoB != 3.0 {
		t.Errorf("speedup = %v, want 3.0", res.SpeedupAtoB)
	}
	if res.MedianTaskRatio != 3.0 {
		t.Errorf("median ratio = %v, want 3.0", res.MedianTaskRatio)
	}
	if !strings.Contains(res.String(), "speedup A->B: 3.00x") {
		t.Errorf("report: %s", res.String())
	}
	if _, err := Compare(slow, &Trace{}); err == nil {
		t.Error("Compare accepted an empty trace")
	}
}

func TestEventKindString(t *testing.T) {
	if KindTile.String() != "tile" || KindTask.String() != "task" || KindOther.String() != "other" {
		t.Error("kind names wrong")
	}
	if EventKind(9).String() != "kind(9)" {
		t.Error("unknown kind formatting")
	}
}

func BenchmarkRoundTrip10k(b *testing.B) {
	tr := makeTrace(10000, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := tr.Write(&buf); err != nil {
			b.Fatal(err)
		}
		if _, err := Read(&buf); err != nil {
			b.Fatal(err)
		}
	}
}
