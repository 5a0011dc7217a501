package monitor

// The monitor is a run's only tile recorder: these tests pin what a tile
// record carries for the EZPT trace exported from it (kind, work,
// rectangle, worker, iteration) and that lanes stay private per worker.

import (
	"sync"
	"testing"
	"time"

	"easypap/internal/trace"
)

func TestRecorderBasic(t *testing.T) {
	m := New(4, 512)
	m.StartIteration(1)
	m.StartTile(0)
	time.Sleep(time.Millisecond)
	m.EndTile(16, 32, 16, 16, 0)
	stats := m.EndIteration()
	if len(stats.Tiles) != 1 {
		t.Fatalf("got %d tiles, want 1", len(stats.Tiles))
	}
	r := stats.Tiles[0]
	if r.X != 16 || r.Y != 32 || r.W != 16 || r.H != 16 {
		t.Errorf("tile rect = (%d,%d,%d,%d)", r.X, r.Y, r.W, r.H)
	}
	if r.Worker != 0 || stats.Iter != 1 || r.Kind != trace.KindTile {
		t.Errorf("record = %+v in iteration %d", r, stats.Iter)
	}
	if r.Duration() < time.Millisecond {
		t.Errorf("duration %v too short", r.Duration())
	}
	if r.Start > r.End {
		t.Error("start after end")
	}
}

func TestRecorderUnmatchedEndIgnored(t *testing.T) {
	m := New(4, 512)
	m.StartIteration(1)
	m.StartTile(0)
	m.EndTile(0, 0, 8, 8, 2) // no StartTile on worker 2
	m.EndTile(0, 0, 16, 16, 0)
	m.EndTile(0, 0, 16, 16, 0) // worker 0's span is already closed
	stats := m.EndIteration()
	if len(stats.Tiles) != 1 || stats.Tiles[0].Worker != 0 || stats.Tiles[0].W != 16 {
		t.Errorf("unmatched EndTiles recorded %+v, want worker 0's one tile", stats.Tiles)
	}
}

func TestRecorderConcurrentLanes(t *testing.T) {
	const workers, perWorker = 8, 200
	m := New(workers, 512)
	m.StartIteration(1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				m.StartTile(w)
				m.AddWork(w, int64(w))
				m.EndTile(w*16, i, 16, 16, w)
			}
		}(w)
	}
	wg.Wait()
	stats := m.EndIteration()
	if len(stats.Tiles) != workers*perWorker {
		t.Fatalf("got %d tiles, want %d", len(stats.Tiles), workers*perWorker)
	}
	perLane := make(map[int]int)
	for _, r := range stats.Tiles {
		if r.X != r.Worker*16 || r.Work != int64(r.Worker) {
			t.Fatalf("record %+v crossed lanes", r)
		}
		perLane[r.Worker]++
	}
	if len(perLane) != workers {
		t.Errorf("%d lanes recorded, want %d", len(perLane), workers)
	}
}

func TestAddWorkAccumulates(t *testing.T) {
	m := New(1, 64)
	m.StartIteration(1)
	m.AddWork(0, 5) // no open span: ignored
	m.StartTile(0)
	m.AddWork(0, 100)
	m.AddWork(0, 23)
	m.EndTile(0, 0, 16, 16, 0)
	m.StartTile(0) // a new span starts from zero
	m.EndTile(16, 0, 16, 16, 0)
	stats := m.EndIteration()
	if stats.Tiles[0].Work != 123 || stats.Tiles[1].Work != 0 {
		t.Errorf("work = %d, %d, want 123, 0", stats.Tiles[0].Work, stats.Tiles[1].Work)
	}
}

func BenchmarkRecordTile(b *testing.B) {
	m := New(1, 512)
	m.StartIteration(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.StartTile(0)
		m.EndTile(0, 0, 16, 16, 0)
	}
}
