package monitor

import (
	"strings"
	"sync"
	"testing"
	"time"

	"easypap/internal/img2d"
	"easypap/internal/trace"
)

func TestMonitorBasicIteration(t *testing.T) {
	m := New(2, 64)
	m.StartIteration(1)
	m.StartTile(0)
	time.Sleep(2 * time.Millisecond)
	m.EndTile(0, 0, 32, 32, 0)
	stats := m.EndIteration()
	if stats.Iter != 1 {
		t.Errorf("Iter = %d", stats.Iter)
	}
	if len(stats.Tiles) != 1 {
		t.Fatalf("tiles = %d", len(stats.Tiles))
	}
	if stats.Loads[0] <= 0 || stats.Loads[0] > 1 {
		t.Errorf("load[0] = %v", stats.Loads[0])
	}
	if stats.Loads[1] != 0 {
		t.Errorf("idle worker has load %v", stats.Loads[1])
	}
	if stats.Idleness <= 0 || stats.Idleness >= 1 {
		t.Errorf("idleness = %v", stats.Idleness)
	}
}

func TestMonitorPanicsOnBadWorkers(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(0, ...) did not panic")
		}
	}()
	New(0, 64)
}

func TestMonitorConcurrentWorkers(t *testing.T) {
	const workers, tilesPer = 8, 50
	m := New(workers, 256)
	m.StartIteration(1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < tilesPer; i++ {
				m.StartTile(w)
				m.EndTile(w*32, i, 32, 32, w)
			}
		}(w)
	}
	wg.Wait()
	stats := m.EndIteration()
	if len(stats.Tiles) != workers*tilesPer {
		t.Errorf("tiles = %d, want %d", len(stats.Tiles), workers*tilesPer)
	}
	// Tiles must be sorted by start time, then CPU: the trace's order.
	for i := 1; i < len(stats.Tiles); i++ {
		a, b := stats.Tiles[i-1], stats.Tiles[i]
		if b.Start < a.Start || b.Start == a.Start && b.CPU < a.CPU {
			t.Fatalf("tiles %d and %d out of (start, CPU) order: %+v, %+v", i-1, i, a, b)
		}
	}
}

func TestMonitorUnmatchedEndTile(t *testing.T) {
	m := New(1, 64)
	m.StartIteration(1)
	m.EndTile(0, 0, 8, 8, 0)
	stats := m.EndIteration()
	if len(stats.Tiles) != 0 {
		t.Error("unmatched EndTile recorded a tile")
	}
}

func TestMonitorIterationReset(t *testing.T) {
	m := New(1, 64)
	for iter := 1; iter <= 3; iter++ {
		m.StartIteration(iter)
		m.StartTile(0)
		m.EndTile(0, 0, 8, 8, 0)
		stats := m.EndIteration()
		if len(stats.Tiles) != 1 {
			t.Errorf("iter %d: %d tiles, want 1 (lanes not reset?)", iter, len(stats.Tiles))
		}
	}
	if len(m.IdlenessHistory()) != 3 {
		t.Errorf("history length = %d", len(m.IdlenessHistory()))
	}
	if len(m.Iterations()) != 3 {
		t.Errorf("iterations = %d", len(m.Iterations()))
	}
}

func TestImbalanceMetric(t *testing.T) {
	perfect := IterStats{Loads: []float64{0.8, 0.8, 0.8, 0.8}}
	if got := perfect.Imbalance(); got != 1.0 {
		t.Errorf("balanced imbalance = %v", got)
	}
	skewed := IterStats{Loads: []float64{1.0, 0.2, 0.2, 0.2}}
	if got := skewed.Imbalance(); got < 2.0 {
		t.Errorf("skewed imbalance = %v, want >= 2", got)
	}
	if (IterStats{}).Imbalance() != 0 {
		t.Error("empty imbalance != 0")
	}
	if (IterStats{Loads: []float64{0, 0}}).Imbalance() != 0 {
		t.Error("all-zero imbalance != 0")
	}
}

func TestSetRankLabelsTiles(t *testing.T) {
	m := New(1, 64)
	m.SetRank(3)
	m.StartIteration(1)
	m.StartTile(0)
	m.EndTile(0, 0, 8, 8, 0)
	stats := m.EndIteration()
	if stats.Tiles[0].Rank != 3 {
		t.Errorf("rank = %d, want 3", stats.Tiles[0].Rank)
	}
}

// fabricated stats: 4x4 grid of 16px tiles over a 64px image.
func fabricate(owners [][]int) IterStats {
	var stats IterStats
	maxW := 0
	for ty, row := range owners {
		for tx, w := range row {
			if w < 0 {
				continue
			}
			if w > maxW {
				maxW = w
			}
			stats.Tiles = append(stats.Tiles, trace.Event{
				X: int32(tx * 16), Y: int32(ty * 16), W: 16, H: 16, CPU: int16(w),
				Start: int64(len(stats.Tiles)), End: int64(len(stats.Tiles)) + 100,
			})
		}
	}
	stats.Loads = make([]float64, maxW+1)
	return stats
}

func TestOwnerGridRoundTrip(t *testing.T) {
	owners := [][]int{
		{0, 0, 1, 1},
		{2, 2, 3, 3},
		{0, 1, 2, 3},
		{3, 3, -1, 0},
	}
	stats := fabricate(owners)
	grid := OwnerGrid(stats, 64, 4, 4, 4)
	for ty := range owners {
		for tx := range owners[ty] {
			if grid[ty][tx] != owners[ty][tx] {
				t.Errorf("grid[%d][%d] = %d, want %d", ty, tx, grid[ty][tx], owners[ty][tx])
			}
		}
	}
}

func TestHeatGrid(t *testing.T) {
	stats := IterStats{Tiles: []trace.Event{
		{X: 0, Y: 0, W: 16, H: 16, Start: 0, End: 500},
		{X: 16, Y: 0, W: 16, H: 16, Start: 0, End: 100},
	}}
	grid := HeatGrid(stats, 32, 2, 2)
	if grid[0][0] != 500 || grid[0][1] != 100 {
		t.Errorf("heat grid = %v", grid)
	}
	if grid[1][0] != 0 || grid[1][1] != 0 {
		t.Error("uncomputed tiles should be zero")
	}
}

func TestOwnerGridDegenerate(t *testing.T) {
	grid := OwnerGrid(IterStats{}, 4, 8, 8, 1) // tiles bigger than dim
	if len(grid) != 8 {
		t.Fatal("grid shape wrong")
	}
	for _, row := range grid {
		for _, w := range row {
			if w != -1 {
				t.Fatal("degenerate grid should be unowned")
			}
		}
	}
}

func TestContiguousBlocks(t *testing.T) {
	static := [][]int{
		{0, 0, 0, 0},
		{1, 1, 1, 1},
		{2, 2, 3, 3},
	}
	if !ContiguousBlocks(static) {
		t.Error("static pattern not recognized as contiguous")
	}
	scattered := [][]int{
		{0, 1, 0, 1},
		{2, 2, 3, 3},
		{0, 0, 1, 1},
	}
	if ContiguousBlocks(scattered) {
		t.Error("scattered pattern recognized as contiguous")
	}
	withHole := [][]int{{0, -1, 0}}
	if ContiguousBlocks(withHole) {
		t.Error("grid with holes cannot be contiguous")
	}
}

func TestRowRunsAndHistogram(t *testing.T) {
	grid := [][]int{
		{0, 0, 0, 1, 1, 2},
		{3, 3, 3, 3, 3, 3},
		{0, -1, 0, 0, 1, 1},
	}
	runs := RowRuns(grid)
	want := [][]int{{3, 2, 1}, {6}, {1, 2, 2}}
	for y := range want {
		if len(runs[y]) != len(want[y]) {
			t.Fatalf("row %d runs = %v, want %v", y, runs[y], want[y])
		}
		for i := range want[y] {
			if runs[y][i] != want[y][i] {
				t.Fatalf("row %d runs = %v, want %v", y, runs[y], want[y])
			}
		}
	}
	hist := RunLengthHistogram(grid)
	if hist[1] != 2 || hist[2] != 3 || hist[3] != 1 || hist[6] != 1 {
		t.Errorf("histogram = %v", hist)
	}
}

func TestStripeRows(t *testing.T) {
	grid := [][]int{
		{0, 0, 0, 0, 0, 0},  // single color stripe
		{1, 2, 1, 2, 1, 2},  // two-color alternation: still a stripe
		{0, 1, 2, 3, 0, 1},  // four colors: not a stripe
		{0, 0, -1, 0, 0, 0}, // hole: not counted
		{3, 3, 3, 3, 1, 1},  // two colors: stripe
	}
	rows := StripeRows(grid)
	want := []int{0, 1, 4}
	if len(rows) != len(want) {
		t.Fatalf("stripe rows = %v, want %v", rows, want)
	}
	for i := range want {
		if rows[i] != want[i] {
			t.Fatalf("stripe rows = %v, want %v", rows, want)
		}
	}
}

func TestCyclicScore(t *testing.T) {
	cyclic := [][]int{
		{0, 1, 2, 3, 0, 1, 2, 3},
		{1, 2, 3, 0, 1, 2, 3, 0},
	}
	if s := CyclicScore(cyclic, 0, 2); s != 1.0 {
		t.Errorf("perfect cyclic score = %v", s)
	}
	striped := [][]int{
		{0, 0, 0, 0, 0, 0, 0, 0},
		{1, 1, 1, 1, 1, 1, 1, 1},
	}
	if s := CyclicScore(striped, 0, 2); s != 0.0 {
		t.Errorf("striped score = %v", s)
	}
	if s := CyclicScore(nil, 0, 5); s != 0 {
		t.Errorf("empty score = %v", s)
	}
}

func TestTilingImageColorsByWorker(t *testing.T) {
	stats := fabricate([][]int{
		{0, 0, 1, 1},
		{0, 0, 1, 1},
		{2, 2, 3, 3},
		{2, 2, 3, 3},
	})
	im := TilingImage(stats, 64, 128)
	if im.Dim() != 128 {
		t.Fatalf("window size %d", im.Dim())
	}
	// Sample the center of tile (0,0): worker 0's color.
	if got := im.Get(16, 16); got != img2d.CPUColor(0) {
		t.Errorf("tile(0,0) center = %#x, want worker 0 color %#x", got, img2d.CPUColor(0))
	}
	// Center of tile (3,3): worker 3's color.
	if got := im.Get(112, 112); got != img2d.CPUColor(3) {
		t.Errorf("tile(3,3) center = %#x, want %#x", got, img2d.CPUColor(3))
	}
}

func TestHeatImageBrightness(t *testing.T) {
	stats := IterStats{Tiles: []trace.Event{
		{X: 0, Y: 0, W: 32, H: 32, Start: 0, End: 1000}, // hottest
		{X: 32, Y: 32, W: 32, H: 32, Start: 0, End: 10}, // cold
	}, Loads: []float64{1}}
	im := HeatImage(stats, 64, 64)
	hot := img2d.Brightness(im.Get(8, 8))
	cold := img2d.Brightness(im.Get(48, 48))
	if hot <= cold {
		t.Errorf("hot tile brightness %d <= cold %d", hot, cold)
	}
}

func TestActivityImage(t *testing.T) {
	stats := IterStats{Loads: []float64{1.0, 0.1}}
	im := ActivityImage(stats, []float64{0.2, 0.5, 0.8}, 128)
	if im.Dim() != 128 {
		t.Fatal("bad size")
	}
	// The fully loaded CPU's bar reaches near the top of the bar area;
	// sample inside bar 0 near the top.
	topSample := im.Get(8, 4)
	if topSample == img2d.RGB(35, 35, 40) || topSample == img2d.RGB(20, 20, 24) {
		t.Error("full bar not drawn to the top")
	}
	// Idle CPU's bar area near the top must still be background.
	if got := im.Get(8, 64+4); got != img2d.RGB(35, 35, 40) {
		t.Errorf("idle bar top = %#x, want background", got)
	}
	// No history -> still renders.
	im2 := ActivityImage(stats, nil, 64)
	if im2.Dim() != 64 {
		t.Error("render without history failed")
	}
	// Zero CPUs -> no panic.
	im3 := ActivityImage(IterStats{}, nil, 32)
	if im3.Dim() != 32 {
		t.Error("render with no CPUs failed")
	}
}

func TestASCIIReport(t *testing.T) {
	stats := IterStats{Iter: 4, Duration: time.Millisecond, Loads: []float64{0.5, 1.0}}
	s := ASCIIReport(stats)
	if !strings.Contains(s, "iteration 4") || !strings.Contains(s, "CPU  0") {
		t.Errorf("report: %s", s)
	}
	if !strings.Contains(s, "50.0%") || !strings.Contains(s, "100.0%") {
		t.Errorf("report loads: %s", s)
	}
}
