// Package monitor implements EASYPAP's real-time monitoring facilities
// (paper §II-B): the per-CPU Activity Monitor and the Tiling window that
// shows how tiles were assigned to threads at each iteration, including the
// "heat map" mode where tile brightness reflects task duration (Fig. 9).
//
// Kernels bracket their tile computations with StartTile/EndTile — the
// analogue of monitoring_start_tile / monitoring_end_tile — and the run
// loop brackets iterations with StartIteration/EndIteration. The recording
// path is wait-free per worker (one lane per thread); EndIteration merges
// lanes into an IterStats snapshot that the window renderers (window.go)
// and the figure benchmarks consume. The monitor is a run's only tile
// recorder: the EZPT trace behind EASYVIEW (paper §II-D) is exported from
// its records (core), so the windows and the trace show the same spans.
package monitor

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"easypap/internal/trace"
)

// TileRec is one completed tile (or task) computation within an
// iteration.
type TileRec struct {
	X, Y, W, H int
	Worker     int
	Rank       int             // MPI process rank (0 if not distributed)
	Start, End int64           // ns relative to the monitor epoch
	Kind       trace.EventKind // trace.KindTile, or trace.KindTask for task-engine spans
	Work       int64           // work units reported through AddWork (0 if none)
}

// Duration returns the time spent computing the tile.
func (t TileRec) Duration() time.Duration { return time.Duration(t.End - t.Start) }

// IterStats is the per-iteration snapshot displayed by the monitoring
// windows.
type IterStats struct {
	Iter     int
	Duration time.Duration
	// Loads[w] is worker w's busy fraction over the iteration in [0,1] —
	// the per-CPU percentage of the Activity Monitor window.
	Loads []float64
	// Idleness is 1 - mean(Loads): the quantity whose cumulated history
	// the Activity Monitor graphs at the bottom of the window.
	Idleness float64
	Tiles    []TileRec

	// ActiveTiles/FrontierTotal are the lazy tile-frontier size of the
	// iteration as reported through Ctx.ReportActivity: ActiveTiles of
	// FrontierTotal owned tiles were dispatched. FrontierTotal == 0 means
	// the kernel does not report activity (eager variants).
	ActiveTiles   int
	FrontierTotal int
}

// MaxLoad and MinLoad return the extreme per-CPU loads.
func (s IterStats) MaxLoad() float64 {
	m := 0.0
	for _, l := range s.Loads {
		if l > m {
			m = l
		}
	}
	return m
}

func (s IterStats) MinLoad() float64 {
	if len(s.Loads) == 0 {
		return 0
	}
	m := s.Loads[0]
	for _, l := range s.Loads {
		if l < m {
			m = l
		}
	}
	return m
}

// Imbalance returns max/mean of per-CPU busy time (1.0 = perfect balance).
func (s IterStats) Imbalance() float64 {
	if len(s.Loads) == 0 {
		return 0
	}
	var sum, maxLoad float64
	for _, l := range s.Loads {
		sum += l
		if l > maxLoad {
			maxLoad = l
		}
	}
	if sum == 0 {
		return 0
	}
	return maxLoad / (sum / float64(len(s.Loads)))
}

// Monitor accumulates tile activity. One Monitor instance watches one
// process (MPI debug mode creates one per rank, as in Fig. 13).
type Monitor struct {
	workers   int
	dim       int
	rank      int
	epoch     time.Time
	lanes     []mlane
	iter      int
	iterStart int64
	history   []float64   // per-iteration idleness
	iters     []IterStats // every completed iteration

	// Frontier activity (lazy kernels, via Ctx.ReportActivity):
	// tileActivity[tile] counts the iterations the tile spent in the
	// frontier; activityIters is how many iterations reported, so the
	// frontier heat map can normalize.
	tileActivity     []int
	tilesX, tilesY   int
	activityIters    int
	curActive        int // current iteration's frontier size
	curFrontierTotal int
}

// mlane is one worker's private recording lane, padded against false
// sharing.
type mlane struct {
	tiles   []TileRec
	pending TileRec
	open    bool
	busy    int64 // accumulated busy ns in the current iteration
	_       [64]byte
}

// New creates a monitor for the given number of workers over a dim x dim
// image.
func New(workers, dim int) *Monitor {
	if workers <= 0 {
		panic(fmt.Sprintf("monitor: workers = %d", workers))
	}
	return &Monitor{
		workers: workers,
		dim:     dim,
		epoch:   time.Now(),
		lanes:   make([]mlane, workers),
	}
}

// SetRank labels all subsequent records with an MPI process rank.
func (m *Monitor) SetRank(rank int) { m.rank = rank }

// Workers returns the number of monitored workers.
func (m *Monitor) Workers() int { return m.workers }

// Dim returns the monitored image dimension.
func (m *Monitor) Dim() int { return m.dim }

// Epoch returns the monitor's time zero: record times are ns since it.
func (m *Monitor) Epoch() time.Time { return m.epoch }

// now returns ns since the monitor epoch.
func (m *Monitor) now() int64 { return int64(time.Since(m.epoch)) }

// StartIteration begins recording iteration iter (1-based).
func (m *Monitor) StartIteration(iter int) {
	m.iter = iter
	m.iterStart = m.now()
	m.curActive, m.curFrontierTotal = 0, 0
	for w := range m.lanes {
		m.lanes[w].busy = 0
		m.lanes[w].tiles = m.lanes[w].tiles[:0]
		m.lanes[w].open = false
	}
}

// RecordActivity records the iteration's tile frontier: active of total
// owned tiles were dispatched, tiles listing their indices in a tilesX x
// tilesY decomposition (nil is allowed: counts only). Called by
// Ctx.ReportActivity between StartIteration and EndIteration.
func (m *Monitor) RecordActivity(active, total int, tiles []int32, tilesX, tilesY int) {
	m.curActive, m.curFrontierTotal = active, total
	if tilesX <= 0 || tilesY <= 0 {
		return
	}
	if m.tileActivity == nil || m.tilesX != tilesX || m.tilesY != tilesY {
		m.tileActivity = make([]int, tilesX*tilesY)
		m.tilesX, m.tilesY = tilesX, tilesY
		m.activityIters = 0
	}
	m.activityIters++
	for _, t := range tiles {
		if int(t) >= 0 && int(t) < len(m.tileActivity) {
			m.tileActivity[t]++
		}
	}
}

// ActivityGrid returns the per-tile frontier residency counts (how many
// iterations each tile of the tilesX x tilesY grid spent active) and the
// number of reporting iterations. It returns (nil, 0, 0, 0) when the
// kernel never reported activity.
func (m *Monitor) ActivityGrid() (counts []int, tilesX, tilesY, iters int) {
	return m.tileActivity, m.tilesX, m.tilesY, m.activityIters
}

// StartTile opens a tile span on worker w's lane
// (monitoring_start_tile(who)).
func (m *Monitor) StartTile(worker int) { m.start(worker, trace.KindTile) }

// StartTask opens a task span on worker w's lane: the task engine's
// spans, which EASYVIEW tells apart from plain tiles.
func (m *Monitor) StartTask(worker int) { m.start(worker, trace.KindTask) }

func (m *Monitor) start(worker int, kind trace.EventKind) {
	l := &m.lanes[worker]
	l.pending = TileRec{Worker: worker, Rank: m.rank, Start: m.now(), Kind: kind}
	l.open = true
}

// AddWork adds work units (escape iterations, touched pixels) to the
// worker's open span; it is a no-op when no span is open. The count
// lands on the record EndTile closes.
func (m *Monitor) AddWork(worker int, units int64) {
	l := &m.lanes[worker]
	if l.open {
		l.pending.Work += units
	}
}

// EndTile closes the span with the tile rectangle
// (monitoring_end_tile(x, y, w, h, who)).
func (m *Monitor) EndTile(x, y, w, h, worker int) {
	l := &m.lanes[worker]
	if !l.open {
		return
	}
	rec := l.pending
	rec.End = m.now()
	rec.X, rec.Y, rec.W, rec.H = x, y, w, h
	l.tiles = append(l.tiles, rec)
	l.busy += rec.End - rec.Start
	l.open = false
}

// EndIteration finalizes the iteration and returns its snapshot. The
// snapshot is also retained: see History and Iterations.
func (m *Monitor) EndIteration() IterStats {
	end := m.now()
	dur := end - m.iterStart
	if dur <= 0 {
		dur = 1
	}
	stats := IterStats{
		Iter:          m.iter,
		Duration:      time.Duration(dur),
		Loads:         make([]float64, m.workers),
		ActiveTiles:   m.curActive,
		FrontierTotal: m.curFrontierTotal,
	}
	n := 0
	for w := range m.lanes {
		n += len(m.lanes[w].tiles)
	}
	stats.Tiles = make([]TileRec, 0, n)
	var loadSum float64
	for w := range m.lanes {
		load := float64(m.lanes[w].busy) / float64(dur)
		if load > 1 {
			load = 1
		}
		stats.Loads[w] = load
		loadSum += load
		stats.Tiles = append(stats.Tiles, m.lanes[w].tiles...)
	}
	sort.Slice(stats.Tiles, func(i, j int) bool { return stats.Tiles[i].Start < stats.Tiles[j].Start })
	stats.Idleness = 1 - loadSum/float64(m.workers)
	m.history = append(m.history, stats.Idleness)
	m.iters = append(m.iters, stats)
	return stats
}

// IdlenessHistory returns the per-iteration idleness series (the history
// diagram at the bottom of the Activity Monitor window).
func (m *Monitor) IdlenessHistory() []float64 { return m.history }

// Iterations returns every recorded iteration snapshot.
func (m *Monitor) Iterations() []IterStats { return m.iters }

// OwnerGrid maps each tile of a tilesX x tilesY decomposition to the worker
// that computed it in the given iteration (-1 for tiles nobody computed —
// e.g. skipped by the lazy Game of Life). The grid is indexed [ty][tx].
// Global worker ids are rank*workers+worker when processes are involved.
func OwnerGrid(stats IterStats, dim, tilesX, tilesY, workersPerRank int) [][]int {
	grid := make([][]int, tilesY)
	for ty := range grid {
		grid[ty] = make([]int, tilesX)
		for tx := range grid[ty] {
			grid[ty][tx] = -1
		}
	}
	tileW, tileH := dim/tilesX, dim/tilesY
	if tileW == 0 || tileH == 0 {
		return grid
	}
	for _, rec := range stats.Tiles {
		tx, ty := rec.X/tileW, rec.Y/tileH
		if ty >= 0 && ty < tilesY && tx >= 0 && tx < tilesX {
			grid[ty][tx] = rec.Rank*workersPerRank + rec.Worker
		}
	}
	return grid
}

// HeatGrid maps each tile to its computation duration in ns (0 for tiles
// nobody computed) — the data behind the heat-map mode of Fig. 9.
func HeatGrid(stats IterStats, dim, tilesX, tilesY int) [][]int64 {
	grid := make([][]int64, tilesY)
	for ty := range grid {
		grid[ty] = make([]int64, tilesX)
	}
	tileW, tileH := dim/tilesX, dim/tilesY
	if tileW == 0 || tileH == 0 {
		return grid
	}
	for _, rec := range stats.Tiles {
		tx, ty := rec.X/tileW, rec.Y/tileH
		if ty >= 0 && ty < tilesY && tx >= 0 && tx < tilesX {
			grid[ty][tx] = int64(rec.Duration())
		}
	}
	return grid
}

// ASCIIReport renders the iteration's per-CPU loads as a terminal-friendly
// bar chart — the headless stand-in for the Activity Monitor window.
func ASCIIReport(stats IterStats) string {
	var b strings.Builder
	fmt.Fprintf(&b, "iteration %d: %v, idleness %.1f%%\n",
		stats.Iter, stats.Duration.Round(time.Microsecond), stats.Idleness*100)
	for w, load := range stats.Loads {
		bars := int(load*40 + 0.5)
		fmt.Fprintf(&b, "  CPU %2d %5.1f%% %s\n", w, load*100, strings.Repeat("█", bars))
	}
	return b.String()
}
