// Package figures regenerates every figure of the paper's evaluation
// (Section III plus the §II-C performance-mode example). Each FigN function
// runs the corresponding workload, prints the same quantities the paper
// reports, optionally writes the graphical artifact (tiling windows, heat
// maps, Gantt charts, speedup graphs) under an output directory, and
// returns a structured result so the benchmark suite can assert the
// paper's qualitative claims (who wins, by roughly what factor).
//
// The experiment index in DESIGN.md §4 maps each figure to these
// functions.
package figures

import (
	"fmt"
	"io"
	"time"

	"easypap/internal/core"
	_ "easypap/internal/kernels" // register kernels
	"easypap/internal/monitor"
	"easypap/internal/sched"
)

// Params tunes workload sizes: Quick shrinks the images so the whole suite
// runs in seconds (tests/CI); the defaults match the paper's setups.
type Params struct {
	Quick  bool
	OutDir string    // where to write artifacts ("" = no artifacts)
	Log    io.Writer // progress/report output (nil = silent)
}

func (p Params) logf(format string, args ...any) {
	if p.Log != nil {
		fmt.Fprintf(p.Log, format, args...)
	}
}

// dim returns full when not in quick mode, otherwise quick.
func (p Params) dim(full, quick int) int {
	if p.Quick {
		return quick
	}
	return full
}

// PerfResult is the §II-C performance-mode example.
type PerfResult struct {
	Result core.Result
}

// PerfMode reproduces the paper's performance-mode run:
//
//	easypap --kernel mandel --variant omp_tiled --tile-size 16 \
//	        --iterations 50 --no-display
//	50 iterations completed in 579 ms
//
// The absolute time depends on the host; the deliverable is the workflow
// and the report line.
func PerfMode(p Params) (PerfResult, error) {
	dim := p.dim(2048, 256)
	iters := 50
	if p.Quick {
		iters = 5
	}
	out, err := core.Run(core.Config{
		Kernel: "mandel", Variant: "omp_tiled", Dim: dim,
		TileW: 16, TileH: 16, Iterations: iters, NoDisplay: true,
	})
	if err != nil {
		return PerfResult{}, err
	}
	p.logf("[perf] easypap --kernel mandel --variant omp_tiled --tile-size 16 --iterations %d --no-display\n", iters)
	p.logf("[perf] %s\n", out.Result.String())
	return PerfResult{Result: out.Result}, nil
}

// Fig3Result captures the static-schedule load imbalance of Fig. 3.
type Fig3Result struct {
	Loads     []float64 // per-CPU load of the last iteration
	Imbalance float64   // max/mean busy ratio
	Idleness  float64
}

// Fig3 runs mandel omp_tiled under schedule(static) with monitoring and
// reports the per-CPU loads: the paper observes a clear imbalance because
// the tiles covering the Mandelbrot set cost far more than the rest.
func Fig3(p Params) (Fig3Result, error) {
	dim := p.dim(1024, 256)
	out, err := core.Run(core.Config{
		Kernel: "mandel", Variant: "omp_tiled", Dim: dim,
		TileW: 16, TileH: 16, Iterations: 2, NoDisplay: true,
		Monitoring: true, Threads: 4, Schedule: sched.StaticPolicy,
	})
	if err != nil {
		return Fig3Result{}, err
	}
	iters := out.Monitors[0].Iterations()
	last := iters[len(iters)-1]
	res := Fig3Result{Loads: last.Loads, Imbalance: last.Imbalance(), Idleness: last.Idleness}
	p.logf("[fig3] mandel omp_tiled schedule=static: per-CPU loads %v\n", fmtLoads(last.Loads))
	p.logf("[fig3] imbalance (max/mean) = %.2f, idleness = %.1f%%\n", res.Imbalance, res.Idleness*100)
	if p.OutDir != "" {
		tiling := monitor.TilingImage(last, dim, 512)
		if err := tiling.SavePNG(p.OutDir + "/fig3_tiling.png"); err != nil {
			return res, err
		}
		activity := monitor.ActivityImage(last, out.Monitors[0].IdlenessHistory(), 512)
		if err := activity.SavePNG(p.OutDir + "/fig3_activity.png"); err != nil {
			return res, err
		}
		p.logf("[fig3] wrote %s/fig3_{tiling,activity}.png\n", p.OutDir)
	}
	return res, nil
}

// Fig4Result characterizes one scheduling policy's assignment pattern.
type Fig4Result struct {
	Schedule   string
	Contiguous bool        // static: one contiguous block per worker
	RunHist    map[int]int // run-length histogram of same-owner runs
	OwnerGrid  [][]int
}

// Fig4 reproduces the four tiling-window snapshots of Fig. 4: the same
// kernel under static, dynamic,2, nonmonotonic:dynamic and guided, with
// the tile->thread assignment captured per policy.
func Fig4(p Params) (map[string]Fig4Result, error) {
	dim := p.dim(1024, 256)
	policies := []sched.Policy{
		sched.StaticPolicy,
		sched.DynamicPolicy(2),
		sched.NonmonotonicPolicy,
		sched.GuidedPolicy,
	}
	results := make(map[string]Fig4Result, len(policies))
	for _, pol := range policies {
		out, err := core.Run(core.Config{
			Kernel: "mandel", Variant: "omp_tiled", Dim: dim,
			TileW: 16, TileH: 16, Iterations: 1, NoDisplay: true,
			Monitoring: true, Threads: 4, Schedule: pol,
		})
		if err != nil {
			return nil, err
		}
		iters := out.Monitors[0].Iterations()
		last := iters[len(iters)-1]
		tiles := dim / 16
		grid := monitor.OwnerGrid(last, dim, tiles, tiles, 4)
		res := Fig4Result{
			Schedule:   pol.String(),
			Contiguous: monitor.ContiguousBlocks(grid),
			RunHist:    monitor.RunLengthHistogram(grid),
			OwnerGrid:  grid,
		}
		results[pol.String()] = res
		p.logf("[fig4] schedule=%-22s contiguous-blocks=%-5v\n", pol, res.Contiguous)
		if p.OutDir != "" {
			img := monitor.TilingImage(last, dim, 512)
			name := fmt.Sprintf("%s/fig4_%s.png", p.OutDir, sanitize(pol.String()))
			if err := img.SavePNG(name); err != nil {
				return nil, err
			}
		}
	}
	if p.OutDir != "" {
		p.logf("[fig4] wrote %s/fig4_<schedule>.png\n", p.OutDir)
	}
	return results, nil
}

func sanitize(s string) string {
	out := []byte(s)
	for i, c := range out {
		if c == ':' || c == ',' {
			out[i] = '_'
		}
	}
	return string(out)
}

func fmtLoads(loads []float64) string {
	s := "["
	for i, l := range loads {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%.0f%%", l*100)
	}
	return s + "]"
}

// Fig8Result captures the two dynamic-scheduling patterns of Fig. 8.
type Fig8Result struct {
	// StripeRows are rows fully owned by at most two alternating workers
	// (the strict form of Pattern 1).
	StripeRows []int
	// LongRunRows are rows containing a same-owner run of at least a
	// quarter of the row — the visible "stripes" of Pattern 1. Under
	// dynamic,1 with uniformly busy workers such runs are vanishingly
	// improbable; they appear exactly because one or two threads sweep the
	// cheap rows while the others chew on the in-set tiles.
	LongRunRows []int
	CyclicScore float64 // adjacent-owner-differs ratio in the heavy band (Pattern 2)
	OwnerGrid   [][]int
}

// Fig8 runs mandel with dynamic scheduling of small tiles. The cheap rows
// (far from the set) are swallowed by one or two threads -> same-color
// stripes; the uniformly heavy band (inside the set) turns the dynamic
// distribution into a quasi-cyclic one.
func Fig8(p Params) (Fig8Result, error) {
	dim := p.dim(512, 256)
	tile := 8
	out, err := core.Run(core.Config{
		Kernel: "mandel", Variant: "omp_tiled", Dim: dim,
		TileW: tile, TileH: tile, Iterations: 1, NoDisplay: true,
		Monitoring: true, Threads: 4, Schedule: sched.DynamicPolicy(1),
	})
	if err != nil {
		return Fig8Result{}, err
	}
	iters := out.Monitors[0].Iterations()
	last := iters[len(iters)-1]
	tiles := dim / tile
	grid := monitor.OwnerGrid(last, dim, tiles, tiles, 4)

	// Locate the heaviest horizontal band (the in-set area) via the heat
	// grid, and measure its cyclicity.
	heat := monitor.HeatGrid(last, dim, tiles, tiles)
	bestRow, bestCost := 0, int64(-1)
	for y := range heat {
		var cost int64
		for _, d := range heat[y] {
			cost += d
		}
		if cost > bestCost {
			bestRow, bestCost = y, cost
		}
	}
	lo := max(bestRow-2, 0)
	hi := min(bestRow+3, tiles)
	res := Fig8Result{
		StripeRows:  monitor.StripeRows(grid),
		CyclicScore: monitor.CyclicScore(grid, lo, hi),
		OwnerGrid:   grid,
	}
	runs := monitor.RowRuns(grid)
	for y, rowRuns := range runs {
		for _, r := range rowRuns {
			if r >= tiles/4 {
				res.LongRunRows = append(res.LongRunRows, y)
				break
			}
		}
	}
	p.logf("[fig8] mandel dynamic,1 tiles=%dx%d: %d strict stripe rows, %d long-run rows (pattern 1), cyclic score %.2f in heavy band rows %d..%d (pattern 2)\n",
		tile, tile, len(res.StripeRows), len(res.LongRunRows), res.CyclicScore, lo, hi-1)
	if p.OutDir != "" {
		img := monitor.TilingImage(last, dim, 512)
		if err := img.SavePNG(p.OutDir + "/fig8_dynamic_small_tiles.png"); err != nil {
			return res, err
		}
		p.logf("[fig8] wrote %s/fig8_dynamic_small_tiles.png\n", p.OutDir)
	}
	return res, nil
}

// Fig9Result captures the heat-map observations of Fig. 9.
type Fig9Result struct {
	// Mandel: mean tile duration inside vs outside the set area.
	MandelMaxOverMin float64
	// Blur: mean duration of border vs inner tiles.
	BlurBorderMean time.Duration
	BlurInnerMean  time.Duration
	BlurRatio      float64
}

// Fig9 renders the heat maps: (a) mandel's heat map redraws the shape of
// the set (in-set tiles are the slowest); (b) the optimized blur's border
// tiles take longer than inner tiles.
func Fig9(p Params) (Fig9Result, error) {
	var res Fig9Result
	dim := p.dim(512, 256)

	// (a) mandel heat map.
	outM, err := core.Run(core.Config{
		Kernel: "mandel", Variant: "omp_tiled", Dim: dim,
		TileW: 16, TileH: 16, Iterations: 1, NoDisplay: true,
		Monitoring: true, HeatMode: true, Threads: 4,
		Schedule: sched.DynamicPolicy(2),
	})
	if err != nil {
		return res, err
	}
	lastM := outM.Monitors[0].Iterations()[0]
	var minD, maxD time.Duration
	for i, t := range lastM.Tiles {
		d := t.Duration()
		if i == 0 || d < minD {
			minD = d
		}
		if d > maxD {
			maxD = d
		}
	}
	if minD > 0 {
		res.MandelMaxOverMin = float64(maxD) / float64(minD)
	}
	p.logf("[fig9a] mandel tile durations: min=%v max=%v (ratio %.0fx) — the set's shape appears in the heat map\n",
		minD, maxD, res.MandelMaxOverMin)

	// (b) blur border vs inner tiles (optimized variant).
	outB, err := core.Run(core.Config{
		Kernel: "blur", Variant: "omp_tiled_opt", Dim: dim,
		TileW: 16, TileH: 16, Iterations: 2, NoDisplay: true,
		Monitoring: true, HeatMode: true, Threads: 4,
	})
	if err != nil {
		return res, err
	}
	itersB := outB.Monitors[0].Iterations()
	lastB := itersB[len(itersB)-1]
	grid, err := sched.NewTileGrid(dim, 16, 16)
	if err != nil {
		return res, err
	}
	var borderSum, innerSum time.Duration
	var borderN, innerN int
	for _, t := range lastB.Tiles {
		tile := grid.TileAt(int(t.X), int(t.Y))
		if grid.IsBorder(tile) {
			borderSum += t.Duration()
			borderN++
		} else {
			innerSum += t.Duration()
			innerN++
		}
	}
	if borderN > 0 {
		res.BlurBorderMean = borderSum / time.Duration(borderN)
	}
	if innerN > 0 {
		res.BlurInnerMean = innerSum / time.Duration(innerN)
	}
	if res.BlurInnerMean > 0 {
		res.BlurRatio = float64(res.BlurBorderMean) / float64(res.BlurInnerMean)
	}
	p.logf("[fig9b] blur opt: border tiles mean %v, inner tiles mean %v (border/inner = %.1fx)\n",
		res.BlurBorderMean, res.BlurInnerMean, res.BlurRatio)

	if p.OutDir != "" {
		if err := monitor.HeatImage(lastM, dim, 512).SavePNG(p.OutDir + "/fig9a_mandel_heat.png"); err != nil {
			return res, err
		}
		if err := monitor.HeatImage(lastB, dim, 512).SavePNG(p.OutDir + "/fig9b_blur_heat.png"); err != nil {
			return res, err
		}
		p.logf("[fig9] wrote %s/fig9{a_mandel,b_blur}_heat.png\n", p.OutDir)
	}
	return res, nil
}
