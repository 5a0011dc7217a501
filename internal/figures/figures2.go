package figures

// Figures 6, 7, 10, 12 and 13: the sweep/plot pipeline, the trace
// explorer views, the blur optimization comparison, the task wavefront and
// the MPI Game of Life.

import (
	"fmt"
	"time"

	"easypap/internal/core"
	"easypap/internal/expt"
	"easypap/internal/ezview"
	"easypap/internal/monitor"
	"easypap/internal/plot"
	"easypap/internal/sched"
	"easypap/internal/trace"
)

// Fig6Result is the speedup-sweep outcome.
type Fig6Result struct {
	Graph   *plot.Graph
	RefTime time.Duration
	// BestSpeedup is the highest speedup reached by any schedule at the
	// maximum thread count.
	BestSpeedup float64
}

// Fig6 reproduces the experiment pipeline of Figs. 5 and 6: an expTools
// sweep (threads x schedules x grain, plus the sequential reference),
// accumulated into CSV, then plotted as per-grain speedup panels with the
// legend generated from the varying parameters.
func Fig6(p Params) (Fig6Result, error) {
	dim := p.dim(1024, 128)
	iters := 10
	threads := []int{2, 4, 6, 8, 10, 12}
	runs := 3
	if p.Quick {
		iters = 2
		threads = []int{2, 4}
		runs = 1
	}
	csvPath := p.OutDir + "/fig6_perf.csv"
	if p.OutDir == "" {
		csvPath = ""
	}

	// Sequential reference (refTime).
	seqSweep := &expt.Sweep{
		Base: core.Config{Kernel: "mandel", Variant: "seq", Dim: dim,
			TileW: 16, TileH: 16, Iterations: iters, Threads: 1, Label: "bench"},
		Runs:    1,
		CSVPath: csvPath,
	}
	seqRes, err := seqSweep.Execute()
	if err != nil {
		return Fig6Result{}, err
	}
	refTime := seqRes[0].WallTime

	sweep := &expt.Sweep{
		Base: core.Config{Kernel: "mandel", Variant: "omp_tiled", Dim: dim,
			Iterations: iters, Label: "bench"},
		Grains:  []int{16, 32},
		Threads: threads,
		Schedules: []sched.Policy{
			sched.StaticPolicy,
			sched.DynamicPolicy(2),
			sched.GuidedPolicy,
			sched.NonmonotonicPolicy,
		},
		Runs:     runs,
		CSVPath:  csvPath,
		Progress: nil,
	}
	p.logf("[fig6] sweeping %d configurations (mandel omp_tiled dim=%d iters=%d)...\n",
		sweep.Size(), dim, iters)
	results, err := sweep.Execute()
	if err != nil {
		return Fig6Result{}, err
	}

	// Build the graph: in-memory when no CSV requested.
	var tab *plot.Table
	if csvPath != "" {
		tab, err = plot.Load(csvPath)
		if err != nil {
			return Fig6Result{}, err
		}
	} else {
		tab = tableFromResults(append(seqRes, results...))
	}
	g, err := plot.Build(tab.Filter(map[string]string{"kernel": "mandel"}),
		plot.Options{XCol: "threads", PanelCol: "tilew", Speedup: true})
	if err != nil {
		return Fig6Result{}, err
	}

	res := Fig6Result{Graph: g, RefTime: refTime}
	p.logf("[fig6] %s\n", g.ConstantsLine())
	for _, panel := range g.Panels {
		p.logf("[fig6] -- %s --\n", panel.Title)
		for _, s := range panel.Series {
			lastPt := s.Points[len(s.Points)-1]
			p.logf("[fig6]   %-36s speedup@%g = %.2fx\n", s.Name, lastPt.X, lastPt.Y)
			if lastPt.Y > res.BestSpeedup {
				res.BestSpeedup = lastPt.Y
			}
		}
	}
	if p.OutDir != "" {
		if err := g.SaveSVG(p.OutDir+"/fig6_speedup.svg", 0, 420); err != nil {
			return res, err
		}
		p.logf("[fig6] wrote %s/fig6_speedup.svg and fig6_perf.csv\n", p.OutDir)
	}
	return res, nil
}

// tableFromResults builds an in-memory plot table from run results.
func tableFromResults(results []core.Result) *plot.Table {
	t := &plot.Table{Columns: core.CSVHeader}
	for _, r := range results {
		rec := plot.Record{}
		row := r.CSVRecord()
		for i, col := range core.CSVHeader {
			rec[col] = row[i]
		}
		t.Rows = append(t.Rows, rec)
	}
	return t
}

// Fig7Result is the Gantt/trace-exploration outcome.
type Fig7Result struct {
	Events     int
	Iterations int
	// TasksUnderCursor is the size of a vertical-mouse query in the middle
	// of the trace (the Fig. 7 interaction).
	TasksUnderCursor int
}

// Fig7 records a trace of mandel omp (the paper's §II-D command) and
// exercises the EASYVIEW views: Gantt SVG plus the vertical-mouse query
// linking tasks to tiles.
func Fig7(p Params) (Fig7Result, error) {
	dim := p.dim(512, 128)
	iters := 10
	if p.Quick {
		iters = 3
	}
	tracePath := "/tmp/easypap_fig7.evt"
	if p.OutDir != "" {
		tracePath = p.OutDir + "/fig7_mandel.evt"
	}
	out, err := core.Run(core.Config{
		Kernel: "mandel", Variant: "omp", Dim: dim,
		TileW: 16, TileH: 16, Iterations: iters, NoDisplay: true,
		TracePath: tracePath, Threads: 4, Schedule: sched.DynamicPolicy(2),
	})
	if err != nil {
		return Fig7Result{}, err
	}
	v := ezview.New(out.Trace)
	s0, s1 := out.Trace.Span()
	mid := (s0 + s1) / 2
	res := Fig7Result{
		Events:           len(out.Trace.Events),
		Iterations:       out.Trace.Iterations(),
		TasksUnderCursor: len(v.TasksAtTime(mid, 1, iters)),
	}
	p.logf("[fig7] traced %d events over %d iterations; %d tasks under the cursor at t=mid\n",
		res.Events, res.Iterations, res.TasksUnderCursor)
	if p.OutDir != "" {
		if err := v.SaveGanttSVG(p.OutDir+"/fig7_gantt.svg", ezview.GanttOptions{}); err != nil {
			return res, err
		}
		p.logf("[fig7] wrote %s/fig7_gantt.svg\n", p.OutDir)
	}
	return res, nil
}

// Fig10Result is the blur-optimization trace comparison.
type Fig10Result struct {
	Compare trace.CompareResult
	// WallSpeedup is the measured whole-kernel speedup (paper: ~3x on
	// AVX2 hardware; the Go port's branch-elimination yields a smaller but
	// same-direction factor).
	WallSpeedup float64
}

// Fig10 traces the basic and optimized blur variants under identical
// parameters and compares them, the workflow of Fig. 10.
func Fig10(p Params) (Fig10Result, error) {
	dim := p.dim(1024, 256)
	iters := 5
	if p.Quick {
		iters = 2
	}
	run := func(variant, suffix string) (*trace.Trace, time.Duration, error) {
		path := "/tmp/easypap_fig10_" + suffix + ".evt"
		if p.OutDir != "" {
			path = p.OutDir + "/fig10_" + suffix + ".evt"
		}
		out, err := core.Run(core.Config{
			Kernel: "blur", Variant: variant, Dim: dim,
			TileW: 32, TileH: 32, Iterations: iters, NoDisplay: true,
			TracePath: path, Threads: 4, Schedule: sched.NonmonotonicPolicy,
		})
		if err != nil {
			return nil, 0, err
		}
		return out.Trace, out.WallTime, nil
	}
	base, baseWall, err := run("omp_tiled", "base")
	if err != nil {
		return Fig10Result{}, err
	}
	opt, optWall, err := run("omp_tiled_opt", "opt")
	if err != nil {
		return Fig10Result{}, err
	}
	cmp, err := trace.Compare(base, opt)
	if err != nil {
		return Fig10Result{}, err
	}
	res := Fig10Result{Compare: cmp, WallSpeedup: float64(baseWall) / float64(optWall)}
	p.logf("[fig10] blur omp_tiled vs omp_tiled_opt (dim=%d, tile=32):\n", dim)
	p.logf("[fig10] wall speedup %.2fx, trace span speedup %.2fx, median task ratio %.2fx\n",
		res.WallSpeedup, cmp.SpeedupAtoB, cmp.MedianTaskRatio)
	if p.OutDir != "" {
		rep, err := ezview.CompareReport(base, opt)
		if err != nil {
			return res, err
		}
		if err := writeFile(p.OutDir+"/fig10_compare.txt", rep); err != nil {
			return res, err
		}
		p.logf("[fig10] wrote %s/fig10_compare.txt\n", p.OutDir)
	}
	return res, nil
}

// CoverageResult is the §III-B coverage-map study: how clustered each
// CPU's tiles are under different scheduling policies.
type CoverageResult struct {
	// MeanLocality maps a schedule name to the mean coverage locality
	// over the CPUs, each weighted by the tiles it computed in the
	// inspected iterations: a CPU's locality is the mean Manhattan
	// distance of its tiles to their centroid, normalized by the grid
	// diagonal. Lower = more clustered.
	MeanLocality map[string]float64
}

// CoverageStudy reproduces the paper's §III-B observation made with the
// EASYVIEW "coverage map" mode: under nonmonotonic:dynamic, the tiles a
// CPU computes are "mostly regrouped in a single area, with only a few
// ones scattered in other places" — i.e. its coverage is more local than
// under plain dynamic scheduling.
func CoverageStudy(p Params) (CoverageResult, error) {
	dim := p.dim(512, 256)
	res := CoverageResult{MeanLocality: map[string]float64{}}
	for _, pol := range []sched.Policy{sched.NonmonotonicPolicy, sched.DynamicPolicy(1)} {
		path := "/tmp/easypap_cov_" + sanitize(pol.String()) + ".evt"
		if p.OutDir != "" {
			path = p.OutDir + "/coverage_" + sanitize(pol.String()) + ".evt"
		}
		out, err := core.Run(core.Config{
			Kernel: "blur", Variant: "omp_tiled_opt", Dim: dim,
			TileW: 16, TileH: 16, Iterations: 6, NoDisplay: true,
			TracePath: path, Threads: 4, Schedule: pol,
		})
		if err != nil {
			return res, err
		}
		v := ezview.New(out.Trace)
		iters := out.Trace.Iterations()
		lo := max(iters-2, 1) // the paper inspects iteration range [7..9]
		// Weighting by tiles keeps a CPU that computed none, or a single
		// one (its own centroid), from counting as perfectly clustered:
		// a schedule would look local for leaving CPUs idle.
		var sum float64
		tiles := 0
		rows := v.Rows()
		for _, cpu := range rows {
			n := len(v.TasksOfCPU(cpu, lo, iters))
			sum += float64(n) * v.CoverageLocality(cpu, lo, iters)
			tiles += n
		}
		res.MeanLocality[pol.String()] = sum / float64(max(tiles, 1))
		if p.OutDir != "" {
			cov, err := v.CoverageMap(out.Final, rows[len(rows)/2], lo, iters, 256)
			if err != nil {
				return res, err
			}
			if err := cov.SavePNG(p.OutDir + "/coverage_" + sanitize(pol.String()) + ".png"); err != nil {
				return res, err
			}
		}
	}
	p.logf("[coverage] mean locality (lower = more clustered): nonmonotonic=%.3f dynamic,1=%.3f\n",
		res.MeanLocality["nonmonotonic:dynamic"], res.MeanLocality["dynamic,1"])
	if p.OutDir != "" {
		p.logf("[coverage] wrote %s/coverage_<schedule>.png\n", p.OutDir)
	}
	return res, nil
}

// Fig12Result is the task-wavefront verification.
type Fig12Result struct {
	Violations int
	TaskEvents int
	// WaveConcurrency and SerialConcurrency are the maximum numbers of
	// simultaneously running tasks: the correct wave overlaps independent
	// anti-diagonal tiles, the over-constrained graph runs one task at a
	// time — exactly what students see in EASYVIEW.
	WaveConcurrency   int
	SerialConcurrency int
}

// Fig12 traces the cc task variant and verifies the wavefront property of
// Figs. 11/12 — every down-right task starts only after its left and upper
// neighbours finished — and contrasts it with the over-constrained variant
// students write by mistake (which serializes).
func Fig12(p Params) (Fig12Result, error) {
	dim := p.dim(512, 128)
	run := func(variant, suffix string) (*trace.Trace, time.Duration, error) {
		path := "/tmp/easypap_fig12_" + suffix + ".evt"
		if p.OutDir != "" {
			path = p.OutDir + "/fig12_" + suffix + ".evt"
		}
		out, err := core.Run(core.Config{
			Kernel: "cc", Variant: variant, Dim: dim,
			TileW: dim / 8, TileH: dim / 8, Iterations: 3, NoDisplay: true,
			TracePath: path, Threads: 4, Seed: 21,
		})
		if err != nil {
			return nil, 0, err
		}
		return out.Trace, out.WallTime, nil
	}
	good, _, err := run("task", "wave")
	if err != nil {
		return Fig12Result{}, err
	}
	over, _, err := run("task_overconstrained", "serial")
	if err != nil {
		return Fig12Result{}, err
	}
	v := ezview.New(good)
	res := Fig12Result{TaskEvents: len(good.Events)}
	for iter := 1; iter <= good.Iterations(); iter++ {
		res.Violations += v.WavefrontOrder(iter)
	}
	res.WaveConcurrency = v.MaxConcurrency(1, good.Iterations())
	res.SerialConcurrency = ezview.New(over).MaxConcurrency(1, over.Iterations())
	p.logf("[fig12] cc task wavefront: %d task events, %d dependency violations\n",
		res.TaskEvents, res.Violations)
	p.logf("[fig12] max concurrency: wave=%d, overconstrained=%d (the student mistake serializes)\n",
		res.WaveConcurrency, res.SerialConcurrency)
	if p.OutDir != "" {
		if err := v.SaveGanttSVG(p.OutDir+"/fig12_wave_gantt.svg",
			ezview.GanttOptions{IterLo: 1, IterHi: 1, Caption: "cc task wavefront (iteration 1)"}); err != nil {
			return res, err
		}
		p.logf("[fig12] wrote %s/fig12_wave_gantt.svg\n", p.OutDir)
	}
	return res, nil
}

// Fig13Result is the MPI Game of Life observation.
type Fig13Result struct {
	Ranks          int
	ThreadsPerRank int
	// ComputedFraction is the fraction of tiles computed in the last
	// iteration (lazy evaluation on the sparse diagonal dataset).
	ComputedFraction float64
	// DiagonalHitRate is the fraction of computed tiles lying near a
	// diagonal — the paper's check that "only tiles located near diagonals
	// are computed".
	DiagonalHitRate float64
	// EachRankWorked reports whether every process computed tiles in its
	// own band.
	EachRankWorked bool
}

// Fig13 runs the lazy MPI+OpenMP Game of Life on the sparse "planers along
// the diagonals" dataset with 2 processes x 4 threads and debug-mode
// monitoring, verifying the paper's visual checks programmatically.
func Fig13(p Params) (Fig13Result, error) {
	dim := p.dim(512, 128)
	iters := 8
	if p.Quick {
		iters = 4
	}
	const np, threads, tile = 2, 4, 8
	out, err := core.Run(core.Config{
		Kernel: "life", Variant: "mpi_omp", Dim: dim,
		TileW: tile, TileH: tile, Iterations: iters, NoDisplay: true,
		Monitoring: true, Threads: threads, MPIRanks: np, Arg: "diag",
		Debug: "M", Schedule: sched.DynamicPolicy(1),
	})
	if err != nil {
		return Fig13Result{}, err
	}
	res := Fig13Result{Ranks: np, ThreadsPerRank: threads, EachRankWorked: true}
	tiles := dim / tile
	totalComputed := 0
	diagHits := 0
	for rank, mon := range out.Monitors {
		if mon == nil {
			return res, fmt.Errorf("fig13: no monitor for rank %d", rank)
		}
		iterStats := mon.Iterations()
		last := iterStats[len(iterStats)-1]
		if len(last.Tiles) == 0 {
			res.EachRankWorked = false
		}
		totalComputed += len(last.Tiles)
		for _, t := range last.Tiles {
			tx, ty := t.X/tile, t.Y/tile
			// Near either diagonal (within 3 tiles)?
			d1 := abs(tx - ty)
			d2 := abs(tx + ty - (tiles - 1))
			if d1 <= 3 || d2 <= 3 {
				diagHits++
			}
		}
		if p.OutDir != "" {
			img := monitor.TilingImage(last, dim, 512)
			if err := img.SavePNG(fmt.Sprintf("%s/fig13_rank%d_tiling.png", p.OutDir, rank)); err != nil {
				return res, err
			}
		}
	}
	res.ComputedFraction = float64(totalComputed) / float64(tiles*tiles)
	if totalComputed > 0 {
		res.DiagonalHitRate = float64(diagHits) / float64(totalComputed)
	}
	p.logf("[fig13] life mpi_omp np=%d threads=%d pattern=diag: %.1f%% of tiles computed, %.0f%% of them near the diagonals\n",
		res.Ranks*res.ThreadsPerRank/threads, threads, res.ComputedFraction*100, res.DiagonalHitRate*100)
	if p.OutDir != "" {
		p.logf("[fig13] wrote %s/fig13_rankN_tiling.png\n", p.OutDir)
	}
	return res, nil
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func writeFile(path, content string) error {
	return writeBytes(path, []byte(content))
}
