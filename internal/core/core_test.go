package core

import (
	"encoding/csv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"easypap/internal/img2d"
	"easypap/internal/sched"
)

// registerTestKernel installs a tiny gradient kernel used by the core
// tests. Registration is global, so it happens once.
var testKernelOnce = func() bool {
	Register(&Kernel{
		Name:        "testgrad",
		Description: "test gradient kernel",
		Init: func(ctx *Ctx) error {
			ctx.SetPriv(new(int))
			return nil
		},
		Variants: map[string]ComputeFunc{
			"seq": func(ctx *Ctx, nbIter int) int {
				return ctx.ForIterations(nbIter, func(it int) bool {
					n := ctx.Priv().(*int)
					*n++
					shade := uint8(*n * 10 % 256)
					ctx.Cur().Fill(img2d.RGB(shade, shade, shade))
					return true
				})
			},
			"omp_tiled": func(ctx *Ctx, nbIter int) int {
				return ctx.ForIterations(nbIter, func(it int) bool {
					n := ctx.Priv().(*int)
					*n++
					shade := uint8(*n * 10 % 256)
					im := ctx.Cur()
					ctx.Pool.ParallelForTiles(ctx.Grid, ctx.Cfg.Schedule, func(x, y, w, h, worker int) {
						ctx.DoTile(x, y, w, h, worker, func() {
							im.FillRect(x, y, w, h, img2d.RGB(shade, shade, shade))
						})
					})
					return true
				})
			},
			"converge2": func(ctx *Ctx, nbIter int) int {
				// Converges after 2 iterations (absolute, so also when
				// the run loop calls one iteration at a time).
				return ctx.ForIterations(nbIter, func(int) bool {
					return ctx.Iter() < 2
				})
			},
		},
		DefaultVariant: "seq",
	})
	return true
}()

func TestRegistryLookup(t *testing.T) {
	_ = testKernelOnce
	k, err := Lookup("testgrad")
	if err != nil {
		t.Fatal(err)
	}
	if k.Name != "testgrad" || k.DefaultVariant != "seq" {
		t.Errorf("kernel = %+v", k)
	}
	if _, err := Lookup("no-such-kernel"); err == nil {
		t.Error("Lookup of unknown kernel succeeded")
	}
	names := KernelNames()
	found := false
	for _, n := range names {
		if n == "testgrad" {
			found = true
		}
	}
	if !found {
		t.Errorf("KernelNames() = %v misses testgrad", names)
	}
	vn := k.VariantNames()
	if len(vn) != 3 || vn[0] != "converge2" {
		t.Errorf("VariantNames = %v", vn)
	}
}

func TestRegisterValidation(t *testing.T) {
	mustPanic := func(name string, k *Kernel) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: Register did not panic", name)
			}
		}()
		Register(k)
	}
	mustPanic("empty name", &Kernel{})
	mustPanic("no variants", &Kernel{Name: "x"})
	mustPanic("bad default", &Kernel{Name: "x", Variants: map[string]ComputeFunc{"a": nil}, DefaultVariant: "b"})
	mustPanic("duplicate", &Kernel{Name: "testgrad", Variants: map[string]ComputeFunc{"seq": nil}})
}

func TestConfigNormalizeDefaults(t *testing.T) {
	cfg, err := Config{Kernel: "testgrad"}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Variant != "seq" {
		t.Errorf("variant = %q", cfg.Variant)
	}
	if cfg.Dim != 1024 || cfg.TileW != 32 || cfg.TileH != 32 {
		t.Errorf("geometry = %d/%dx%d", cfg.Dim, cfg.TileW, cfg.TileH)
	}
	if cfg.Iterations != 1 || cfg.Threads <= 0 || cfg.MPIRanks != 1 {
		t.Errorf("defaults = %+v", cfg)
	}
	if cfg.Label == "" {
		t.Error("label not defaulted")
	}
}

func TestConfigNormalizeErrors(t *testing.T) {
	cases := []Config{
		{},                                       // no kernel
		{Kernel: "nope"},                         // unknown kernel
		{Kernel: "testgrad", Variant: "nope"},    // unknown variant
		{Kernel: "testgrad", Dim: -5},            // bad dim
		{Kernel: "testgrad", Dim: 100, TileW: 7}, // non-dividing tile
		{Kernel: "testgrad", Iterations: -1},     // bad iterations
		{Kernel: "testgrad", MPIRanks: 2},        // mpirun without mpi variant
		{Kernel: "testgrad", FrameEvery: -1},     // bad frames
	}
	for i, c := range cases {
		if _, err := c.Normalize(); err == nil {
			t.Errorf("case %d (%+v): Normalize succeeded", i, c)
		}
	}
}

func TestRunSeqBasic(t *testing.T) {
	out, err := Run(Config{Kernel: "testgrad", Dim: 64, Iterations: 5, NoDisplay: true, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if out.Iterations != 5 {
		t.Errorf("iterations = %d", out.Iterations)
	}
	if out.WallTime <= 0 {
		t.Error("no wall time measured")
	}
	if out.Final == nil || out.Final.Dim() != 64 {
		t.Error("final image missing")
	}
	// 5 iterations: shade = 50.
	if got := out.Final.Get(0, 0); got != img2d.RGB(50, 50, 50) {
		t.Errorf("final pixel = %#x", got)
	}
	if !strings.Contains(out.Result.String(), "5 iterations completed in") {
		t.Errorf("report: %s", out.Result.String())
	}
}

func TestRunParallelMatchesSeq(t *testing.T) {
	seq, err := Run(Config{Kernel: "testgrad", Dim: 64, Iterations: 3, NoDisplay: true})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Run(Config{Kernel: "testgrad", Variant: "omp_tiled", Dim: 64,
		Iterations: 3, NoDisplay: true, Threads: 4, Schedule: sched.DynamicPolicy(2)})
	if err != nil {
		t.Fatal(err)
	}
	if !seq.Final.Equal(par.Final) {
		t.Error("omp_tiled output differs from seq")
	}
}

func TestRunEarlyConvergence(t *testing.T) {
	out, err := Run(Config{Kernel: "testgrad", Variant: "converge2", Dim: 64,
		Iterations: 50, NoDisplay: true})
	if err != nil {
		t.Fatal(err)
	}
	if out.Iterations != 2 {
		t.Errorf("iterations = %d, want 2 (early convergence)", out.Iterations)
	}
}

// TestRunStopsAtConvergenceInEveryMode: the run loop ends at the
// iteration ForIterations flagged steady, whether it computes in one
// bulk call or one iteration per frame.
func TestRunStopsAtConvergenceInEveryMode(t *testing.T) {
	dir := t.TempDir()
	for _, cfg := range []Config{
		{Kernel: "testgrad", Variant: "converge2", Dim: 64, Iterations: 50, NoDisplay: true},
		{Kernel: "testgrad", Variant: "converge2", Dim: 64, Iterations: 50, OutputDir: dir},
	} {
		out, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if out.Iterations != 2 {
			t.Errorf("display=%v: iterations = %d, want 2", !cfg.NoDisplay, out.Iterations)
		}
	}
	frames, err := filepath.Glob(filepath.Join(dir, "main_*.png"))
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 2 {
		t.Errorf("display mode wrote %d main frames, want 2", len(frames))
	}
}

func TestRunWithMonitoring(t *testing.T) {
	out, err := Run(Config{Kernel: "testgrad", Variant: "omp_tiled", Dim: 64,
		Iterations: 4, NoDisplay: true, Monitoring: true, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Monitors) != 1 || out.Monitors[0] == nil {
		t.Fatal("no monitor collected")
	}
	iters := out.Monitors[0].Iterations()
	if len(iters) != 4 {
		t.Fatalf("monitored %d iterations, want 4", len(iters))
	}
	if len(iters[0].Tiles) != 4 { // 64/32 = 2x2 tiles
		t.Errorf("iteration 1 recorded %d tiles, want 4", len(iters[0].Tiles))
	}
}

func TestRunWithTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.evt")
	out, err := Run(Config{Kernel: "testgrad", Variant: "omp_tiled", Dim: 64,
		Iterations: 3, NoDisplay: true, TracePath: path, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if out.Trace == nil {
		t.Fatal("no trace collected")
	}
	if out.Trace.Iterations() != 3 {
		t.Errorf("trace iterations = %d", out.Trace.Iterations())
	}
	if len(out.Trace.Events) != 3*4 {
		t.Errorf("trace has %d events, want 12", len(out.Trace.Events))
	}
	if _, err := os.Stat(path); err != nil {
		t.Errorf("trace file not saved: %v", err)
	}
	if out.Trace.Meta.Kernel != "testgrad" || out.Trace.Meta.Variant != "omp_tiled" {
		t.Errorf("trace meta = %+v", out.Trace.Meta)
	}
}

func TestRunDisplayModeWritesFrames(t *testing.T) {
	dir := t.TempDir()
	_, err := Run(Config{Kernel: "testgrad", Dim: 64, Iterations: 3,
		OutputDir: dir, Monitoring: true, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"main_0001.png", "main_0003.png", "tiling_0001.png", "activity_0001.png"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Errorf("missing frame %s", f)
		}
	}
}

func TestCSVAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results", "perf.csv")
	res := Result{Config: Config{
		Label: "m1", Kernel: "mandel", Variant: "omp_tiled", Dim: 512,
		TileW: 16, TileH: 16, Threads: 8, Schedule: sched.DynamicPolicy(2),
		MPIRanks: 1, Arg: "",
	}, WallTime: 1234567890, Iterations: 10}
	if err := AppendCSV(path, res); err != nil {
		t.Fatal(err)
	}
	if err := AppendCSV(path, res); err != nil { // second append: no new header
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want header + 2", len(rows))
	}
	if rows[0][0] != "machine" || rows[0][len(rows[0])-1] != "time_us" {
		t.Errorf("header = %v", rows[0])
	}
	if rows[1][1] != "mandel" || rows[1][7] != "dynamic,2" || rows[1][11] != "1234567" {
		t.Errorf("row = %v", rows[1])
	}
}

func TestCtxAccessors(t *testing.T) {
	out, err := Run(Config{Kernel: "testgrad", Dim: 64, Iterations: 1, NoDisplay: true})
	if err != nil {
		t.Fatal(err)
	}
	_ = out
}

func TestDefaultTile(t *testing.T) {
	cases := map[int]int{1024: 32, 512: 32, 64: 32, 48: 16, 10: 2, 7: 1}
	for dim, want := range cases {
		if got := defaultTile(dim); got != want {
			t.Errorf("defaultTile(%d) = %d, want %d", dim, got, want)
		}
	}
}
