package kernels

// Property-based tests on kernel invariants, using testing/quick where the
// input space is enumerable and direct generation where images are needed.

import (
	"math/rand"
	"testing"
	"testing/quick"

	"easypap/internal/core"
	"easypap/internal/img2d"
	"easypap/internal/sched"
	"easypap/internal/tilegrid"
)

// randomImage fills a dim x dim image with seeded noise.
func randomImage(dim int, seed int64) *img2d.Image {
	im := img2d.New(dim)
	rng := rand.New(rand.NewSource(seed))
	pix := im.Pixels()
	for i := range pix {
		pix[i] = img2d.RGB(uint8(rng.Intn(256)), uint8(rng.Intn(256)), uint8(rng.Intn(256)))
	}
	return im
}

// TestQuickBlurFastEqualsSafeInside: on interior tiles, the branch-free
// blur core must compute exactly what the bounds-checked reference
// computes, for arbitrary images and tile positions.
func TestQuickBlurFastEqualsSafeInside(t *testing.T) {
	const dim = 48
	f := func(seed int64, xr, yr uint8) bool {
		src := randomImage(dim, seed)
		a, b := img2d.New(dim), img2d.New(dim)
		// Interior rectangle: keep one pixel away from every edge.
		x := 1 + int(xr)%(dim-17)
		y := 1 + int(yr)%(dim-17)
		blurTileSafe(src, a, dim, x, y, 16, 16)
		blurTileFast(src, b, x, y, 16, 16)
		for yy := y; yy < y+16; yy++ {
			for xx := x; xx < x+16; xx++ {
				if a.Get(yy, xx) != b.Get(yy, xx) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQuickInvertInvolution: invert(invert(p)) == p for every pixel value.
func TestQuickInvertInvolution(t *testing.T) {
	f := func(p uint32) bool {
		return invertPixel(invertPixel(p)) == p
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickInvertPreservesAlpha: inversion flips color channels only.
func TestQuickInvertPreservesAlpha(t *testing.T) {
	f := func(p uint32) bool {
		return img2d.A(invertPixel(p)) == img2d.A(p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickTransposeTileIsExactTranspose: transposing arbitrary tiles then
// reading back gives src[y][x] == dst[x][y].
func TestQuickTransposeTileIsExactTranspose(t *testing.T) {
	const dim = 32
	f := func(seed int64, tileRaw uint8) bool {
		src := randomImage(dim, seed)
		dst := img2d.New(dim)
		g := sched.MustTileGrid(dim, 8, 8)
		tile := int(tileRaw) % g.Tiles()
		x, y, w, h := g.Coords(tile)
		transposeTile(src, dst, x, y, w, h)
		for yy := y; yy < y+h; yy++ {
			for xx := x; xx < x+w; xx++ {
				if dst.Get(xx, yy) != src.Get(yy, xx) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickLifeLazyEqualsSeq: for arbitrary random seeds, the lazy variant
// matches the sequential one after several generations.
func TestQuickLifeLazyEqualsSeq(t *testing.T) {
	f := func(seedRaw uint16) bool {
		seed := int64(seedRaw)
		ref, err := core.Run(core.Config{Kernel: "life", Variant: "seq", Dim: 32,
			TileW: 8, TileH: 8, Iterations: 5, Seed: seed, NoDisplay: true})
		if err != nil {
			return false
		}
		lazy, err := core.Run(core.Config{Kernel: "life", Variant: "lazy", Dim: 32,
			TileW: 8, TileH: 8, Iterations: 5, Seed: seed, NoDisplay: true,
			Threads: 4, Schedule: sched.DynamicPolicy(1)})
		if err != nil {
			return false
		}
		return ref.Final.Equal(lazy.Final)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// TestASandpileAbelianProperty is the deep invariant of the asynchronous
// sandpile: the stable configuration does not depend on the topple order.
// Sequential sweeps, parallel tiled execution under different schedules,
// and the synchronous kernel must all stabilize to the same board.
func TestASandpileAbelianProperty(t *testing.T) {
	const dim = 32
	run := func(kernel, variant string, pol sched.Policy) []uint32 {
		t.Helper()
		cfg := core.Config{Kernel: kernel, Variant: variant, Dim: dim,
			TileW: 8, TileH: 8, Iterations: 1 << 20, NoDisplay: true,
			Threads: 4, Schedule: pol}
		out, err := core.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if out.Iterations >= 1<<20 {
			t.Fatalf("%s/%s did not stabilize", kernel, variant)
		}
		// Convert the final image back to grain classes 0..3 via the
		// palette is lossy; instead rerun via snapshot helpers is not
		// possible post-Run. Compare final images: the palette is
		// injective on 0..3 grains, and stable boards only hold 0..3.
		return pixelsAsGrains(out.Final)
	}
	refAsync := run("asandpile", "seq", sched.StaticPolicy)
	parDyn := run("asandpile", "omp_tiled", sched.DynamicPolicy(1))
	parSteal := run("asandpile", "omp_tiled", sched.NonmonotonicPolicy)
	sync := run("sandpile", "seq", sched.StaticPolicy)
	for i := range refAsync {
		if refAsync[i] != parDyn[i] {
			t.Fatalf("async parallel (dynamic) differs from async seq at %d: %d != %d",
				i, parDyn[i], refAsync[i])
		}
		if refAsync[i] != parSteal[i] {
			t.Fatalf("async parallel (steal) differs from async seq at %d", i)
		}
		if refAsync[i] != sync[i] {
			t.Fatalf("synchronous sandpile differs from async at %d: %d != %d",
				i, sync[i], refAsync[i])
		}
	}
}

// pixelsAsGrains inverts the sandpile palette (stable cells only).
func pixelsAsGrains(im *img2d.Image) []uint32 {
	palette := map[img2d.Pixel]uint32{
		img2d.Black:              0,
		img2d.RGB(60, 60, 160):   1,
		img2d.RGB(80, 160, 220):  2,
		img2d.RGB(240, 240, 170): 3,
	}
	out := make([]uint32, im.Len())
	for i, p := range im.Pixels() {
		out[i] = palette[p]
	}
	return out
}

// TestASandpileGrainConservation: until grains start falling off the
// absorbing border, toppling conserves the total grain count. With a small
// interior pile the first iterations keep everything inside. Both the
// whole-board sweep of seq and the engine's parity-phased parallel sweep
// (4 workers, plain adds across tile rims) must conserve.
func TestASandpileGrainConservation(t *testing.T) {
	const dim = 16
	grid := sched.MustTileGrid(dim, 4, 4)
	pile := func() *board[uint32] {
		b := &board[uint32]{dim: dim, cur: make([]uint32, dim*dim), tileW: 4, tileH: 4,
			fr: tilegrid.New(grid)}
		b.cur[8*dim+8] = 40 // one tall central pile
		return b
	}
	total := func(b *board[uint32]) (sum uint32) {
		for _, v := range b.cur {
			sum += v
		}
		return
	}
	seq := pile()
	before := total(seq)
	for i := 0; i < 3; i++ {
		asandStep(seq, 0, 0, dim, dim)
		if got := total(seq); got != before {
			t.Fatalf("grains not conserved: %d -> %d", before, got)
		}
	}

	pool := sched.NewPool(4)
	defer pool.Close()
	ctx := &core.Ctx{Pool: pool, Grid: grid, Cfg: core.Config{Schedule: sched.DynamicPolicy(1)}}
	s := &stencil[uint32]{inPlace: true, rule: asandStep}
	par := pile()
	body := s.tileBody(ctx, par, nil)
	for i := 0; i < 3; i++ {
		s.sweep(ctx, par, nil, body)
		if got := total(par); got != before {
			t.Fatalf("parallel sweep %d lost grains: %d -> %d", i+1, before, got)
		}
	}
}

// TestASandpileRejectsOneCellTiles: two same-phase tiles one cell wide
// (or high) would add into the one cell between them at once, so the
// parallel variants refuse such tilings; seq, which never splits the
// board, accepts them.
func TestASandpileRejectsOneCellTiles(t *testing.T) {
	for _, tile := range [][2]int{{1, 4}, {4, 1}} {
		for _, variant := range []string{"omp_tiled", "lazy_omp"} {
			_, err := core.Run(core.Config{Kernel: "asandpile", Variant: variant, Dim: 8,
				TileW: tile[0], TileH: tile[1], Iterations: 1, Threads: 2, NoDisplay: true})
			if err == nil {
				t.Errorf("asandpile/%s accepted %dx%d tiles", variant, tile[0], tile[1])
			}
		}
	}
	runKernel(t, core.Config{Kernel: "asandpile", Variant: "seq", Dim: 8, TileW: 1, TileH: 1,
		Iterations: 1})
}

func TestScrollupVariantsMatchSeq(t *testing.T) {
	assertVariantsMatchSeq(t, "scrollup", 64, 16, 5, []string{"omp", "omp_tiled"}, testSchedules)
}

// TestScrollupFullCycleIsIdentity: scrolling dim times returns the
// original image.
func TestScrollupFullCycleIsIdentity(t *testing.T) {
	const dim = 32
	out := runKernel(t, core.Config{Kernel: "scrollup", Dim: dim, TileW: 8, TileH: 8,
		Iterations: dim})
	fresh := img2d.New(dim)
	testPattern(fresh)
	if !out.Final.Equal(fresh) {
		t.Error("scrolling a full cycle did not restore the image")
	}
	one := runKernel(t, core.Config{Kernel: "scrollup", Dim: dim, TileW: 8, TileH: 8,
		Iterations: 1})
	if one.Final.Equal(fresh) {
		t.Error("one scroll step left the image unchanged")
	}
	// Row 0 after one step is the original row 1.
	for x := 0; x < dim; x++ {
		if one.Final.Get(0, x) != fresh.Get(1, x) {
			t.Fatalf("scrolled row 0 pixel %d mismatch", x)
		}
	}
}

// TestMandelDeterministicAcrossSchedules: the mandel image is a pure
// function of the viewport, so any schedule and thread count must yield
// the same pixels (quick-checked over schedules).
func TestMandelDeterministicAcrossSchedules(t *testing.T) {
	ref := runKernel(t, core.Config{Kernel: "mandel", Dim: 64, TileW: 8, TileH: 8,
		Iterations: 1})
	f := func(kindRaw, chunkRaw, threadsRaw uint8) bool {
		kinds := []sched.PolicyKind{sched.Static, sched.StaticChunk, sched.Dynamic,
			sched.Guided, sched.Nonmonotonic}
		pol := sched.Policy{Kind: kinds[int(kindRaw)%len(kinds)], Chunk: int(chunkRaw)%8 + 1}
		threads := int(threadsRaw)%8 + 1
		out, err := core.Run(core.Config{Kernel: "mandel", Variant: "omp_tiled",
			Dim: 64, TileW: 8, TileH: 8, Iterations: 1, NoDisplay: true,
			Threads: threads, Schedule: pol})
		if err != nil {
			return false
		}
		return out.Final.Equal(ref.Final)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
