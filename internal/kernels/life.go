package kernels

// Conway's Game of Life, the paper's "putting it all together" assignment
// (§III-D): low-memory kernel-private data structures (the image is only
// touched on graphical refresh), a lazy evaluation algorithm that skips
// tiles whose neighbourhood was steady at the previous iteration, and an
// MPI+OpenMP variant exchanging ghost-cell rows plus per-tile steadiness
// meta-information between processes (Fig. 13). The stencil engine
// (stencil.go) derives all of that from the rule below; only the
// bit-packed variant (life_bitpack.go) has its own compute function.

import (
	"fmt"
	"math/rand"

	"easypap/internal/core"
	"easypap/internal/img2d"
)

func init() {
	(&stencil[uint8]{
		name:           "life",
		description:    "Conway's Game of Life with lazy tile evaluation",
		defaultVariant: "seq",
		lazyVariant:    "lazy",
		palette:        []img2d.Pixel{img2d.Black, img2d.Yellow},
		seed:           lifeSeed,
		rule:           lifeStep,
		rows:           bitRows, // halos ship one bit per cell
		extra:          map[string]core.ComputeFunc{"bitpack": lifeBitpack},
	}).register()
}

// lifeSeed seeds the board according to cfg.Arg:
//
//	"random"  — 25% alive, deterministic from cfg.Seed (default)
//	"diag"    — gliders marching along both diagonals, the sparse
//	            "planers" dataset of Fig. 13
//	"blinker" — a single period-2 oscillator in the center
//	"empty"   — all dead (steady immediately: exercises early convergence)
func lifeSeed(ctx *core.Ctx, b *board[uint8]) error {
	dim := b.dim
	switch ctx.Cfg.Arg {
	case "random", "":
		rng := rand.New(rand.NewSource(ctx.Cfg.Seed + 1))
		for i := range b.cur {
			if rng.Intn(4) == 0 {
				b.cur[i] = 1
			}
		}
	case "diag":
		// Gliders every 16 cells along both diagonals, moving outward.
		for d := 8; d < dim-8; d += 16 {
			placeGlider(b, d, d, false)
			placeGlider(b, d, dim-1-d, true)
		}
	case "blinker":
		c := dim / 2
		for dx := -1; dx <= 1; dx++ {
			b.cur[c*dim+c+dx] = 1
		}
	case "empty":
		// all dead
	default:
		return fmt.Errorf("life: unknown pattern %q (have random, diag, blinker, empty)", ctx.Cfg.Arg)
	}
	return nil
}

// placeGlider stamps a down-right glider at (y, x); mirrored horizontally
// when mirror is set (down-left).
func placeGlider(b *board[uint8], y, x int, mirror bool) {
	shape := [3][3]uint8{
		{0, 1, 0},
		{0, 0, 1},
		{1, 1, 1},
	}
	for dy := 0; dy < 3; dy++ {
		for dx := 0; dx < 3; dx++ {
			xx := x + dx
			if mirror {
				xx = x + 2 - dx
			}
			yy := y + dy
			if yy >= 0 && yy < b.dim && xx >= 0 && xx < b.dim {
				b.cur[yy*b.dim+xx] = shape[dy][dx]
			}
		}
	}
}

// lifeStep applies the B3/S23 rule to every cell of the tile. Rows
// beyond the world edge read as dead; a band's ghost rows are ordinary
// board rows.
func lifeStep(b *board[uint8], x, y, w, h int) bool {
	changed := false
	last := b.dim - 1
	for yy := y; yy < y+h; yy++ {
		up, mid, dn := b.rowOrZero(b.cur, yy-1), b.row(b.cur, yy), b.rowOrZero(b.cur, yy+1)
		out := b.row(b.next, yy)
		for xx := x; xx < x+w; xx++ {
			n := up[xx] + dn[xx]
			if xx > 0 {
				n += up[xx-1] + mid[xx-1] + dn[xx-1]
			}
			if xx < last {
				n += up[xx+1] + mid[xx+1] + dn[xx+1]
			}
			v := uint8(0)
			if n == 3 || n == 2 && mid[xx] != 0 {
				v = 1
			}
			if v != mid[xx] {
				changed = true
			}
			out[xx] = v
		}
	}
	return changed
}
