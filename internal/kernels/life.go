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
	"encoding/binary"
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
	var diff uint64
	for yy := y; yy < y+h; yy++ {
		diff |= lifeRow(b.rowOrZero(b.cur, yy-1), b.row(b.cur, yy), b.rowOrZero(b.cur, yy+1),
			b.row(b.next, yy), x, x+w)
	}
	return diff != 0
}

// lifeRow computes cells [x0, x1) of one row into out from the rows
// above (up), at (mid) and below (dn), and returns the OR of every
// cell's next^cur: nonzero iff a cell changed. Cells with both side
// neighbours inside the world go eight per word (DESIGN.md §15, "Row
// routines"); the world's edge columns and a segment's last cells go
// one at a time through the same rule.
func lifeRow(up, mid, dn, out []uint8, x0, x1 int) uint64 {
	le := binary.LittleEndian
	var diff uint64
	x := x0
	if x == 0 {
		diff |= lifeCell(up, mid, dn, out, 0)
		x = 1
	}
	for end := min(x1, len(mid)-1); x+8 <= end; x += 8 {
		u, m, d := (*[10]uint8)(up[x-1:]), (*[10]uint8)(mid[x-1:]), (*[10]uint8)(dn[x-1:])
		n := le.Uint64(u[0:]) + le.Uint64(u[1:]) + le.Uint64(u[2:]) +
			le.Uint64(m[0:]) + le.Uint64(m[2:]) +
			le.Uint64(d[0:]) + le.Uint64(d[1:]) + le.Uint64(d[2:])
		c := le.Uint64(m[1:])
		v := lifeNext(n, c)
		le.PutUint64(out[x:], v)
		diff |= v ^ c
	}
	for ; x < x1; x++ {
		diff |= lifeCell(up, mid, dn, out, x)
	}
	return diff
}

// lifeCell is the rule for the one cell x; neighbours beyond the
// world's side edges read as dead.
func lifeCell(up, mid, dn, out []uint8, x int) uint64 {
	n := up[x] + dn[x]
	if x > 0 {
		n += up[x-1] + mid[x-1] + dn[x-1]
	}
	if x < len(mid)-1 {
		n += up[x+1] + mid[x+1] + dn[x+1]
	}
	c := uint64(mid[x])
	v := lifeNext(uint64(n), c)
	out[x] = uint8(v)
	return v ^ c
}

// lanes has bit 0 of each of a word's eight byte cells set.
const lanes = 0x0101010101010101

// lifeNext maps each byte's live-neighbour count n (0–8, so sums never
// carry into the next byte) and cell c (0 or 1) to the next cell: alive
// iff (n|c) == 3, which is B3/S23 for a cell in {0, 1}. t is 0 exactly
// there and at most 15, so adding 15 sets bit 4 of every other byte.
func lifeNext(n, c uint64) uint64 {
	t := (n | c) ^ 3*lanes
	return ^(t + 15*lanes) >> 4 & lanes
}
