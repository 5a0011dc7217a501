package kernels

// Bit-packed Game of Life: 64 cells per machine word, one bit per cell,
// next-state computed branch-free with bit-parallel full adders ("life in
// a register"). Where the byte-per-cell rule sums eight byte cells per
// word (DESIGN.md §15, "Row routines"), this variant advances 64 cells per
// handful of word operations — the kind of data-layout optimization the
// paper's §III-C asks students to discover, and the showcase workload for
// the zero-overhead scheduling core (DESIGN.md §5): at these speeds,
// dispatch overhead is the difference the tiling experiments measure.

import (
	"sync/atomic"

	"easypap/internal/core"
)

// lifeBits is the packed double buffer. Rows are wpr words long; bit i of
// word k in a row is the cell at x = k*64 + i. Cells beyond dim in the
// last word are masked dead, and the world border is dead, matching the
// byte rule (this is a single-rank variant: no ghost rows).
type lifeBits struct {
	dim, wpr  int
	cur, next []uint64
	lastMask  uint64
	zeroRow   []uint64
	changed   atomic.Bool
}

func newLifeBits(dim int) *lifeBits {
	wpr := (dim + 63) / 64
	bb := &lifeBits{
		dim:     dim,
		wpr:     wpr,
		cur:     make([]uint64, dim*wpr),
		next:    make([]uint64, dim*wpr),
		zeroRow: make([]uint64, wpr),
	}
	if r := dim % 64; r != 0 {
		bb.lastMask = (uint64(1) << r) - 1
	} else {
		bb.lastMask = ^uint64(0)
	}
	return bb
}

func (bb *lifeBits) swap() { bb.cur, bb.next = bb.next, bb.cur }

// row returns row y of the given buffer.
func (bb *lifeBits) row(buf []uint64, y int) []uint64 {
	return buf[y*bb.wpr : (y+1)*bb.wpr]
}

// rowOrZero returns row y of cur, or the all-dead row outside the world.
func (bb *lifeBits) rowOrZero(y int) []uint64 {
	if y < 0 || y >= bb.dim {
		return bb.zeroRow
	}
	return bb.row(bb.cur, y)
}

// pack loads the byte board (1 = alive) into the packed cur buffer.
func (bb *lifeBits) pack(cells []uint8) {
	for i := range bb.cur {
		bb.cur[i] = 0
	}
	for y := 0; y < bb.dim; y++ {
		row := bb.row(bb.cur, y)
		base := y * bb.dim
		for x := 0; x < bb.dim; x++ {
			if cells[base+x] != 0 {
				row[x>>6] |= 1 << (uint(x) & 63)
			}
		}
	}
}

// unpack stores the packed cur buffer back into the byte board.
func (bb *lifeBits) unpack(cells []uint8) {
	for y := 0; y < bb.dim; y++ {
		row := bb.row(bb.cur, y)
		base := y * bb.dim
		for x := 0; x < bb.dim; x++ {
			cells[base+x] = uint8(row[x>>6] >> (uint(x) & 63) & 1)
		}
	}
}

// maj64 is the bitwise majority of three words — the carry output of a
// per-bit-position full adder.
func maj64(a, b, c uint64) uint64 { return (a & b) | (c & (a ^ b)) }

// hsum3 computes, for every bit position, the 2-bit count of the cell and
// its two horizontal neighbours: west | center | east, with cross-word
// carries from the adjacent words.
func hsum3(row []uint64, k, wpr int) (s, c uint64) {
	mid := row[k]
	var left, right uint64
	if k > 0 {
		left = row[k-1]
	}
	if k+1 < wpr {
		right = row[k+1]
	}
	west := mid<<1 | left>>63
	east := mid>>1 | right<<63
	return west ^ mid ^ east, maj64(west, mid, east)
}

// stepRows advances rows [lo, hi) of cur into next, branch-free, and
// reports whether any cell in those rows changed. Per word it sums the
// 3x3 neighbourhood (including the center) into a 4-bit per-position
// count via full-adder trees, then applies B3/S23 as
// next = (count==3) | (alive & count==4).
func (bb *lifeBits) stepRows(lo, hi int) bool {
	wpr := bb.wpr
	var diff uint64
	for y := lo; y < hi; y++ {
		up := bb.rowOrZero(y - 1)
		mid := bb.row(bb.cur, y)
		dn := bb.rowOrZero(y + 1)
		out := bb.row(bb.next, y)
		for k := 0; k < wpr; k++ {
			s0u, s1u := hsum3(up, k, wpr)
			s0m, s1m := hsum3(mid, k, wpr)
			s0d, s1d := hsum3(dn, k, wpr)

			// (s1u,s0u) + (s1m,s0m) -> 3-bit partial (r2,r1,r0).
			r0 := s0u ^ s0m
			carry := s0u & s0m
			r1 := s1u ^ s1m ^ carry
			r2 := maj64(s1u, s1m, carry)

			// + (s1d,s0d) -> 4-bit total in [0,9] (t3,t2,t1,t0).
			t0 := r0 ^ s0d
			k0 := r0 & s0d
			t1 := r1 ^ s1d ^ k0
			k1 := maj64(r1, s1d, k0)
			t2 := r2 ^ k1
			t3 := r2 & k1

			alive := mid[k]
			eq3 := ^t3 & ^t2 & t1 & t0
			eq4 := ^t3 & t2 & ^t1 & ^t0
			next := eq3 | (alive & eq4)
			if k == wpr-1 {
				next &= bb.lastMask
			}
			out[k] = next
			diff |= next ^ alive
		}
	}
	return diff != 0
}

// lifeBitpack is the "bitpack" variant: it iterates fully packed with the
// configured schedule over row bands, and unpacks on exit so refresh and
// snapshots see the regular board. It is not MPI-aware (full-board only;
// Config.Normalize rejects MPI runs of non-mpi variants).
func lifeBitpack(ctx *core.Ctx, nbIter int) int {
	b := boardOf[uint8](ctx)
	bb, ok := b.aux.(*lifeBits)
	if !ok {
		// One pack per run (and per restored checkpoint): every compute
		// call ends with an unpack, so the packed buffer and the byte
		// board stay in lockstep across calls and display mode does not
		// pay an O(dim^2) repack per frame.
		bb = newLifeBits(b.dim)
		bb.pack(b.cur)
		b.aux = bb
	}
	dim := b.dim
	done := ctx.ForIterations(nbIter, func(int) bool {
		bb.changed.Store(false)
		ctx.Pool.ParallelForRanges(dim, ctx.Cfg.Schedule, func(lo, hi, worker int) {
			ctx.StartTile(worker)
			if bb.stepRows(lo, hi) {
				bb.changed.Store(true)
			}
			ctx.EndTile(0, lo, dim, hi-lo, worker)
		})
		bb.swap()
		return bb.changed.Load()
	})
	bb.unpack(b.cur)
	return done
}
