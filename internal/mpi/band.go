package mpi

// Row-band decomposition: the image is split into horizontal bands, one
// per rank, the layout the paper's MPI Game of Life uses (§III-D). Each
// iteration's boundary rows (the "ghost cells") and tile
// meta-information travel through the halo engine (halo.go); the master
// gathers the bands into its image for display.

import "fmt"

// Band is one rank's horizontal slab of a dim x dim image: rows
// [Lo, Hi).
type Band struct {
	Rank int
	Lo   int // first owned row (inclusive)
	Hi   int // last owned row (exclusive)
	Dim  int
}

// Rows returns the number of owned rows.
func (b Band) Rows() int { return b.Hi - b.Lo }

// BandFor computes rank's band of a dim-row image split across size ranks
// as evenly as possible (lower ranks take the extra rows).
func BandFor(dim, size, rank int) Band {
	base := dim / size
	rem := dim % size
	lo := 0
	if rank < rem {
		lo = rank * (base + 1)
		return Band{Rank: rank, Lo: lo, Hi: lo + base + 1, Dim: dim}
	}
	lo = rem*(base+1) + (rank-rem)*base
	return Band{Rank: rank, Lo: lo, Hi: lo + base, Dim: dim}
}

// BandForTiles computes rank's band aligned to tile rows: the dim/tileH
// tile rows are distributed as evenly as possible (lower ranks take the
// extras), so every band boundary falls on a tile boundary and the tile
// frontier's Restrict covers each band exactly. Uneven splits — tile-row
// counts not divisible by size — are first-class: rank 0 of a 3-way
// 1024/32 split owns 11 tile rows, the others 11 and 10. Falls back to
// BandFor when tileH does not divide dim (normalized configs always do).
func BandForTiles(dim, tileH, size, rank int) Band {
	if tileH <= 0 || dim%tileH != 0 {
		return BandFor(dim, size, rank)
	}
	tb := BandFor(dim/tileH, size, rank)
	return Band{Rank: rank, Lo: tb.Lo * tileH, Hi: tb.Hi * tileH, Dim: dim}
}

// GatherBands assembles every rank's band into root's full image, in
// place: this is how the master process refreshes the displayed window
// in EASYPAP's MPI mode. paint writes the caller's band (band.Rows()
// rows of band.Dim pixels, row-major) into the slice it is handed. At
// root that slice is the band's own rows of full, the root's dim*dim
// image; on every other rank it is the body of the message sent to
// root, so no band is copied before it travels and root allocates
// nothing. Non-root ranks pass a nil full.
//
// Each message is self-describing — the sender's Lo/Hi rows lead the
// pixels — so root places whatever band decomposition the ranks
// actually used (BandFor, BandForTiles, anything covering the image)
// instead of assuming one.
func (c *Comm) GatherBands(root int, band Band, full []uint32, paint func(dst []uint32)) error {
	if root < 0 || root >= c.w.size {
		return fmt.Errorf("mpi: invalid root %d", root)
	}
	if band.Lo < 0 || band.Hi < band.Lo || band.Hi > band.Dim {
		return fmt.Errorf("mpi: rank %d: band [%d, %d) outside a %d-row image", c.rank, band.Lo, band.Hi, band.Dim)
	}
	dim := band.Dim
	if c.rank != root {
		msg := make([]uint32, 2+band.Rows()*dim)
		msg[0], msg[1] = uint32(band.Lo), uint32(band.Hi)
		paint(msg[2:])
		return c.Send(root, tagGather, msg)
	}
	if len(full) != dim*dim {
		return fmt.Errorf("mpi: rank %d: gather image has %d pixels, want %d", c.rank, len(full), dim*dim)
	}
	paint(full[band.Lo*dim : band.Hi*dim])
	for r := 0; r < c.w.size; r++ {
		if r == root {
			continue
		}
		// One band from each rank, by source. Nothing collective separates
		// a run's last refresh from its final one, so a rank may already
		// have sent its band for the next gather; taken from any source,
		// that band would stand in for a slower rank's.
		got, from, err := c.Recv(r, tagGather)
		if err != nil {
			return err
		}
		part, ok := got.([]uint32)
		if !ok || len(part) < 2 {
			return fmt.Errorf("mpi: rank %d sent a malformed band", from)
		}
		lo, hi := int(part[0]), int(part[1])
		if lo < 0 || hi < lo || hi > dim || len(part)-2 != (hi-lo)*dim {
			return fmt.Errorf("mpi: rank %d sent a malformed band", from)
		}
		copy(full[lo*dim:hi*dim], part[2:])
	}
	return nil
}
