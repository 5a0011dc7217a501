package monitor

// Renderers for the two monitoring side windows the paper shows in Fig. 3:
// the Tiling window (tile -> thread assignment, or heat map) and the
// Activity Monitor (per-CPU load + cumulated idleness history). Because
// this port is headless, windows are rendered into img2d images and saved
// as PNG by the gfx frame sink.

import (
	"easypap/internal/img2d"
	"easypap/internal/trace"
)

// TilingImage renders the iteration's tile-to-thread assignment at the
// given output size. Each tile is filled with its worker's color
// (img2d.CPUColor) and outlined with a darker border so the decomposition
// is visible — the paper's Fig. 4 view. Tiles nobody computed stay black
// (the lazy Game of Life shows holes, Fig. 13).
func TilingImage(stats IterStats, dim, size int) *img2d.Image {
	out := img2d.New(size)
	out.Fill(img2d.RGB(12, 12, 16))
	for _, rec := range stats.Tiles {
		drawTile(out, rec, dim, size, workerColor(int(rec.Rank), int(rec.CPU)))
	}
	return out
}

// workerColor picks the consistent color for a (rank, worker) pair.
// Workers of rank r are offset so every process gets its own palette
// region, keeping Fig. 13's per-process windows distinguishable.
func workerColor(rank, worker int) img2d.Pixel {
	return img2d.CPUColor(rank*1024 + worker)
}

// HeatImage renders the heat-map mode of the tiling window: brightness
// encodes the duration of the tile's task relative to the slowest tile of
// the iteration (paper Fig. 9).
func HeatImage(stats IterStats, dim, size int) *img2d.Image {
	out := img2d.New(size)
	out.Fill(img2d.Black)
	var maxDur int64 = 1
	for _, rec := range stats.Tiles {
		if d := int64(rec.Duration()); d > maxDur {
			maxDur = d
		}
	}
	for _, rec := range stats.Tiles {
		t := float64(rec.Duration()) / float64(maxDur)
		drawTile(out, rec, dim, size, img2d.HeatColor(t))
	}
	return out
}

// drawTile projects the tile rectangle from image coordinates (dim) into
// window coordinates (size), fills it and draws a subtle border.
func drawTile(out *img2d.Image, rec trace.Event, dim, size int, fill img2d.Pixel) {
	if dim <= 0 {
		return
	}
	x, y := int(rec.X), int(rec.Y)
	x0 := x * size / dim
	y0 := y * size / dim
	x1 := (x + int(rec.W)) * size / dim
	y1 := (y + int(rec.H)) * size / dim
	if x1 <= x0 {
		x1 = x0 + 1
	}
	if y1 <= y0 {
		y1 = y0 + 1
	}
	out.FillRect(x0, y0, x1-x0, y1-y0, fill)
	border := img2d.Scale(fill, img2d.Black, 0.35)
	// Borders only when tiles are at least a few pixels on screen.
	if x1-x0 >= 3 && y1-y0 >= 3 {
		out.FillRect(x0, y0, x1-x0, 1, border)
		out.FillRect(x0, y0, 1, y1-y0, border)
		out.FillRect(x0, y1-1, x1-x0, 1, border)
		out.FillRect(x1-1, y0, 1, y1-y0, border)
	}
}

// FrontierImage renders the lazy-kernel activity heat map: each tile's
// brightness encodes the fraction of iterations it spent in the tile
// frontier (1 = active every iteration, black = never computed). It is
// the cumulative counterpart of TilingImage's per-iteration holes — the
// visual of a frontier collapsing onto the areas that keep changing.
// Returns nil when the monitor recorded no activity (eager kernels).
func FrontierImage(m *Monitor, size int) *img2d.Image {
	counts, tilesX, tilesY, iters := m.ActivityGrid()
	if counts == nil || iters == 0 {
		return nil
	}
	out := img2d.New(size)
	out.Fill(img2d.Black)
	for ty := 0; ty < tilesY; ty++ {
		y0, y1 := ty*size/tilesY, (ty+1)*size/tilesY
		if y1 <= y0 {
			y1 = y0 + 1
		}
		for tx := 0; tx < tilesX; tx++ {
			c := counts[ty*tilesX+tx]
			if c == 0 {
				continue
			}
			x0, x1 := tx*size/tilesX, (tx+1)*size/tilesX
			if x1 <= x0 {
				x1 = x0 + 1
			}
			out.FillRect(x0, y0, x1-x0, y1-y0, img2d.HeatColor(float64(c)/float64(iters)))
		}
	}
	return out
}

// ActivityImage renders the Activity Monitor window: one vertical bar per
// CPU (height = load, color = the CPU's color) over the top 3/4 of the
// window, and the idleness history diagram across the bottom quarter.
func ActivityImage(stats IterStats, history []float64, size int) *img2d.Image {
	out := img2d.New(size)
	out.Fill(img2d.RGB(20, 20, 24))
	n := len(stats.Loads)
	if n == 0 {
		return out
	}
	barArea := size * 3 / 4
	barWidth := size / n
	for w, load := range stats.Loads {
		h := int(load * float64(barArea-4))
		x := w * barWidth
		// Bar background (dim) then the filled portion from the bottom.
		out.FillRect(x+2, 2, barWidth-4, barArea-4, img2d.RGB(35, 35, 40))
		out.FillRect(x+2, barArea-2-h, barWidth-4, h, workerColor(0, w))
	}
	// Idleness history: one column per recorded iteration, height
	// proportional to idleness.
	histTop := barArea + 2
	histH := size - histTop - 2
	if histH > 0 && len(history) > 0 {
		cols := len(history)
		colW := size / cols
		if colW < 1 {
			colW = 1
			cols = size
			history = history[len(history)-cols:]
		}
		for i, idle := range history {
			h := int(idle * float64(histH))
			out.FillRect(i*colW, size-2-h, colW, h, img2d.RGB(200, 80, 80))
		}
	}
	return out
}
