package monitor

// Pattern analysis over tile-ownership grids: programmatic versions of what
// students observe visually in the tiling window. The paper's Fig. 4
// characterizes the four scheduling policies by their assignment shapes,
// and Fig. 8 spots two patterns under dynamic scheduling of small tiles:
// same-color horizontal stripes (cheap rows swallowed by one or two
// threads) and quasi-cyclic color distribution (uniformly heavy areas).

// RowRuns returns, for each grid row, the lengths of the maximal runs of
// consecutive tiles owned by the same worker. Unowned tiles (-1) break
// runs and are excluded.
func RowRuns(grid [][]int) [][]int {
	out := make([][]int, len(grid))
	for y, row := range grid {
		var runs []int
		i := 0
		for i < len(row) {
			if row[i] < 0 {
				i++
				continue
			}
			j := i
			for j < len(row) && row[j] == row[i] {
				j++
			}
			runs = append(runs, j-i)
			i = j
		}
		out[y] = runs
	}
	return out
}

// ContiguousBlocks reports whether the (row-major flattened) ownership
// sequence consists of exactly one contiguous block per worker in
// increasing worker order — the signature of schedule(static) in Fig. 4a.
func ContiguousBlocks(grid [][]int) bool {
	prev := -1
	seen := map[int]bool{}
	for _, row := range grid {
		for _, w := range row {
			if w < 0 {
				return false
			}
			if w != prev {
				if seen[w] {
					return false // worker appears in two separate blocks
				}
				seen[w] = true
				prev = w
			}
		}
	}
	return true
}

// StripeRows returns the indices of rows entirely owned by at most two
// alternating workers — the paper's Fig. 8 "Pattern 1": stripes of one or
// two colors where tiles are cheap enough that one or two threads compute
// whole rows while the others chew on expensive areas.
func StripeRows(grid [][]int) []int {
	var rows []int
	for y, row := range grid {
		owners := map[int]bool{}
		ok := true
		for _, w := range row {
			if w < 0 {
				ok = false
				break
			}
			owners[w] = true
		}
		if ok && len(owners) <= 2 && len(row) >= 4 {
			rows = append(rows, y)
		}
	}
	return rows
}

// CyclicScore measures how close a region's ownership is to a perfect
// cyclic distribution (Fig. 8 "Pattern 2"): for each pair of horizontally
// adjacent tiles, a point is scored when the owners differ; the result is
// the fraction of differing adjacent pairs in [0,1]. A cyclic distribution
// scores ~1, a striped one ~0.
func CyclicScore(grid [][]int, y0, y1 int) float64 {
	pairs, diff := 0, 0
	for y := y0; y < y1 && y < len(grid); y++ {
		row := grid[y]
		for x := 1; x < len(row); x++ {
			if row[x-1] < 0 || row[x] < 0 {
				continue
			}
			pairs++
			if row[x] != row[x-1] {
				diff++
			}
		}
	}
	if pairs == 0 {
		return 0
	}
	return float64(diff) / float64(pairs)
}

// RunLengthHistogram aggregates RowRuns into a histogram keyed by run
// length. Guided scheduling (Fig. 4d) shows a spread of decreasing run
// lengths; dynamic with chunk k concentrates near k.
func RunLengthHistogram(grid [][]int) map[int]int {
	hist := make(map[int]int)
	for _, runs := range RowRuns(grid) {
		for _, r := range runs {
			hist[r]++
		}
	}
	return hist
}
