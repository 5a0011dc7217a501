package monitor

import "testing"

// TestRecordActivityIntoIterStats: frontier reports accumulate per-tile
// residency counts.
func TestRecordActivityIntoIterStats(t *testing.T) {
	m := New(2, 64)
	m.StartIteration(1)
	m.RecordActivity([]int32{0, 5, 10}, 4, 4)
	m.EndIteration()

	m.StartIteration(2)
	m.RecordActivity([]int32{5, 10}, 4, 4)
	m.EndIteration()

	counts, tx, ty, iters := m.ActivityGrid()
	if tx != 4 || ty != 4 || iters != 2 {
		t.Fatalf("ActivityGrid geometry = %dx%d over %d iters", tx, ty, iters)
	}
	want := map[int]int{0: 1, 5: 2, 10: 2}
	for tile, n := range want {
		if counts[tile] != n {
			t.Errorf("tile %d residency = %d, want %d", tile, counts[tile], n)
		}
	}
	if counts[1] != 0 {
		t.Errorf("untouched tile has residency %d", counts[1])
	}
}

// TestIterationWithoutActivityReportsZero: eager iterations build no
// tile-activity grid.
func TestIterationWithoutActivityReportsZero(t *testing.T) {
	m := New(1, 32)
	m.StartIteration(1)
	m.EndIteration()
	if counts, _, _, _ := m.ActivityGrid(); counts != nil {
		t.Fatal("eager monitor has a tile-activity grid")
	}
}

// TestFrontierImage: the heat map renders nil without activity, and hot
// tiles brighter than cold ones with it.
func TestFrontierImage(t *testing.T) {
	m := New(1, 32)
	if img := FrontierImage(m, 64); img != nil {
		t.Fatal("FrontierImage without activity should be nil")
	}
	m.StartIteration(1)
	m.RecordActivity([]int32{0, 15}, 4, 4)
	m.EndIteration()
	m.StartIteration(2)
	m.RecordActivity([]int32{15}, 4, 4)
	m.EndIteration()
	img := FrontierImage(m, 64)
	if img == nil {
		t.Fatal("FrontierImage with activity is nil")
	}
	// Tile 15 (bottom-right) was active twice, tile 0 once, tile 5 never.
	hot := img.Get(60, 60)
	warm := img.Get(2, 2)
	cold := img.Get(20, 20)
	if hot == cold || warm == cold {
		t.Errorf("active tiles not distinguishable from inactive: hot=%v warm=%v cold=%v",
			hot, warm, cold)
	}
}
