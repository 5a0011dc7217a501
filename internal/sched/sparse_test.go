package sched

import (
	"sync"
	"sync/atomic"
	"testing"
)

// collectActive runs ParallelForActive and returns how many times each
// tile rectangle was visited, keyed by tile index.
func collectActive(t *testing.T, p *Pool, g TileGrid, active []int32, pol Policy) map[int]int {
	t.Helper()
	var mu sync.Mutex
	seen := make(map[int]int)
	p.ParallelForActive(g, active, pol, func(x, y, w, h, worker int) {
		if w != g.TileW || h != g.TileH {
			t.Errorf("tile at (%d,%d) has size %dx%d, want %dx%d", x, y, w, h, g.TileW, g.TileH)
		}
		mu.Lock()
		seen[g.TileAt(x, y)]++
		mu.Unlock()
	})
	return seen
}

var sparsePolicies = []Policy{
	StaticPolicy,
	{Kind: StaticChunk, Chunk: 2},
	DynamicPolicy(1),
	GuidedPolicy,
	NonmonotonicPolicy,
}

// TestParallelForActiveEmptyFrontier: an empty list is a no-op (and must
// not wake the team or dispatch a zero-trip construct).
func TestParallelForActiveEmptyFrontier(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	g := MustTileGrid(64, 8, 8)
	for _, pol := range sparsePolicies {
		called := atomic.Int32{}
		p.ParallelForActive(g, nil, pol, func(x, y, w, h, worker int) { called.Add(1) })
		p.ParallelForActive(g, []int32{}, pol, func(x, y, w, h, worker int) { called.Add(1) })
		if called.Load() != 0 {
			t.Fatalf("%v: empty frontier dispatched %d tiles", pol, called.Load())
		}
	}
}

// TestParallelForActiveSingleTile: a one-tile frontier visits exactly that
// tile under every policy.
func TestParallelForActiveSingleTile(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	g := MustTileGrid(64, 8, 8)
	for _, pol := range sparsePolicies {
		seen := collectActive(t, p, g, []int32{27}, pol)
		if len(seen) != 1 || seen[27] != 1 {
			t.Fatalf("%v: single-tile frontier visited %v, want tile 27 once", pol, seen)
		}
	}
}

// TestParallelForActiveFullGrid: a full-grid frontier covers every tile
// exactly once, matching ParallelForTiles coverage.
func TestParallelForActiveFullGrid(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	g := MustTileGrid(64, 8, 8)
	full := make([]int32, g.Tiles())
	for i := range full {
		full[i] = int32(i)
	}
	for _, pol := range sparsePolicies {
		seen := collectActive(t, p, g, full, pol)
		if len(seen) != g.Tiles() {
			t.Fatalf("%v: covered %d tiles, want %d", pol, len(seen), g.Tiles())
		}
		for tile, n := range seen {
			if n != 1 {
				t.Fatalf("%v: tile %d visited %d times", pol, tile, n)
			}
		}
	}
}

// TestParallelForActiveSparseSubset: an arbitrary sparse subset visits
// exactly the listed tiles, once each.
func TestParallelForActiveSparseSubset(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	g := MustTileGrid(128, 8, 8) // 256 tiles
	active := []int32{0, 1, 17, 64, 65, 66, 129, 255}
	for _, pol := range sparsePolicies {
		seen := collectActive(t, p, g, active, pol)
		if len(seen) != len(active) {
			t.Fatalf("%v: covered %d tiles, want %d (%v)", pol, len(seen), len(active), seen)
		}
		for _, tile := range active {
			if seen[int(tile)] != 1 {
				t.Fatalf("%v: tile %d visited %d times", pol, tile, seen[int(tile)])
			}
		}
	}
}

// TestParallelForActiveSingleWorkerInline: a 1-worker pool executes the
// frontier inline with no handoff.
func TestParallelForActiveSingleWorkerInline(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	g := MustTileGrid(32, 8, 8)
	seen := collectActive(t, p, g, []int32{3, 7, 11}, DynamicPolicy(1))
	if len(seen) != 3 {
		t.Fatalf("inline dispatch covered %v", seen)
	}
}

// BenchmarkLazyDispatch measures sparse dispatch of a small frontier on a
// warm pool — the steady-state cost ParallelForActive adds per iteration.
// Must report 0 allocs/op: the descriptor, adapters and list are all
// pre-allocated (EXPERIMENTS.md's lazy-speedup row).
func BenchmarkLazyDispatch(b *testing.B) {
	p := NewPool(4)
	defer p.Close()
	g := MustTileGrid(1024, 32, 32) // 1024 tiles
	active := make([]int32, 16)     // ~1.6% of the grid active
	for i := range active {
		active[i] = int32(i * 61)
	}
	var sink atomic.Int64
	body := func(x, y, w, h, worker int) { sink.Add(1) }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.ParallelForActive(g, active, DynamicPolicy(4), body)
	}
}

// BenchmarkLazyDispatchVsDense contrasts sparse dispatch of a 16-tile
// frontier with dense full-grid dispatch over the same 1024-tile grid —
// the cost-proportional-to-active-tiles claim.
func BenchmarkLazyDispatchVsDense(b *testing.B) {
	p := NewPool(4)
	defer p.Close()
	g := MustTileGrid(1024, 32, 32)
	var sink atomic.Int64
	body := func(x, y, w, h, worker int) { sink.Add(1) }
	active := make([]int32, 16)
	for i := range active {
		active[i] = int32(i * 61)
	}
	b.Run("sparse16", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p.ParallelForActive(g, active, DynamicPolicy(4), body)
		}
	})
	b.Run("dense1024", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p.ParallelForTiles(g, DynamicPolicy(4), body)
		}
	})
}
