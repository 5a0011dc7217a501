package sched

// Tests and benchmarks for the epoch-broadcast dispatch core: the
// zero-allocation contract, the staticBlock regression table, and
// race-detector stress over concurrent ParallelFor callers and steal
// storms (run with -race; see DESIGN.md §2-§3).

import (
	"os"
	"os/exec"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// BenchmarkDispatchOverhead measures the pure cost of publishing a
// worksharing construct to a warm team: an empty RangeBody, so nothing but
// the dispatch machinery is on the clock. The acceptance bar for the
// epoch-broadcast refactor is 0 allocs/op (the old channel dispatch paid a
// closure, a channel send per worker and a WaitGroup per loop; see
// EXPERIMENTS.md's dispatch-overhead row).
func BenchmarkDispatchOverhead(b *testing.B) {
	pool := NewPool(0)
	defer pool.Close()
	nop := func(lo, hi, worker int) {}
	for _, bc := range []struct {
		name string
		pol  Policy
	}{
		{"static", StaticPolicy},
		{"dynamic", DynamicPolicy(64)},
		{"guided", GuidedPolicy},
		{"nonmonotonic", Policy{Kind: Nonmonotonic, Chunk: 64}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			// Warm the pool so steal-queue backing arrays reach steady
			// state before allocations are counted.
			pool.ParallelForRanges(4096, bc.pol, nop)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pool.ParallelForRanges(4096, bc.pol, nop)
			}
		})
	}
}

// BenchmarkDispatchOverheadElem is the ParallelFor (per-element) twin: the
// element body rides through the pool's pre-allocated adapter, so it must
// be allocation-free as well.
func BenchmarkDispatchOverheadElem(b *testing.B) {
	pool := NewPool(0)
	defer pool.Close()
	nop := func(i, worker int) {}
	pool.ParallelFor(64, StaticPolicy, nop)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pool.ParallelFor(64, StaticPolicy, nop)
	}
}

// TestDispatchNoAllocs pins the zero-allocation contract in a regular test
// so CI catches regressions without running benchmarks.
func TestDispatchNoAllocs(t *testing.T) {
	pool := NewPool(4)
	defer pool.Close()
	nop := func(lo, hi, worker int) {}
	for _, pol := range []Policy{
		StaticPolicy, StaticChunkPolicy(8), DynamicPolicy(16),
		GuidedPolicy, {Kind: Nonmonotonic, Chunk: 16},
	} {
		pool.ParallelForRanges(1024, pol, nop) // warm queues
		avg := testing.AllocsPerRun(20, func() {
			pool.ParallelForRanges(1024, pol, nop)
		})
		if avg != 0 {
			t.Errorf("%v: %.1f allocs per ParallelForRanges, want 0", pol, avg)
		}
	}
	elem := func(i, worker int) {}
	pool.ParallelFor(64, StaticPolicy, elem)
	if avg := testing.AllocsPerRun(20, func() {
		pool.ParallelFor(64, StaticPolicy, elem)
	}); avg != 0 {
		t.Errorf("ParallelFor: %.1f allocs per call, want 0", avg)
	}
	g := MustTileGrid(64, 8, 8)
	tile := func(x, y, w, h, worker int) {}
	pool.ParallelForTiles(g, DynamicPolicy(2), tile)
	if avg := testing.AllocsPerRun(20, func() {
		pool.ParallelForTiles(g, DynamicPolicy(2), tile)
	}); avg != 0 {
		t.Errorf("ParallelForTiles: %.1f allocs per call, want 0", avg)
	}
	active := []int32{0, 3, 17, 42, 63}
	pool.ParallelForActive(g, active, DynamicPolicy(2), tile)
	if avg := testing.AllocsPerRun(20, func() {
		pool.ParallelForActive(g, active, DynamicPolicy(2), tile)
	}); avg != 0 {
		t.Errorf("ParallelForActive: %.1f allocs per call, want 0", avg)
	}
}

// TestDispatchAfterBodyPanic: a construct whose body panics on member 0
// (the caller) must not poison the next construct with a stale
// descriptor.
func TestDispatchAfterBodyPanic(t *testing.T) {
	pool := NewPool(1) // single worker: the panicking body runs on the caller
	defer pool.Close()
	func() {
		defer func() { recover() }()
		pool.Run(func(worker int) { panic("boom") })
	}()
	ran := false
	pool.ParallelFor(4, StaticPolicy, func(i, w int) { ran = true })
	if !ran {
		t.Error("loop body did not run after a panicking region")
	}
}

// TestDispatchAfterBodyPanicMultiWorker: with background members in
// flight, a member-0 panic must still join the construct before
// unwinding, so a recovered caller sees a quiescent pool and the next
// construct runs cleanly (no overlap, no stale descriptor).
func TestDispatchAfterBodyPanicMultiWorker(t *testing.T) {
	pool := NewPool(4)
	defer pool.Close()
	for round := 0; round < 10; round++ {
		var before atomic.Int32
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("member-0 panic did not propagate to the caller")
				}
			}()
			pool.ParallelFor(64, StaticPolicy, func(i, w int) {
				if w == 0 {
					panic("boom on member 0")
				}
				before.Add(1)
			})
		}()
		var count atomic.Int32
		pool.ParallelFor(64, StaticPolicy, func(i, w int) { count.Add(1) })
		if count.Load() != 64 {
			t.Fatalf("round %d: %d iterations after recovered panic, want 64", round, count.Load())
		}
	}
}

// TestTeamRegionPanicCrashesLoudly: a member-0 panic inside a
// barrier-using region cannot be joined (the other members may be blocked
// at a barrier member 0 will never reach), so it must crash the process
// with a diagnostic — the old channel dispatch's behaviour — rather than
// deadlock silently. Exercised in a subprocess since the crash is fatal.
func TestTeamRegionPanicCrashesLoudly(t *testing.T) {
	if os.Getenv("SCHED_CRASH_HELPER") == "1" {
		pool := NewPool(4)
		defer pool.Close()
		pool.Team(func(tc *TeamCtx) {
			if tc.Rank() == 0 {
				panic("boom on member 0")
			}
			tc.Barrier()
		})
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run", "TestTeamRegionPanicCrashesLoudly$")
	cmd.Env = append(os.Environ(), "SCHED_CRASH_HELPER=1")
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("subprocess did not crash; output:\n%s", out)
	}
	if !strings.Contains(string(out), "parallel region panicked on member 0") {
		t.Fatalf("crash lacks the region-panic diagnostic; output:\n%s", out)
	}
}

// TestUseAfterClosePanics: dispatching on a closed pool must fail loudly
// (the channel-based pool panicked on "send on closed channel"; the epoch
// pool must not silently deadlock instead).
func TestUseAfterClosePanics(t *testing.T) {
	pool := NewPool(2)
	pool.Close()
	defer func() {
		if recover() == nil {
			t.Error("ParallelFor on a closed pool did not panic")
		}
	}()
	pool.ParallelFor(8, StaticPolicy, func(i, w int) {})
}

// TestStaticBlockRegression pins the exact chunk boundaries of
// schedule(static) against a golden table: the dispatch refactor must not
// move a single boundary, or every Fig. 4a-style visualization (and any
// kernel relying on block/rank affinity) silently changes.
func TestStaticBlockRegression(t *testing.T) {
	cases := []struct {
		n, workers int
		want       []indexChunk
	}{
		{10, 3, []indexChunk{{0, 4}, {4, 7}, {7, 10}}},
		{12, 4, []indexChunk{{0, 3}, {3, 6}, {6, 9}, {9, 12}}},
		{7, 4, []indexChunk{{0, 2}, {2, 4}, {4, 6}, {6, 7}}},
		{3, 4, []indexChunk{{0, 1}, {1, 2}, {2, 3}, {3, 3}}},
		{0, 2, []indexChunk{{0, 0}, {0, 0}}},
		{1, 1, []indexChunk{{0, 1}}},
		{4096, 8, []indexChunk{{0, 512}, {512, 1024}, {1024, 1536}, {1536, 2048},
			{2048, 2560}, {2560, 3072}, {3072, 3584}, {3584, 4096}}},
	}
	for _, c := range cases {
		for w, want := range c.want {
			lo, hi := staticBlock(c.n, c.workers, w)
			if lo != want.lo || hi != want.hi {
				t.Errorf("staticBlock(%d, %d, %d) = [%d, %d), want [%d, %d)",
					c.n, c.workers, w, lo, hi, want.lo, want.hi)
			}
		}
	}
}

// TestConcurrentParallelFor hammers one pool from many goroutines issuing
// loops under every policy concurrently. Constructs must serialize (the
// OpenMP worksharing rule) and every loop must still execute each index
// exactly once. Primarily a race-detector workload.
func TestConcurrentParallelFor(t *testing.T) {
	pool := NewPool(4)
	defer pool.Close()
	const goroutines = 8
	rounds := 30
	if testing.Short() {
		rounds = 10
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			pols := allPolicies()
			for r := 0; r < rounds; r++ {
				n := 50 + (g*13+r*7)%200
				var count atomic.Int64
				pool.ParallelFor(n, pols[(g+r)%len(pols)], func(i, w int) {
					count.Add(1)
				})
				if got := count.Load(); got != int64(n) {
					t.Errorf("goroutine %d round %d: %d iterations ran, want %d", g, r, got, n)
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestStealStorm drives the lock-free chunk queues as hard as possible:
// chunk size 1 so every index is a separate steal target, and a body so
// cheap that thieves constantly collide with owners and each other. The
// exactly-once invariant must hold under the storm.
func TestStealStorm(t *testing.T) {
	pool := NewPool(8)
	defer pool.Close()
	const n = 5000
	rounds := 20
	if testing.Short() {
		rounds = 5
	}
	for r := 0; r < rounds; r++ {
		counts := make([]atomic.Int32, n)
		pool.ParallelFor(n, Policy{Kind: Nonmonotonic, Chunk: 1}, func(i, w int) {
			counts[i].Add(1)
		})
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("round %d: index %d executed %d times", r, i, c)
			}
		}
	}
}

// TestChunkQueueConcurrentTakeSteal verifies the packed head/tail CAS
// protocol directly: an owner taking from the front races thieves stealing
// from the back, and every chunk must be delivered to exactly one of them.
func TestChunkQueueConcurrentTakeSteal(t *testing.T) {
	const chunks = 2000
	const thieves = 4
	var q chunkQueue
	q.reset(0, chunks, 1)
	got := make([]atomic.Int32, chunks)
	var wg sync.WaitGroup
	wg.Add(1 + thieves)
	go func() { // owner
		defer wg.Done()
		for {
			c, ok := q.take()
			if !ok {
				return
			}
			got[c.lo].Add(1)
		}
	}()
	for th := 0; th < thieves; th++ {
		go func() {
			defer wg.Done()
			for {
				c, ok := q.steal()
				if !ok {
					return
				}
				got[c.lo].Add(1)
			}
		}()
	}
	wg.Wait()
	for i := range got {
		if c := got[i].Load(); c != 1 {
			t.Fatalf("chunk %d delivered %d times", i, c)
		}
	}
}

// TestGuidedCASMatchesGrantSequence checks that the CAS-based guided loop
// hands out exactly the grant sequence the mutex version produced: sizes
// decrease geometrically from ceil(n/workers) down to the minimum chunk
// and cover the space exactly (single worker, so the sequence is
// deterministic).
func TestGuidedCASMatchesGrantSequence(t *testing.T) {
	pool := NewPool(1)
	defer pool.Close()
	const n, minChunk = 4096, 2
	var sizes []int
	pool.ParallelForRanges(n, Policy{Kind: Guided, Chunk: minChunk}, func(lo, hi, _ int) {
		sizes = append(sizes, hi-lo)
	})
	want := n
	for i, s := range sizes {
		if g := guidedGrant(want, 1, minChunk); s != g {
			t.Fatalf("grant %d = %d, want %d", i, s, g)
		}
		want -= s
	}
	if want != 0 {
		t.Fatalf("grants left %d iterations uncovered", want)
	}
}
