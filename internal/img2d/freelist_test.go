package img2d

import (
	"runtime"
	"sync"
	"testing"
)

func TestFreeListGetIsZeroedAndSized(t *testing.T) {
	var f FreeList[uint32]
	a := f.Get(16)
	for i := range a {
		a[i] = 0xdeadbeef
	}
	f.Put(a)
	for _, n := range []int{16, 16, 8} {
		b := f.Get(n)
		if len(b) != n {
			t.Fatalf("Get(%d) returned %d elements", n, len(b))
		}
		for i, v := range b {
			if v != 0 {
				t.Fatalf("Get(%d)[%d] = %#x, want a zeroed buffer", n, i, v)
			}
		}
	}
	f.Put(nil) // nothing to keep
}

func TestLeaseRelease(t *testing.T) {
	im := lease(4)
	im.Fill(White)
	im.Release()
	im.Release() // twice is harmless
	if im.Len() != 0 {
		t.Fatalf("a released image still holds %d pixels", im.Len())
	}
	again := lease(4)
	if again.Dim() != 4 || again.Len() != 16 {
		t.Fatalf("lease(4) gave dim %d, %d pixels", again.Dim(), again.Len())
	}
	for _, p := range again.Pixels() {
		if p != 0 {
			t.Fatal("a leased image is not zeroed")
		}
	}
	b := NewBuffers(4)
	keep := b.Cur()
	b.Swap()
	b.Release(keep)
	if keep.Len() != 16 || b.Cur().Len() != 0 {
		t.Fatalf("Release(keep) kept %d pixels and left %d in the other image", keep.Len(), b.Cur().Len())
	}
}

// TestFreeListOwnersNeverShare: goroutines lease, stamp, check and hand
// back buffers concurrently. A buffer handed to two owners at once shows
// up as a foreign stamp here, and as a data race under -race.
func TestFreeListOwnersNeverShare(t *testing.T) {
	var f FreeList[uint64]
	var wg sync.WaitGroup
	for g := uint64(1); g <= 4; g++ {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				buf := f.Get(64)
				for j := range buf {
					if buf[j] != 0 {
						t.Errorf("owner %d leased a buffer holding %d", id, buf[j])
						return
					}
					buf[j] = id
				}
				runtime.Gosched()
				for j := range buf {
					if buf[j] != id {
						t.Errorf("owner %d found %d in its own buffer", id, buf[j])
						return
					}
				}
				f.Put(buf)
			}
		}(g)
	}
	wg.Wait()
}
