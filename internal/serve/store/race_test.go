package store

// Concurrency torture for the disk tier: Put/Get/Delete of entries and
// snapshots and resume lookups from many goroutines over a shrunken
// byte budget, so eviction, the snapshot index and the singleflight
// read path all run hot while the race detector watches (CI runs this
// under -race -count=2).

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

func TestCacheConcurrentChurn(t *testing.T) {
	dir := t.TempDir()
	one := int64(entryFileSize(t, testEntry(hashN(0), 1)))
	s, err := Open(dir, Options{MaxBytes: 8 * one}) // tight: constant eviction
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const (
		workers = 8
		rounds  = 200
		hashes  = 16 // > budget, so puts evict each other
	)
	prefixes := []string{hashN(0xa1), hashN(0xa2), hashN(0xa3)}
	var wg sync.WaitGroup
	var served atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				h := hashN((w*7 + i) % hashes)
				prefix := prefixes[(w+i)%len(prefixes)]
				switch i % 5 {
				case 0:
					if _, err := s.Cache.Put(testEntry(h, i%hashes)); err != nil {
						t.Error(err)
						return
					}
				case 1:
					if e, ok := s.Cache.Get(h); ok {
						// Whatever a concurrent get returns must be internally
						// consistent — CRC-verified, right hash.
						if e.Hash != h {
							t.Errorf("got entry %s for hash %s", e.Hash, h)
							return
						}
						served.Add(1)
					}
				case 2:
					s.Cache.Delete(h)
				case 3:
					if _, err := s.Cache.Put(&Snapshot{PrefixHash: prefix, Iter: 32 * (1 + i%4), State: []byte("EZK1")}); err != nil {
						t.Error(err)
						return
					}
				default:
					if snap, ok := s.Cache.DeepestSnapshot(prefix, 64); ok && (snap.PrefixHash != prefix || snap.Iter > 64) {
						t.Errorf("DeepestSnapshot(%s, 64) returned %s at %d", prefix, snap.PrefixHash, snap.Iter)
						return
					}
					s.Cache.Delete(SnapshotKey(prefix, 32*(1+i%4)))
				}
			}
		}(w)
	}
	wg.Wait()
	checkIndexKeys(t, s.Cache)
	if s.Cache.Corrupt() != 0 {
		t.Fatalf("churn produced %d corrupt reads", s.Cache.Corrupt())
	}
	if s.Cache.Bytes() > 8*one {
		t.Fatalf("byte budget violated: %d > %d", s.Cache.Bytes(), 8*one)
	}

	// The directory must replay cleanly after the storm.
	s.Close()
	s2, err := Open(dir, Options{MaxBytes: 8 * one})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for i := 0; i < hashes; i++ {
		if e, ok := s2.Cache.Get(hashN(i)); ok && e.Hash != hashN(i) {
			t.Fatalf("post-churn replay served wrong entry")
		}
	}
	checkIndex(t, dir, s2.Cache, prefixes, 1<<30)
}

func TestCacheSingleflightSharesOneRead(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	e := testEntry(hashN(1), 4)
	if _, err := s.Cache.Put(e); err != nil {
		t.Fatal(err)
	}

	const readers = 32
	var wg sync.WaitGroup
	errs := make(chan error, readers)
	start := make(chan struct{})
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got, ok := s.Cache.Get(e.Hash)
			if !ok || got.Hash != e.Hash {
				errs <- fmt.Errorf("singleflight read failed: ok=%v", ok)
			}
		}()
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if h := s.Cache.hits.Load(); h != readers {
		t.Fatalf("hits=%d, want %d (every waiter counts its hit)", h, readers)
	}
}

func TestJournalConcurrentBeginEnd(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testEntry(hashN(0), 1).Result.Config

	const workers = 8
	const jobs = 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < jobs; i++ {
				id := fmt.Sprintf("j-%06d", w*jobs+i+1)
				if err := s.Journal.Begin(id, hashN(i), false, cfg, 0); err != nil {
					t.Error(err)
					return
				}
				if i%2 == 0 {
					if err := s.Journal.End(id, "done"); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	wantOpen := workers * jobs / 2
	if got := s.Journal.OpenCount(); got != wantOpen {
		t.Fatalf("open=%d, want %d", got, wantOpen)
	}
	s.Close()

	// Replay sees exactly the ended-vs-open split despite interleaving
	// and compactions.
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := len(s2.Journal.Recovered()); got != wantOpen {
		t.Fatalf("recovered %d jobs, want %d", got, wantOpen)
	}
}
