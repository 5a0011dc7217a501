package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"
)

// Tests of the snapshot index (snapIndex) and of the eviction policy it
// serves, against brute-force scans of the live keys.

// scanDeepest is the reference DeepestSnapshot: the deepest iteration at
// or below maxIter among the live snapshot keys of prefix, found by
// parsing every live key. It assumes every live object reads back.
func scanDeepest(live []string, prefix string, maxIter int) (int, bool) {
	best, found := 0, false
	for _, key := range live {
		if p, iter, ok := ParseSnapshotKey(key); ok && p == prefix && iter <= maxIter && (!found || iter > best) {
			best, found = iter, true
		}
	}
	return best, found
}

// scanVictim is the reference eviction victim, given the live keys most
// recently used first: the shallowest snapshot, the least recently used
// among equally shallow ones, else the least recently used key.
func scanVictim(live []string) string {
	victim, depth := "", -1
	for i := len(live) - 1; i >= 0; i-- {
		if _, iter, ok := ParseSnapshotKey(live[i]); ok && (depth < 0 || iter < depth) {
			victim, depth = live[i], iter
		}
	}
	if depth < 0 {
		return live[len(live)-1]
	}
	return victim
}

// sizedSnapshot returns a snapshot of prefix at iter whose file is
// exactly size bytes, so that under a byte budget it trades one for one
// with an entry of that size.
func sizedSnapshot(t testing.TB, prefix string, iter, size int) *Snapshot {
	t.Helper()
	s := &Snapshot{PrefixHash: prefix, Iter: iter}
	for {
		var buf bytes.Buffer
		if err := s.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		if buf.Len() == size {
			return s
		}
		n := len(s.State) + size - buf.Len()
		if n < 0 {
			t.Fatalf("a snapshot of %s at %d does not fit in %d bytes", prefix, iter, size)
		}
		s.State = bytes.Repeat([]byte{'s'}, n)
	}
}

// TestEvictionPolicy pins the eviction order of DESIGN.md §14 under a
// byte budget: every snapshot goes before any result entry, even a less
// recently used one; the shallowest snapshot first, whatever its prefix;
// among equally shallow snapshots the least recently used; and plain LRU
// once no snapshot is left. Every object has the same size, so each put
// beyond the budget evicts exactly one.
func TestEvictionPolicy(t *testing.T) {
	size := entryFileSize(t, testEntry(hashN(1), 5))
	s, err := Open(t.TempDir(), Options{MaxBytes: int64(6 * size)})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	a, b, c := hashN(0xa), hashN(0xb), hashN(0xc)
	for _, r := range []Record{
		testEntry(hashN(1), 5), testEntry(hashN(2), 5),
		sizedSnapshot(t, a, 64, size), sizedSnapshot(t, b, 128, size),
		sizedSnapshot(t, b, 64, size), sizedSnapshot(t, c, 192, size),
	} {
		if _, err := s.Cache.Put(r); err != nil {
			t.Fatal(err)
		}
	}
	// Reads make a@64 the more recently used of the two snapshots at 64,
	// though it was written first, and entry 1 more recent than every
	// snapshot.
	if _, ok := s.Cache.GetSnapshot(a, 64); !ok {
		t.Fatal("snapshot a@64 not stored")
	}
	if _, ok := s.Cache.Get(hashN(1)); !ok {
		t.Fatal("entry 1 not stored")
	}
	if n := s.Cache.Len(); n != 6 {
		t.Fatalf("%d objects stored, want 6 within the budget", n)
	}
	for i, victim := range []string{
		SnapshotKey(b, 64), SnapshotKey(a, 64), SnapshotKey(b, 128), SnapshotKey(c, 192),
		hashN(2), hashN(1), hashN(100),
	} {
		before := s.Cache.Hashes()
		if _, err := s.Cache.Put(testEntry(hashN(100+i), 5)); err != nil {
			t.Fatal(err)
		}
		after := s.Cache.Hashes()
		var gone []string
		for _, key := range before {
			if !slices.Contains(after, key) {
				gone = append(gone, key)
			}
		}
		if !reflect.DeepEqual(gone, []string{victim}) {
			t.Fatalf("put %d evicted %v, want [%s]", i, gone, victim)
		}
	}
}

// parentDataDir is a data dir as the daemon wrote it before the
// snapshot index existed: its object files, their mtimes in nanoseconds
// after the first write, and no other index. Three snapshots share the
// depth 64, the depth above the shallowest.
var parentDataDir = []struct {
	key   string
	mtime int64
	data  string
}{
	{hashN(1), 0, "EZSTORE1 " + hashN(1) + " 165 0 ecb34be9\n" +
		`{"config":{"kernel":"mandel","dim":64,"iterations":1,"schedule":"static"},"wall_ns":0,"iterations":1,"halos_sent":0,"halos_skipped":0,"halo_bytes":0,"checksum":"c1"}`},
	{SnapshotKey(hashN(0xa1), 64), 153120, "EZSNAP1 " + hashN(0xa1) + " 64 9 c9851c03\nEZK1 1@64"},
	{SnapshotKey(hashN(0xa2), 64), 300785, "EZSNAP1 " + hashN(0xa2) + " 64 9 aba7953a\nEZK1 2@64"},
	{SnapshotKey(hashN(0xa4), 32), 420392, "EZSNAP1 " + hashN(0xa4) + " 32 9 146b990b\nEZK1 4@32"},
	{SnapshotKey(hashN(0xa1), 128), 545479, "EZSNAP1 " + hashN(0xa1) + " 128 10 e6e1019c\nEZK1 1@128"},
	{hashN(2), 668629, "EZSTORE1 " + hashN(2) + " 165 0 8a2fdd26\n" +
		`{"config":{"kernel":"mandel","dim":64,"iterations":2,"schedule":"static"},"wall_ns":0,"iterations":2,"halos_sent":0,"halos_skipped":0,"halo_bytes":0,"checksum":"c2"}`},
	{SnapshotKey(hashN(0xa2), 192), 984929, "EZSNAP1 " + hashN(0xa2) + " 192 10 6cc3f271\nEZK1 2@192"},
	{SnapshotKey(hashN(0xa3), 64), 1142414, "EZSNAP1 " + hashN(0xa3) + " 64 9 76e23f82\nEZK1 3@64"},
	{hashN(3), 1255901, "EZSTORE1 " + hashN(3) + " 165 0 a85baf63\n" +
		`{"config":{"kernel":"mandel","dim":64,"iterations":3,"schedule":"static"},"wall_ns":0,"iterations":3,"halos_sent":0,"halos_skipped":0,"halo_bytes":0,"checksum":"c3"}`},
	{SnapshotKey(hashN(0xa1), 192), 1368088, "EZSNAP1 " + hashN(0xa1) + " 192 10 24f04285\nEZK1 1@192"},
	{hashN(4), 1480924, "EZSTORE1 " + hashN(4) + " 165 0 4716f0b8\n" +
		`{"config":{"kernel":"mandel","dim":64,"iterations":4,"schedule":"static"},"wall_ns":0,"iterations":4,"halos_sent":0,"halos_skipped":0,"halo_bytes":0,"checksum":"c4"}`},
}

// writeParentDataDir recreates parentDataDir under dir.
func writeParentDataDir(t *testing.T, dir string) {
	t.Helper()
	base := time.Now().Add(-time.Hour)
	for _, o := range parentDataDir {
		path := objectFile(dir, o.key)
		writeFile(t, path, o.data)
		mtime := base.Add(time.Duration(o.mtime))
		if err := os.Chtimes(path, mtime, mtime); err != nil {
			t.Fatal(err)
		}
	}
}

// checkIndex compares the cache with the brute-force scans of its live
// keys: DeepestSnapshot of every test prefix at maxIter, then what
// checkIndexKeys checks, and the object files and bytes on disk.
func checkIndex(t *testing.T, dir string, c *Cache, prefixes []string, maxIter int) {
	t.Helper()
	for _, p := range prefixes {
		want, wantOK := scanDeepest(c.Hashes(), p, maxIter)
		got, ok := c.DeepestSnapshot(p, maxIter)
		if ok != wantOK || ok && (got.PrefixHash != p || got.Iter != want) {
			t.Fatalf("DeepestSnapshot(%s, %d) = %+v, %v; the scan finds %d, %v", p, maxIter, got, ok, want, wantOK)
		}
	}
	checkIndexKeys(t, c)
	var files []string
	var size int64
	err := filepath.Walk(filepath.Join(dir, "objects"), func(path string, fi os.FileInfo, err error) error {
		if err == nil && fi.Mode().IsRegular() {
			files = append(files, fi.Name())
			size += fi.Size()
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	live := c.Hashes()
	slices.Sort(files)
	slices.Sort(live)
	if !slices.Equal(files, live) || size != c.Bytes() {
		t.Fatalf("objects on disk %v (%d bytes) differ from the live keys %v (%d bytes)", files, size, live, c.Bytes())
	}
}

// checkIndexKeys compares the snapshot index with the brute-force scans
// of the cache's live keys, without reading an object: the next
// eviction victim, and the stored iterations of every prefix.
func checkIndexKeys(t *testing.T, c *Cache) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	var live []string // most recently used first, as Hashes returns them
	for el := c.order.Front(); el != nil; el = el.Next() {
		live = append(live, el.Value.(*diskEntry).hash)
	}
	if len(live) > 0 {
		if victim, want := c.victimLocked().hash, scanVictim(live); victim != want {
			t.Fatalf("next eviction victim %s; the scan picks %s", victim, want)
		}
	}
	// The index itself, not only its answers: a stale iteration would
	// hide behind a read that misses.
	iters := make(map[string][]int)
	for _, key := range live {
		if p, iter, ok := ParseSnapshotKey(key); ok {
			iters[p] = append(iters[p], iter)
		}
	}
	for _, its := range iters {
		slices.Sort(its)
	}
	if !reflect.DeepEqual(c.snaps.iters, iters) {
		t.Fatalf("snapshot index %v differs from the live keys' iterations %v", c.snaps.iters, iters)
	}
}

// TestSnapshotIndexMatchesScan runs seeded random sequences of every
// operation that adds or removes an object — Put of entries and
// snapshots, PutWire, Delete, evictions under a small budget, a corrupt
// object dropped by a read, reads that reorder recency, and reopens —
// starting from a data dir the daemon wrote before the index existed,
// every snapshot of which must resume. After every step DeepestSnapshot
// and the next eviction victim must equal the brute-force scans of the
// live keys.
func TestSnapshotIndexMatchesScan(t *testing.T) {
	prefixes := []string{hashN(0xa1), hashN(0xa2), hashN(0xa3), hashN(0xa4), hashN(0xa5)}
	opts := Options{MaxBytes: 2000}
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			dir := t.TempDir()
			writeParentDataDir(t, dir)
			s, err := Open(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { s.Close() }()
			checkIndex(t, dir, s.Cache, prefixes, 1<<30)
			// Every snapshot the older daemon wrote is a resume point.
			for _, o := range parentDataDir {
				if p, iter, ok := ParseSnapshotKey(o.key); ok {
					if snap, found := s.Cache.DeepestSnapshot(p, iter); !found || snap.Iter != iter {
						t.Fatalf("snapshot %s does not resume after the upgrade: %+v, %v", o.key, snap, found)
					}
				}
			}
			record := func() Record {
				if rng.Intn(2) == 0 {
					return testEntry(hashN(1+rng.Intn(12)), 1+rng.Intn(20))
				}
				return &Snapshot{PrefixHash: prefixes[rng.Intn(len(prefixes))], Iter: 32 * (1 + rng.Intn(6)),
					State: bytes.Repeat([]byte{'s'}, rng.Intn(200))}
			}
			liveKey := func() string {
				live := s.Cache.Hashes()
				if len(live) == 0 {
					return hashN(0xff)
				}
				return live[rng.Intn(len(live))]
			}
			for step := 0; step < 300; step++ {
				switch op := rng.Intn(10); {
				case op < 4:
					if _, err := s.Cache.Put(record()); err != nil {
						t.Fatal(err)
					}
				case op < 6:
					r := record()
					var buf bytes.Buffer
					if err := r.Encode(&buf); err != nil {
						t.Fatal(err)
					}
					if err := s.Cache.PutWire(r.Key(), buf.Bytes()); err != nil {
						t.Fatal(err)
					}
				case op == 6:
					s.Cache.Delete(liveKey())
				case op == 7:
					if key := liveKey(); IsSnapshotKey(key) {
						p, iter, _ := ParseSnapshotKey(key)
						s.Cache.GetSnapshot(p, iter)
					} else {
						s.Cache.Get(key)
					}
				case op == 8 && s.Cache.Len() > 0:
					key := liveKey()
					path := objectFile(dir, key)
					raw, err := os.ReadFile(path)
					if err != nil {
						t.Fatal(err)
					}
					raw[len(raw)-1] ^= 0x01
					writeFile(t, path, string(raw))
					corrupt := s.Cache.Corrupt()
					if _, ok := s.Cache.GetWire(key); ok || s.Cache.Corrupt() != corrupt+1 {
						t.Fatalf("corrupted object %s was served or not counted", key)
					}
				case op == 9:
					s.Close()
					if s, err = Open(dir, opts); err != nil {
						t.Fatal(err)
					}
				}
				checkIndex(t, dir, s.Cache, prefixes, 32*rng.Intn(8))
			}
		})
	}
}
