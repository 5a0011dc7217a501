package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// Scale benchmarks of the disk tier's two snapshot questions, a resume
// lookup and an eviction, in a store of 1,000 and of 50,000 objects: each
// should cost the same at both sizes.
//
//	go test -run '^$' -bench 'BenchmarkDeepestSnapshot|BenchmarkPutEvicting' -benchmem ./internal/serve/store/

// benchObjectSize is the file size of every object the scale benchmarks
// store, so that a put beyond the budget evicts exactly one.
const benchObjectSize = 512

// benchSizes are the store sizes the scale benchmarks compare.
var benchSizes = []int{1000, 50000}

// benchPrefix is the prefix hash of the i-th checkpointed configuration.
func benchPrefix(i int) string { return fmt.Sprintf("%064x", 1<<40+i) }

// writeBenchStore fills dir's objects directory with n objects of
// benchObjectSize bytes, written straight into objects/<hh>/ as a
// long-lived daemon leaves them: nine result entries to one snapshot,
// the snapshots eight to a prefix, at iterations 64 to 512. It returns
// the number of prefixes.
func writeBenchStore(b *testing.B, dir string, n int) int {
	b.Helper()
	var buf bytes.Buffer
	prefixes := 0
	frames := sizedEntry(b, hashN(0), benchObjectSize).Frames
	for i := 0; i < n; i++ {
		var r Record
		if i%10 == 9 {
			snap := i / 10
			prefixes = snap/8 + 1
			r = sizedSnapshot(b, benchPrefix(snap/8), 64*(1+snap%8), benchObjectSize)
		} else {
			e := testEntry(hashN(i), 5)
			e.Frames = frames // hashN has 64 digits, so each entry encodes to the same size
			r = e
		}
		buf.Reset()
		if err := r.Encode(&buf); err != nil {
			b.Fatal(err)
		}
		if buf.Len() != benchObjectSize {
			b.Fatalf("object %s is %d bytes, want %d", r.Key(), buf.Len(), benchObjectSize)
		}
		path := objectFile(dir, r.Key())
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			b.Fatal(err)
		}
	}
	return prefixes
}

// sizedEntry returns an entry for hash whose file is exactly size bytes.
func sizedEntry(tb testing.TB, hash string, size int) *Entry {
	tb.Helper()
	e := testEntry(hash, 5)
	for {
		n := entryFileSize(tb, e)
		if n == size {
			return e
		}
		if len(e.Frames)+size-n < 0 {
			tb.Fatalf("an entry does not fit in %d bytes", size)
		}
		e.Frames = bytes.Repeat([]byte{'f'}, len(e.Frames)+size-n)
	}
}

// openBenchStore opens dir with a budget of exactly n objects.
func openBenchStore(b *testing.B, dir string, n int) *Store {
	b.Helper()
	s, err := Open(dir, Options{MaxBytes: int64(n * benchObjectSize)})
	if err != nil {
		b.Fatal(err)
	}
	if s.Cache.Len() != n {
		b.Fatalf("opened %d objects, want %d", s.Cache.Len(), n)
	}
	return s
}

// BenchmarkDeepestSnapshot is one resume lookup: a hit reads the
// deepest of a prefix's eight snapshots, a miss asks for a prefix with
// none stored. Both sizes ask the same eight prefixes, so only the
// size of the store differs between them.
func BenchmarkDeepestSnapshot(b *testing.B) {
	for _, n := range benchSizes {
		dir := b.TempDir()
		prefixes := writeBenchStore(b, dir, n)
		for _, hit := range []bool{true, false} {
			name := fmt.Sprintf("objects=%d/miss", n)
			if hit {
				name = fmt.Sprintf("objects=%d/hit", n)
			}
			asked := make([]string, 8)
			for p := range asked {
				if asked[p] = benchPrefix(p); !hit {
					asked[p] = benchPrefix(prefixes + p)
				}
			}
			b.Run(name, func(b *testing.B) {
				s := openBenchStore(b, dir, n)
				defer s.Close()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, ok := s.Cache.DeepestSnapshot(asked[i%len(asked)], 1<<30); ok != hit {
						b.Fatalf("DeepestSnapshot(%s) found %v, want %v", asked[i%len(asked)], ok, hit)
					}
				}
			})
		}
	}
}

// BenchmarkPutEvicting is one put into a store at its budget: the
// object is committed and the shallowest snapshot evicted (the least
// recently used entry once the snapshots are gone).
func BenchmarkPutEvicting(b *testing.B) {
	for _, n := range benchSizes {
		dir := b.TempDir()
		writeBenchStore(b, dir, n)
		next := n // a fresh key for every put, across the runs of b.N
		b.Run(fmt.Sprintf("objects=%d", n), func(b *testing.B) {
			s := openBenchStore(b, dir, n)
			defer s.Close()
			frames := sizedEntry(b, hashN(0), benchObjectSize).Frames
			entries := make([]*Entry, b.N)
			for i := range entries {
				entries[i] = testEntry(hashN(next), 5)
				entries[i].Frames = frames
				next++
			}
			b.ReportAllocs()
			b.ResetTimer()
			for _, e := range entries {
				if _, err := s.Cache.Put(e); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if s.Cache.Len() != n {
				b.Fatalf("%d objects after the puts, want %d", s.Cache.Len(), n)
			}
		})
	}
}
