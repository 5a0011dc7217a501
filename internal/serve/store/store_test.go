package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"easypap/internal/core"
)

// testEntry builds a deterministic entry for hash h. The Label is fixed
// so encodings do not depend on the host name.
func testEntry(h string, n int) *Entry {
	return &Entry{
		Hash: h,
		Result: core.Result{
			Config:     core.Config{Kernel: "mandel", Variant: "seq", Dim: 64, TileW: 8, TileH: 8, Iterations: n, Threads: 1, Label: "test"},
			WallTime:   time.Duration(n) * time.Millisecond,
			Iterations: n,
		},
		Frames: []byte(fmt.Sprintf("EZFRAME final %d 4\nPNG%d", n, n%10)),
	}
}

func hashN(n int) string { return fmt.Sprintf("%064x", n) }

func TestEntryRoundTrip(t *testing.T) {
	e := testEntry(hashN(7), 3)
	var buf bytes.Buffer
	if err := EncodeEntry(&buf, e); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeEntry(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Hash != e.Hash || !reflect.DeepEqual(got.Result, e.Result) || !bytes.Equal(got.Frames, e.Frames) {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, e)
	}

	// Any single flipped bit in the payload must be rejected by the CRC.
	raw := buf.Bytes()
	headerEnd := bytes.IndexByte(raw, '\n') + 1
	for _, off := range []int{headerEnd, headerEnd + 5, len(raw) - 1} {
		bad := append([]byte(nil), raw...)
		bad[off] ^= 0x40
		if _, err := DecodeEntry(bytes.NewReader(bad)); err == nil {
			t.Fatalf("bit flip at offset %d not detected", off)
		}
	}
	// Truncation at every boundary must error, never panic.
	for cut := 0; cut < len(raw); cut += 7 {
		if _, err := DecodeEntry(bytes.NewReader(raw[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestCachePutGetEvict(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{MaxBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	e := testEntry(hashN(1), 5)
	if err := s.Cache.Put(e); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Cache.Get(e.Hash)
	if !ok || !reflect.DeepEqual(got.Result, e.Result) || !bytes.Equal(got.Frames, e.Frames) {
		t.Fatalf("get after put: ok=%v got=%+v", ok, got)
	}
	if _, ok := s.Cache.Get(hashN(99)); ok {
		t.Fatal("phantom hit")
	}
	if h, m := s.Cache.Hits(), s.Cache.Misses(); h != 1 || m != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", h, m)
	}

	// Byte-budget eviction: reopen tight and stuff it.
	s.Close()
	one := int64(entryFileSize(t, e))
	s2, err := Open(dir, Options{MaxBytes: 3 * one})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for i := 2; i <= 6; i++ {
		if err := s2.Cache.Put(testEntry(hashN(i), 5)); err != nil {
			t.Fatal(err)
		}
	}
	if n := s2.Cache.Len(); n != 3 {
		t.Fatalf("len=%d after eviction, want 3", n)
	}
	if b := s2.Cache.Bytes(); b != 3*one {
		t.Fatalf("bytes=%d, want %d", b, 3*one)
	}
	// The most recent three survive.
	for i := 4; i <= 6; i++ {
		if _, ok := s2.Cache.Get(hashN(i)); !ok {
			t.Fatalf("entry %d evicted, want newest retained", i)
		}
	}
	for i := 1; i <= 3; i++ {
		if _, ok := s2.Cache.Get(hashN(i)); ok {
			t.Fatalf("entry %d survived past budget", i)
		}
	}
}

func entryFileSize(t *testing.T, e *Entry) int {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodeEntry(&buf, e); err != nil {
		t.Fatal(err)
	}
	return buf.Len()
}

func TestCacheSurvivesReopen(t *testing.T) {
	for _, opts := range []Options{{}, {Fsync: true}} {
		t.Run(fmt.Sprintf("fsync=%v", opts.Fsync), func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			want := make(map[string]*Entry)
			for i := 0; i < 5; i++ {
				e := testEntry(hashN(10+i), i+1)
				want[e.Hash] = e
				if err := s.Cache.Put(e); err != nil {
					t.Fatal(err)
				}
			}
			s.Close()

			s2, err := Open(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Close()
			if n := s2.Cache.Len(); n != 5 {
				t.Fatalf("recovered %d entries, want 5", n)
			}
			for h, e := range want {
				got, ok := s2.Cache.Get(h)
				if !ok {
					t.Fatalf("entry %s lost across reopen", h)
				}
				if !reflect.DeepEqual(got.Result, e.Result) || !bytes.Equal(got.Frames, e.Frames) {
					t.Fatalf("entry %s changed across reopen", h)
				}
			}
		})
	}
}

// TestCacheReopenAfterChurnHistory pins the put/del/put replay bug
// (found in review): an entry spilled, evicted and re-spilled between
// compactions must replay as exactly ONE live entry — the naive
// first-occurrence replay double-inserted it, double-counting bytes and
// orphaning a list element, which could drive evictLocked into an
// infinite loop holding the cache mutex.
func TestCacheReopenAfterChurnHistory(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{MaxBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	e := testEntry(hashN(1), 2)
	if err := s.Cache.Put(e); err != nil {
		t.Fatal(err)
	}
	s.Cache.Delete(e.Hash)
	if err := s.Cache.Put(e); err != nil {
		t.Fatal(err)
	}
	// A second entry re-put (refresh) must replay at its LAST position:
	// after put(old)/put(e2)/put(old refresh), "old" is the most recent.
	old := testEntry(hashN(2), 3)
	if err := s.Cache.Put(old); err != nil {
		t.Fatal(err)
	}
	e3 := testEntry(hashN(3), 4)
	if err := s.Cache.Put(e3); err != nil {
		t.Fatal(err)
	}
	if err := s.Cache.Put(old); err != nil { // refresh
		t.Fatal(err)
	}
	wantBytes := s.Cache.Bytes()
	s.Close()

	s2, err := Open(dir, Options{MaxBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if n := s2.Cache.Len(); n != 3 {
		t.Fatalf("replayed %d entries, want 3 (put/del/put must not double-insert)", n)
	}
	if b := s2.Cache.Bytes(); b != wantBytes {
		t.Fatalf("replayed bytes=%d, want %d", b, wantBytes)
	}
	// Shrink the budget so exactly one entry must go: the eviction victim
	// must be the LRU one (e3), not the refreshed "old".
	s2.Close()
	s3, err := Open(dir, Options{MaxBytes: wantBytes - 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if err := s3.Cache.Put(testEntry(hashN(4), 5)); err != nil {
		t.Fatal(err)
	}
	if _, ok := s3.Cache.Get(old.Hash); !ok {
		t.Fatal("refreshed entry evicted — replay lost its recency")
	}
}

// TestOpenSweepsOrphanObjects: the objects directory is the index, so
// a complete object no put accounted for (a crash right after its
// rename, or one an older daemon's index lost) is an entry after
// reopen, while the .tmp- file of an interrupted put is removed.
func TestOpenSweepsOrphanObjects(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	e := testEntry(hashN(1), 2)
	if err := s.Cache.Put(e); err != nil {
		t.Fatal(err)
	}
	s.Close()

	orphan := testEntry(hashN(2), 3)
	var buf bytes.Buffer
	if err := EncodeEntry(&buf, orphan); err != nil {
		t.Fatal(err)
	}
	writeFile(t, objectFile(dir, orphan.Hash), buf.String())
	tmpPath := filepath.Join(dir, "objects", orphan.Hash[:2], ".tmp-"+orphan.Hash+"-123")
	writeFile(t, tmpPath, "partial")

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, err := os.Stat(tmpPath); !os.IsNotExist(err) {
		t.Fatal("stale temp file not swept at open")
	}
	for _, want := range []*Entry{e, orphan} {
		got, ok := s2.Cache.Get(want.Hash)
		if !ok || !reflect.DeepEqual(got.Result, want.Result) {
			t.Fatalf("entry %s not served after reopen: ok=%v", want.Hash, ok)
		}
	}
	if n, b := s2.Cache.Len(), s2.Cache.Bytes(); n != 2 || b != int64(entryFileSize(t, e)+buf.Len()) {
		t.Fatalf("reopened cache holds %d entries of %d bytes, want 2 of %d", n, b, entryFileSize(t, e)+buf.Len())
	}
}

// TestCacheReopenKeepsWriteOrder: recency across a restart is the order
// of the last writes, exactly, even for puts closer together than the
// filesystem's own timestamps resolve, and even after the wall clock
// fell behind the newest stored object. Keys descend while recency
// ascends, so neither a name order nor a tie broken by name passes.
func TestCacheReopenKeepsWriteOrder(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{MaxBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	want := make([]string, n) // most recent first
	for i := 0; i < n; i++ {
		e := testEntry(hashN(n-i), 1)
		if err := s.Cache.Put(e); err != nil {
			t.Fatal(err)
		}
		want[n-1-i] = e.Hash
	}
	s.Close()

	s2, err := Open(dir, Options{MaxBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.Cache.Hashes(); !reflect.DeepEqual(got, want) {
		t.Fatalf("reopened recency differs from write order:\n got %v\nwant %v", got, want)
	}
	s2.Close()

	// Nor may a wall clock behind the newest object's mtime (a clock
	// stepped back, a data dir from a host whose clock ran ahead)
	// reorder writes: the next put is still the most recent.
	ahead := time.Now().Add(time.Hour)
	if err := os.Chtimes(objectFile(dir, want[0]), ahead, ahead); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(dir, Options{MaxBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	last := testEntry(hashN(n+1), 1)
	if err := s3.Cache.Put(last); err != nil {
		t.Fatal(err)
	}
	s3.Close()
	s4, err := Open(dir, Options{MaxBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s4.Close()
	if got := s4.Cache.Hashes(); got[0] != last.Hash || got[1] != want[0] {
		t.Fatalf("put after a clock step back is not the most recent: %v", got[:2])
	}
}

func TestCacheRejectsCorruptObject(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	e := testEntry(hashN(3), 2)
	if err := s.Cache.Put(e); err != nil {
		t.Fatal(err)
	}
	// Flip a payload bit behind the store's back.
	path := s.Cache.objectPath(e.Hash)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-2] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Cache.Get(e.Hash); ok {
		t.Fatal("corrupt entry served")
	}
	if s.Cache.Corrupt() != 1 {
		t.Fatalf("corrupt counter = %d, want 1", s.Cache.Corrupt())
	}
	// The corrupt entry was dropped entirely.
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("corrupt object file not removed")
	}
	if s.Cache.Len() != 0 {
		t.Fatal("corrupt entry still indexed")
	}
}

func TestJournalRecovery(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{Kernel: "mandel", Dim: 64, Iterations: 3, Threads: 1, Label: "test"}
	if err := s.Journal.Begin("j-000001", hashN(1), false, cfg, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Journal.Begin("j-000002", hashN(2), true, cfg, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Journal.Begin("j-000003", hashN(3), false, cfg, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Journal.End("j-000002", "done"); err != nil {
		t.Fatal(err)
	}
	s.Close() // simulated crash: j-000001 and j-000003 never finished

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	rec := s2.Journal.Recovered()
	if len(rec) != 2 || rec[0].ID != "j-000001" || rec[1].ID != "j-000003" {
		t.Fatalf("recovered %+v, want j-000001 and j-000003 in order", rec)
	}
	if rec[0].Hash != hashN(1) || rec[0].Frames || rec[0].Config.Kernel != "mandel" {
		t.Fatalf("recovered record lost fields: %+v", rec[0])
	}
	if got := s2.Journal.MaxID(); got != 3 {
		t.Fatalf("MaxID=%d, want 3", got)
	}
	// Recovery compacted: the journal now holds exactly the open set
	// plus the id high-water-mark record.
	data, err := os.ReadFile(filepath.Join(dir, "journal.log"))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(ReadJournal(bytes.NewReader(data))); n != 3 {
		t.Fatalf("journal holds %d records after compaction, want 3 (2 open + hwm)", n)
	}
}

// TestJournalMaxIDSurvivesCompaction pins the id-reuse bug (found in
// review): compaction keeps only open records, so without the
// high-water-mark record a restart after all jobs completed would
// restart the id sequence — and a client still polling a pre-restart id
// could be handed a different submitter's job.
func TestJournalMaxIDSurvivesCompaction(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{Kernel: "mandel", Dim: 64, Label: "test"}
	for i := 1; i <= 100; i++ {
		id := fmt.Sprintf("j-%06d", i)
		if err := s.Journal.Begin(id, hashN(i), false, cfg, 0); err != nil {
			t.Fatal(err)
		}
		if err := s.Journal.End(id, "done"); err != nil {
			t.Fatal(err)
		}
	}
	s.Close() // every job done; compaction has certainly run

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if len(s2.Journal.Recovered()) != 0 {
		t.Fatal("nothing should be open")
	}
	if got := s2.Journal.MaxID(); got != 100 {
		t.Fatalf("MaxID=%d after restart, want 100 — ids would be reused", got)
	}
}

// churnJournal opens j-000001..j-000010, then journals 90 begin/end
// pairs (j-000011..j-000100): enough done records to compact the log,
// with the ten open jobs older than every compaction.
func churnJournal(t *testing.T, j *Journal) {
	t.Helper()
	cfg := core.Config{Kernel: "mandel", Dim: 64, Label: "test"}
	for i := 1; i <= 100; i++ {
		id := fmt.Sprintf("j-%06d", i)
		if err := j.Begin(id, hashN(i), false, cfg, int64(i)); err != nil {
			t.Fatal(err)
		}
		if i > 10 {
			if err := j.End(id, "done"); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// checkChurnRecovered asserts a reopened churnJournal: the ten open jobs
// in admission order, and the id high-water mark.
func checkChurnRecovered(t *testing.T, j *Journal) {
	t.Helper()
	var ids []string
	for _, rec := range j.Recovered() {
		ids = append(ids, rec.ID)
	}
	var want []string
	for i := 1; i <= 10; i++ {
		want = append(want, fmt.Sprintf("j-%06d", i))
	}
	if !slices.Equal(ids, want) {
		t.Fatalf("recovered %v, want %v in admission order", ids, want)
	}
	if got := j.MaxID(); got != 100 {
		t.Fatalf("MaxID=%d after reopen, want 100", got)
	}
}

// TestJournalCompactionKeepsAdmissionOrder: compaction rewrites the open
// set in admission order, so recovery re-enqueues jobs in the order they
// were admitted. Ranging over the open map shuffled them.
func TestJournalCompactionKeepsAdmissionOrder(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	churnJournal(t, s.Journal)
	s.Close()
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	checkChurnRecovered(t, s2.Journal)
}

// TestJournalRewriteFsync runs the journal's two rewrites, compaction
// and the compaction at open, with Fsync on: the open set and the id
// high-water mark survive both. (A process test cannot cut the power;
// it pins that the synced path rewrites, renames and reopens correctly.)
func TestJournalRewriteFsync(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	churnJournal(t, s.Journal)
	data, err := os.ReadFile(filepath.Join(dir, "journal.log"))
	if err != nil {
		t.Fatal(err)
	}
	if lines := bytes.Count(data, []byte("\n")); lines >= 190 {
		t.Fatalf("journal holds %d records after 190 were written: it never compacted", lines)
	}
	s.Close()
	for gen := 0; gen < 2; gen++ {
		s2, err := Open(dir, Options{Fsync: true})
		if err != nil {
			t.Fatal(err)
		}
		checkChurnRecovered(t, s2.Journal)
		s2.Close()
	}
	if _, err := os.Stat(filepath.Join(dir, "journal.log.tmp")); !os.IsNotExist(err) {
		t.Fatalf("a rewrite left its temp file behind (%v)", err)
	}
}

func TestJournalTornTail(t *testing.T) {
	cfg := core.Config{Kernel: "mandel", Dim: 64, Label: "test"}
	cfgJSON := []byte(`{"kernel":"mandel","dim":64,"schedule":"static","label":"test"}`)
	var buf bytes.Buffer
	buf.WriteString(encodeJournalOpen("j-000001", hashN(1), false, cfgJSON))
	buf.WriteString(encodeJournalDone("j-000001", "done"))
	buf.WriteString(encodeJournalOpen("j-000002", hashN(2), false, cfgJSON))
	full := buf.String()

	for cut := 0; cut <= len(full); cut++ {
		recs := ReplayJournal(strings.NewReader(full[:cut]))
		for _, r := range recs {
			if r.ID != "j-000001" && r.ID != "j-000002" {
				t.Fatalf("cut %d: phantom job %q", cut, r.ID)
			}
		}
		if cut == len(full) {
			if len(recs) != 1 || recs[0].ID != "j-000002" {
				t.Fatalf("full replay: %+v", recs)
			}
		}
	}
	_ = cfg
}

// TestJournalResurrectedJobRecoversOnce pins two interacting replay
// bugs (found when the cluster bounce test tripped them together): an
// open/done/open history — a job id re-admitted after completing, which
// crash recovery itself produces — must replay as exactly ONE open job,
// and the high-water-mark record written by compaction must not erase
// the open job that happens to hold the highest id.
func TestJournalResurrectedJobRecoversOnce(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{Kernel: "mandel", Dim: 64, Label: "test"}
	if err := s.Journal.Begin("j-000001", hashN(1), false, cfg, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Journal.End("j-000001", "done"); err != nil {
		t.Fatal(err)
	}
	if err := s.Journal.Begin("j-000001", hashN(1), false, cfg, 0); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Two generations: the first rewrites the journal with its hwm
	// record (j-000001 is BOTH the open job and the id high-water mark),
	// the second must still see exactly one open job.
	for gen := 0; gen < 2; gen++ {
		s2, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		rec := s2.Journal.Recovered()
		if len(rec) != 1 || rec[0].ID != "j-000001" {
			t.Fatalf("gen %d recovered %+v, want exactly one j-000001", gen, rec)
		}
		if got := s2.Journal.MaxID(); got != 1 {
			t.Fatalf("gen %d MaxID=%d, want 1", gen, got)
		}
		s2.Close()
	}
}

func TestJournalDuplicateOpenLastWins(t *testing.T) {
	cfgA := []byte(`{"kernel":"mandel","dim":64,"schedule":"static"}`)
	cfgB := []byte(`{"kernel":"mandel","dim":128,"schedule":"static"}`)
	var buf bytes.Buffer
	buf.WriteString(encodeJournalOpen("j-000001", hashN(1), false, cfgA))
	buf.WriteString(encodeJournalOpen("j-000001", hashN(2), false, cfgB))
	recs := ReplayJournal(strings.NewReader(buf.String()))
	if len(recs) != 1 || recs[0].Hash != hashN(2) || recs[0].Config.Dim != 128 {
		t.Fatalf("duplicate open: %+v, want last record to win", recs)
	}
}

// TestDataDirHoldsOnlyObjectsAndJournal: churn leaves no file behind
// besides the live objects and the journal — no index, no temp files —
// and the live set survives a reopen.
func TestDataDirHoldsOnlyObjectsAndJournal(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{MaxBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if err := s.Cache.Put(testEntry(hashN(i%5), 1)); err != nil {
			t.Fatal(err)
		}
		if i%5 == 4 {
			s.Cache.Delete(hashN(i % 3))
		}
	}
	cfg := core.Config{Kernel: "mandel", Dim: 64, Label: "test"}
	if err := s.Journal.Begin("j-000001", hashN(1), false, cfg, 0); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2, err := Open(dir, Options{MaxBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if n := s2.Cache.Len(); n != 4 {
		t.Fatalf("live entries = %d, want 4", n)
	}

	var files []string
	err = filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			rel, _ := filepath.Rel(dir, path)
			files = append(files, filepath.ToSlash(rel))
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"journal.log"}
	for _, h := range s2.Cache.Hashes() {
		want = append(want, "objects/"+h[:2]+"/"+h)
	}
	sort.Strings(files)
	sort.Strings(want)
	if !reflect.DeepEqual(files, want) {
		t.Fatalf("data dir holds %v, want %v", files, want)
	}
}

// TestGetWireServesObjectBytes: replication sends the object file as it
// is, once it has decoded as the record its key names; a corrupted
// object is refused and dropped like one Get meets.
func TestGetWireServesObjectBytes(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	e := testEntry(hashN(4), 2)
	snap := &Snapshot{PrefixHash: hashN(5), Iter: 64, State: []byte("EZK1state")}
	if err := s.Cache.Put(e); err != nil {
		t.Fatal(err)
	}
	if err := s.Cache.PutSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{e.Hash, snap.Key()} {
		want, err := os.ReadFile(objectFile(dir, key))
		if err != nil {
			t.Fatal(err)
		}
		if got, ok := s.Cache.GetWire(key); !ok || !bytes.Equal(got, want) {
			t.Fatalf("GetWire(%s) = %q, %v; want the object file's bytes %q", key, got, ok, want)
		}
	}

	path := objectFile(dir, e.Hash)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-2] ^= 0x01
	writeFile(t, path, string(raw))
	if _, ok := s.Cache.GetWire(e.Hash); ok {
		t.Fatal("GetWire served a corrupted object")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) || s.Cache.Corrupt() != 1 || s.Cache.Len() != 1 {
		t.Fatalf("corrupted object not dropped: stat err %v, corrupt %d, len %d", err, s.Cache.Corrupt(), s.Cache.Len())
	}
}

// headZeros pads the hashes of TestOpenHeadDataDir to 64 hex digits.
const headZeros = "00000000000000000000000000000000000000000000000000000000000000"

// headDataDir is a data dir as the daemon wrote it while the store kept
// a cache.idx beside the objects and journaled checkpoints as snap
// records: two indexed entries and an indexed snapshot, then a journal
// with two open jobs (both with snap records) and one done job.
var headDataDir = map[string]string{
	"cache.idx": "EZIDX put " + headZeros + "a1 260 411ced6b badb2619\n" +
		"EZIDX put " + headZeros + "b2 260 74155b93 07b691d5\n" +
		"EZIDX put " + headZeros + "c3-snap-00000064 96 7671bd2f 854c271d\n",
	"objects/00/" + headZeros + "a1": "EZSTORE1 " + headZeros + "a1 171 0 2c6180a7\n" +
		`{"config":{"kernel":"mandel","dim":64,"iterations":161,"schedule":"static"},"wall_ns":0,"iterations":161,"halos_sent":0,"halos_skipped":0,"halo_bytes":0,"checksum":"c161"}`,
	"objects/00/" + headZeros + "b2": "EZSTORE1 " + headZeros + "b2 171 0 61f9cfa0\n" +
		`{"config":{"kernel":"mandel","dim":64,"iterations":178,"schedule":"static"},"wall_ns":0,"iterations":178,"halos_sent":0,"halos_skipped":0,"halo_bytes":0,"checksum":"c178"}`,
	"objects/00/" + headZeros + "c3-snap-00000064": "EZSNAP1 " + headZeros + "c3 64 9 0b1da576\nEZK1state",
	"journal.log": "EZJRN open j-000001 " + headZeros + "d4 1 106 8c27f9df bb73f2f0\n" +
		`{"config":{"kernel":"life","dim":64,"iterations":100,"schedule":"static"},"submitted":1700000000000000000}` + "\n" +
		"EZJRN snap j-000001 64 0 0 00000000 8bfc232e\n" +
		"EZJRN open j-000002 " + headZeros + "e5 0 74 1e7f49c6 60fefb86\n" +
		`{"config":{"kernel":"life","dim":64,"iterations":100,"schedule":"static"}}` + "\n" +
		"EZJRN snap j-000002 32 0 0 00000000 6a77b15e\n" +
		"EZJRN open j-000003 " + headZeros + "f6 0 74 1e7f49c6 d3aff29a\n" +
		`{"config":{"kernel":"life","dim":64,"iterations":100,"schedule":"static"}}` + "\n" +
		"EZJRN done j-000003 done 0 0 00000000 4a2879b9\n",
}

// TestOpenHeadDataDir upgrades a data dir written with a cache.idx: it
// opens warm. Besides headDataDir it holds a complete object the index
// never listed and the temp file of an interrupted put. Every complete
// object is served, the index and the temp file are gone, and the
// journal's open set is what it was, its snap records ignored.
func TestOpenHeadDataDir(t *testing.T) {
	dir := t.TempDir()
	for name, data := range headDataDir {
		writeFile(t, filepath.Join(dir, name), data)
	}
	unindexed := headZeros + "17"
	writeFile(t, objectFile(dir, unindexed), "EZSTORE1 "+unindexed+" 168 0 549418ec\n"+
		`{"config":{"kernel":"mandel","dim":64,"iterations":23,"schedule":"static"},"wall_ns":0,"iterations":23,"halos_sent":0,"halos_skipped":0,"halo_bytes":0,"checksum":"c23"}`)
	tmpPath := filepath.Join(dir, "objects", "00", ".tmp-"+headZeros+"e5-42")
	writeFile(t, tmpPath, "EZSTORE1 "+headZeros+"e5 9")

	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for key, checksum := range map[string]string{headZeros + "a1": "c161", headZeros + "b2": "c178", unindexed: "c23"} {
		if e, ok := s.Cache.Get(key); !ok || e.Result.Checksum != checksum {
			t.Errorf("entry %s not served after the upgrade: ok=%v %+v", key, ok, e)
		}
	}
	if snap, ok := s.Cache.GetSnapshot(headZeros+"c3", 64); !ok || string(snap.State) != "EZK1state" {
		t.Errorf("snapshot not served after the upgrade: ok=%v %+v", ok, snap)
	}
	for _, gone := range []string{filepath.Join(dir, "cache.idx"), tmpPath} {
		if _, err := os.Stat(gone); !os.IsNotExist(err) {
			t.Errorf("%s survived the upgrade: %v", gone, err)
		}
	}
	rec := s.Journal.Recovered()
	cfg := core.Config{Kernel: "life", Dim: 64, Iterations: 100}
	want := []JournalRec{
		{Op: "open", ID: "j-000001", Hash: headZeros + "d4", Frames: true, Config: cfg, Submitted: 1700000000000000000},
		{Op: "open", ID: "j-000002", Hash: headZeros + "e5", Config: cfg},
	}
	if !reflect.DeepEqual(rec, want) {
		t.Fatalf("recovered %+v, want %+v", rec, want)
	}
	if got := s.Journal.MaxID(); got != 3 {
		t.Fatalf("MaxID=%d, want 3", got)
	}
}

// objectFile is where the store keeps the object of key under dir.
func objectFile(dir, key string) string {
	return filepath.Join(dir, "objects", key[:2], key)
}

// writeFile writes data to path, creating its directory.
func writeFile(t *testing.T, path, data string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
}
