package store

// Golden-file regression for the on-disk record formats: entry files,
// snapshot files, journal records. A daemon upgrade must be able to read
// the data directory its predecessor wrote — silently drifting the
// encoding would turn every deployed cache cold (and orphan every
// journaled job) on the next release. The file also keeps two record
// kinds only older daemons wrote, the cache.idx index and the journal's
// snap record, as literal bytes: the test feeds them to today's code,
// which must ignore them. Mirrors internal/gfx/stream_golden_test.go.
//
// Refresh after an *intentional* format change with:
//
//	go test ./internal/serve/store/ -run TestStoreGolden -update
//
// and document the migration story in DESIGN.md §9 when you do.

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"easypap/internal/core"
	"easypap/internal/sched"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

const goldenPath = "testdata/store.golden"

// goldenEntry is a fixed, fully deterministic entry: every field that
// could leak environment (hostname label, GOMAXPROCS threads) is pinned.
func goldenEntry() *Entry {
	return &Entry{
		Hash: "00e9c52f7c2fbd637d2f300b2bd93a280e0c293ed0eb536eb7ec4b5bdbabd214",
		Result: core.Result{
			Config: core.Config{
				Kernel: "mandel", Variant: "seq", Dim: 64, TileW: 8, TileH: 8,
				Iterations: 3, Threads: 2, Schedule: sched.DynamicPolicy(4),
				NoDisplay: true, Arg: "zoom", Seed: 42, Label: "golden-host",
			},
			WallTime:   1234567 * time.Nanosecond,
			Iterations: 3,
			Activity: []core.IterActivity{
				{Iter: 1, Active: 64, Total: 64},
				{Iter: 2, Active: 16, Total: 64},
			},
		},
		// Frame payloads are opaque bytes to the store; a literal stream
		// record keeps this golden independent of the PNG encoder (which
		// has its own golden in internal/gfx).
		Frames: []byte("EZFRAME final 3 8\n\x89PNGdata"),
	}
}

// goldenSnapshot is a fixed checkpoint record: the state bytes are
// opaque to the store (the kernel codec owns their meaning), so a
// literal keeps this golden independent of internal/kernels.
func goldenSnapshot() *Snapshot {
	return &Snapshot{
		PrefixHash: "22a4b61f8e09cd48a1b5412d4df75c562a3e49101c2d758fd9ed5a7edcdce436",
		Iter:       200,
		State:      []byte("EZK1\x10\x00kernel-state\x00\x01\x02\x03"),
	}
}

// goldenOther is the hash of the golden index's deleted entry and of the
// journal's frames job.
const goldenOther = "11f1d2a35c97bd2697f3001c3ce84b391f1d382fe1fc647fc8fd5c6cdcbce325"

// legacyIndex is a cache.idx as older daemons wrote it (put/put/del of
// EZIDX records, each sealed by a line CRC). Nothing encodes it any more.
const legacyIndex = "EZIDX put 00e9c52f7c2fbd637d2f300b2bd93a280e0c293ed0eb536eb7ec4b5bdbabd214 4242 deadbeef 26d982d4\n" +
	"EZIDX put " + goldenOther + " 17 00c0ffee ccb3d105\n" +
	"EZIDX del " + goldenOther + " 0 00000000 b67e1eb3\n"

// legacySnapLine is a journal snap record as older daemons wrote it:
// j-000009 has a checkpoint at iteration 200.
const legacySnapLine = "EZJRN snap j-000009 200 0 0 00000000 25732cd3\n"

// encodeGoldenStore renders the golden bytes: one entry file, one
// snapshot file, a legacy index log, and a journal (open/done/open/open,
// then a legacy snap record), separated by section markers so a diff
// localizes which format drifted.
func encodeGoldenStore(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	e := goldenEntry()

	buf.WriteString("-- entry --\n")
	if err := EncodeEntry(&buf, e); err != nil {
		t.Fatal(err)
	}

	buf.WriteString("\n-- snapshot --\n")
	if err := EncodeSnapshot(&buf, goldenSnapshot()); err != nil {
		t.Fatal(err)
	}

	buf.WriteString("\n-- index --\n")
	buf.WriteString(legacyIndex)

	buf.WriteString("-- journal --\n")
	cfgJSON := []byte(`{"kernel":"mandel","variant":"seq","dim":64,"tile_w":8,"tile_h":8,"iterations":3,"threads":2,"schedule":"dynamic,4","no_display":true,"arg":"zoom","seed":42,"label":"golden-host"}`)
	buf.WriteString(encodeJournalOpen("j-000007", e.Hash, false, cfgJSON))
	buf.WriteString(encodeJournalDone("j-000007", "done"))
	buf.WriteString(encodeJournalOpen("j-000008", goldenOther, true, cfgJSON))
	// Wrapper payload (carries the original submit time) — the
	// post-checkpointing open. The bare-config opens above stay: old
	// journals must keep decoding.
	wrapped := []byte(`{"config":` + string(cfgJSON) + `,"submitted":1700000000000000000}`)
	buf.WriteString(encodeJournalOpen("j-000009", e.Hash, false, wrapped))
	buf.WriteString(legacySnapLine)
	return buf.Bytes()
}

func TestStoreGolden(t *testing.T) {
	got := encodeGoldenStore(t)

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", goldenPath, len(got))
		return
	}

	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden file (run with -update to create it): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("on-disk store format drifted from %s (%d vs %d bytes) — a new daemon "+
			"could not read an old data dir; re-golden with -update ONLY for an "+
			"intentional, migration-documented format change", goldenPath, len(got), len(want))
	}

	// The golden bytes must also round-trip through the decoders —
	// telling "format drift" apart from "decoder broke".
	sections := strings.Split(string(want), "-- ")
	if len(sections) != 5 {
		t.Fatalf("golden file has %d sections, want 5", len(sections))
	}
	entryBytes := strings.TrimPrefix(sections[1], "entry --\n")
	e, err := DecodeEntry(strings.NewReader(entryBytes))
	if err != nil {
		t.Fatalf("golden entry does not decode: %v", err)
	}
	wantE := goldenEntry()
	if e.Hash != wantE.Hash || !reflect.DeepEqual(e.Result, wantE.Result) || !bytes.Equal(e.Frames, wantE.Frames) {
		t.Fatalf("golden entry decodes to %+v, want %+v", e, wantE)
	}

	snapBytes := strings.TrimPrefix(sections[2], "snapshot --\n")
	s, err := DecodeSnapshot(strings.NewReader(snapBytes))
	if err != nil {
		t.Fatalf("golden snapshot does not decode: %v", err)
	}
	if wantS := goldenSnapshot(); s.PrefixHash != wantS.PrefixHash || s.Iter != wantS.Iter || !bytes.Equal(s.State, wantS.State) {
		t.Fatalf("golden snapshot decodes to %+v, want %+v", s, wantS)
	}

	// The legacy index is ignored: a data dir holding it beside the
	// golden objects opens with both objects served and the index gone.
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "cache.idx"), strings.TrimPrefix(sections[3], "index --\n"))
	// Each section ends in the newline that separates it from the next.
	writeFile(t, objectFile(dir, wantE.Hash), strings.TrimSuffix(entryBytes, "\n"))
	writeFile(t, objectFile(dir, SnapshotKey(s.PrefixHash, s.Iter)), strings.TrimSuffix(snapBytes, "\n"))
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if got, ok := st.Cache.Get(wantE.Hash); !ok || !reflect.DeepEqual(got.Result, wantE.Result) {
		t.Fatalf("golden entry not served beside a legacy index: ok=%v %+v", ok, got)
	}
	if _, ok := st.Cache.GetSnapshot(s.PrefixHash, s.Iter); !ok {
		t.Fatal("golden snapshot not served beside a legacy index")
	}
	if _, err := os.Stat(filepath.Join(dir, "cache.idx")); !os.IsNotExist(err) {
		t.Fatalf("legacy cache.idx survived the open: %v", err)
	}

	// The legacy snap record is skipped: the journal reads as its four
	// open/done records.
	journalBytes := strings.TrimPrefix(sections[4], "journal --\n")
	jr := ReadJournal(strings.NewReader(journalBytes))
	if len(jr) != 4 || jr[0].Op != "open" || jr[1].Op != "done" || !jr[2].Frames {
		t.Fatalf("golden journal decodes to %+v", jr)
	}
	if jr[0].Config.Kernel != "mandel" || jr[0].Config.Arg != "zoom" {
		t.Fatalf("golden journal config lost fields: %+v", jr[0].Config)
	}
	if jr[3].Submitted != 1700000000000000000 || jr[3].Config.Kernel != "mandel" {
		t.Fatalf("golden wrapper open lost fields: %+v", jr[3])
	}
	open := reduceOpen(ReadJournal(strings.NewReader(journalBytes)))
	if len(open) != 2 || open[0].ID != "j-000008" || open[1].ID != "j-000009" {
		t.Fatalf("golden journal replay: %+v", open)
	}
	// The persisted submit time survives replay.
	if open[1].Submitted != 1700000000000000000 {
		t.Fatalf("replay lost the submit time: %+v", open[1])
	}
}
