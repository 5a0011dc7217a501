package store

// Fuzzing of the on-disk decoders — the concurrent-durability discipline
// (McKenney): recovery code is only trustworthy under adversarial input.
// The decoders face whatever a crash, a partial write, or bit rot left
// in the data directory, and the entry and snapshot decoders also face
// whatever a peer sends, so for ANY byte string they must (a) never
// panic, (b) never return a record that fails validation (CRCs are the
// gate — a corrupt record is dropped, not served), and (c) be stable:
// re-encoding what was decoded and decoding again yields the same
// records. Regression inputs live in testdata/fuzz/.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"easypap/internal/core"
)

// flip returns data with single-bit flips, duplications and truncations
// applied according to mutation — deterministic adversarial variants
// driven by the fuzzer's own entropy.
func flip(data []byte, mutation uint32) []byte {
	out := append([]byte(nil), data...)
	if len(out) == 0 {
		return out
	}
	switch mutation % 4 {
	case 1: // flip one bit
		i := int(mutation/4) % len(out)
		out[i] ^= 1 << (mutation % 8)
	case 2: // truncate
		out = out[:int(mutation/4)%(len(out)+1)]
	case 3: // duplicate a slice of itself
		i := int(mutation/4) % len(out)
		out = append(out[:i], append(out[i:], out[i:]...)...)
	}
	return out
}

// FuzzEntryDecode covers the entry decoder, which also parses the
// bodies of replication pushes and replica fetches and is the only check
// an object found by the open walk passes before it is served.
func FuzzEntryDecode(f *testing.F) {
	var valid bytes.Buffer
	if err := EncodeEntry(&valid, testEntry(strings.Repeat("ab", 32), 3)); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes(), uint32(0))
	f.Add(valid.Bytes(), uint32(13)) // bit flip
	f.Add(valid.Bytes(), uint32(42)) // truncation
	f.Add(valid.Bytes(), uint32(7))  // duplication
	f.Add([]byte(fmt.Sprintf("EZSTORE1 ab 2 0 %08x\n{}", checksum([]byte("{}")))), uint32(0))
	f.Add([]byte("EZSTORE1 "+strings.Repeat("a", 64)+" -1 3 zzzzzzzz\nxyz"), uint32(0))
	f.Add([]byte{}, uint32(0))
	f.Fuzz(func(t *testing.T, data []byte, mutation uint32) {
		data = flip(data, mutation)
		e, err := DecodeEntry(bytes.NewReader(data)) // must not panic
		if err != nil {
			return
		}
		// Anything accepted carries a valid key and the payload its
		// header's CRC vouches for.
		head, rest, _ := bytes.Cut(data, []byte("\n"))
		fields := strings.Fields(string(head))
		resLen, _ := strconv.Atoi(fields[2])
		frLen, _ := strconv.Atoi(fields[3])
		crc, _ := strconv.ParseUint(fields[4], 16, 32)
		if !validToken(e.Hash) || e.Hash != fields[1] || len(e.Frames) != frLen ||
			checksum(rest[:resLen+frLen]) != uint32(crc) {
			t.Fatalf("decoder surfaced invalid entry %+v from %q", e, data)
		}
		// Stability: re-encoding what was decoded decodes identically.
		var buf bytes.Buffer
		if err := EncodeEntry(&buf, e); err != nil {
			t.Fatalf("re-encoding accepted entry: %v", err)
		}
		again, err := DecodeEntry(bytes.NewReader(buf.Bytes()))
		if err != nil || !reflect.DeepEqual(e, again) {
			t.Fatalf("re-encode not stable: %+v vs %+v (%v)", e, again, err)
		}
	})
}

func FuzzSnapshotDecode(f *testing.F) {
	var valid bytes.Buffer
	if err := EncodeSnapshot(&valid, &Snapshot{
		PrefixHash: strings.Repeat("ef", 32), Iter: 128,
		State: []byte("EZK1\x00\x01kernel-state"),
	}); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes(), uint32(0))
	f.Add(valid.Bytes(), uint32(13)) // bit flip
	f.Add(valid.Bytes(), uint32(42)) // truncation
	f.Add(valid.Bytes(), uint32(7))  // duplication
	f.Add([]byte("EZSNAP1 ab 0 0 00000000\n"), uint32(0))
	f.Add([]byte("EZSNAP1 "+strings.Repeat("a", 64)+" -1 3 zzzzzzzz\nxyz"), uint32(0))
	f.Add([]byte{}, uint32(0))
	f.Fuzz(func(t *testing.T, data []byte, mutation uint32) {
		data = flip(data, mutation)
		s, err := DecodeSnapshot(bytes.NewReader(data)) // must not panic
		if err != nil {
			return
		}
		// Anything accepted must satisfy the invariants resume relies on:
		// a valid storage key and a positive depth.
		if !validToken(s.PrefixHash) || strings.Contains(s.PrefixHash, snapKeySep) || s.Iter <= 0 {
			t.Fatalf("decoder surfaced invalid snapshot %+v", s)
		}
		if ph, iter, ok := ParseSnapshotKey(SnapshotKey(s.PrefixHash, s.Iter)); !ok || ph != s.PrefixHash || iter != s.Iter {
			t.Fatalf("snapshot key does not round-trip for %+v", s)
		}
		// Stability: re-encoding what was decoded decodes identically.
		var buf bytes.Buffer
		if err := EncodeSnapshot(&buf, s); err != nil {
			t.Fatalf("re-encoding accepted snapshot: %v", err)
		}
		again, err := DecodeSnapshot(bytes.NewReader(buf.Bytes()))
		if err != nil || !reflect.DeepEqual(s, again) {
			t.Fatalf("re-encode not stable: %+v vs %+v (%v)", s, again, err)
		}
	})
}

func FuzzJournalReplay(f *testing.F) {
	cfgJSON := []byte(`{"kernel":"mandel","variant":"seq","dim":64,"schedule":"static","label":"t"}`)
	h := strings.Repeat("cd", 32)
	valid := encodeJournalOpen("j-000001", h, false, cfgJSON) +
		encodeJournalDone("j-000001", "done") +
		encodeJournalOpen("j-000002", h, true, cfgJSON) +
		legacySnap("j-000002", 64)
	f.Add([]byte(valid), uint32(0))
	f.Add([]byte(valid), uint32(21)) // bit flip
	f.Add([]byte(valid), uint32(66)) // truncation
	f.Add([]byte(valid), uint32(11)) // duplication
	f.Add([]byte(encodeJournalOpen("j-000009", h, false, []byte(`not json`))), uint32(0))
	f.Add([]byte("EZJRN open a b 9 9 zzzzzzzz 00000000\n"), uint32(0))
	f.Add([]byte{}, uint32(0))
	// Resurrection: open/done/open of ONE id must replay as one job
	// (this exact shape once produced a duplicate recovery), including
	// with a trailing hwm-style done for the same id.
	f.Add([]byte(encodeJournalOpen("j-000003", h, false, cfgJSON)+
		encodeJournalDone("j-000003", "done")+
		encodeJournalOpen("j-000003", h, false, cfgJSON)), uint32(0))
	f.Add([]byte(encodeJournalDone("j-000004", "hwm")+
		encodeJournalOpen("j-000004", h, false, cfgJSON)), uint32(0))
	// Wrapper payload with a submit time, then the snap records older
	// daemons wrote (one for a never-opened id), which replay skips.
	f.Add([]byte(encodeJournalOpen("j-000005", h, false,
		[]byte(`{"config":`+string(cfgJSON)+`,"submitted":1700000000000000000}`))+
		legacySnap("j-000005", 100)+
		legacySnap("j-000005", 50)+
		legacySnap("j-000777", 9)), uint32(0))
	f.Fuzz(func(t *testing.T, data []byte, mutation uint32) {
		data = flip(data, mutation)
		open := reduceOpen(ReadJournal(bytes.NewReader(data))) // must not panic
		seen := make(map[string]bool)
		for _, r := range open {
			// Replay only surfaces validated open records: recovery must be
			// able to act on every one of them without re-checking.
			if r.Op != "open" || !validToken(r.ID) || !validToken(r.Hash) {
				t.Fatalf("replay surfaced invalid record %+v", r)
			}
			if seen[r.ID] {
				t.Fatalf("replay surfaced duplicate id %q", r.ID)
			}
			seen[r.ID] = true
			// The config decoded from the journal must re-marshal — it is
			// resubmitted to the manager verbatim on recovery.
			if _, err := jsonRoundTrip(r.Config); err != nil {
				t.Fatalf("recovered config does not round-trip: %v", err)
			}
		}
		// Stability: a compacted journal (what openJournal writes at boot)
		// replays to the same open set.
		compacted, err := reencodeJournal(open)
		if err != nil {
			t.Fatalf("reencode: %v", err)
		}
		again := reduceOpen(ReadJournal(bytes.NewReader(compacted)))
		if !reflect.DeepEqual(open, again) {
			t.Fatalf("compaction not stable: %+v vs %+v", open, again)
		}
	})
}

// legacySnap renders a journal snap record as older daemons wrote it.
func legacySnap(id string, iter int) string {
	return appendLineCRC(fmt.Sprintf("%s snap %s %d 0 0 00000000", journalMagic, id, iter))
}

// jsonRoundTrip marshals and unmarshals a config, returning the copy.
func jsonRoundTrip(cfg core.Config) (core.Config, error) {
	data, err := json.Marshal(cfg)
	if err != nil {
		return cfg, err
	}
	var out core.Config
	return out, json.Unmarshal(data, &out)
}
