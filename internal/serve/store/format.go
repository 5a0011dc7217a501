package store

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"strconv"
	"strings"

	"easypap/internal/core"
)

// The three on-disk record formats of the persistence layer. All follow
// the repo's EZFRAME convention — a one-line ASCII header, then exact
// byte-counted payloads — so `head` and `grep` work on every file the
// daemon writes, and a decoder needs no state beyond "read a line, then
// N bytes". Every record carries a CRC-32C so torn writes and bit rot
// are detected, never served.
//
// Entry file (objects/<hh>/<hash>) — one cached computation:
//
//	EZSTORE1 <hash> <resultLen> <framesLen> <payloadCRC>\n
//	<resultLen bytes: JSON core.Result>
//	<framesLen bytes: gfx frame-stream records (EZFRAME ...); see Entry>
//
// Snapshot file (objects/<hh>/<key>) — one mid-run checkpoint, keyed by
// (Config.PrefixHash, iteration); see SnapshotKey:
//
//	EZSNAP1 <prefixHash> <iter> <stateLen> <payloadCRC>\n
//	<stateLen bytes: kernel StateCodec bytes>
//
// The objects directory is the cache's only index: an object file is
// named by its key, and the record inside names the same key, so the
// file stands alone.
//
// Journal record (journal.log) — write-ahead job log:
//
//	EZJRN open <id> <hash> <frames:0|1> <payloadLen> <payloadCRC> <lineCRC>\n
//	<payloadLen bytes: JSON {"config": core.Config, "submitted": unixNS}>\n
//	EZJRN done <id> <state> 0 0 00000000 <lineCRC>\n
//
// The open payload wraps the config with the job's original submit time
// so a recovered job keeps its queue age; a payload that is a bare
// core.Config (the pre-checkpointing form) still decodes, with a zero
// submit time. Records of an op the decoder does not know are per-line
// errors and skipped: the "snap" records older daemons wrote (a
// checkpoint's iteration, now read from the store itself) replay as
// nothing, and so would any op a newer daemon adds.
//
// <payloadCRC> and <lineCRC> are 8 lower-hex digits of CRC-32C. In an
// entry file the payload CRC covers result+frames bytes (in a snapshot
// file the state bytes); in a journal open record it covers the config
// JSON. lineCRC covers the header line up to (not including) the space
// before it, so a flipped bit anywhere in a header invalidates exactly
// that record. Replay is last-record-wins per job id, which makes
// duplicated records (a crash between append and in-memory update, or a
// retried write) harmless. The format is pinned by testdata/store.golden.

const (
	entryMagic   = "EZSTORE1"
	snapMagic    = "EZSNAP1"
	journalMagic = "EZJRN"

	// maxPayload bounds any single decoded payload (result JSON, config
	// JSON, frame bytes) so a corrupt length field cannot make a decoder
	// attempt a multi-gigabyte allocation.
	maxPayload = 1 << 30
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

func checksum(parts ...[]byte) uint32 {
	var c uint32
	for _, p := range parts {
		c = crc32.Update(c, crcTable, p)
	}
	return c
}

// validToken reports whether s is safe to embed in a space-separated
// ASCII header: non-empty, printable, no whitespace.
func validToken(s string) bool {
	if s == "" || len(s) > 128 {
		return false
	}
	for i := 0; i < len(s); i++ {
		if s[i] <= ' ' || s[i] >= 0x7f {
			return false
		}
	}
	return true
}

// --- entry files ------------------------------------------------------

// Entry is one cached computation: the performance result, whose
// Checksum pins the final image's pixels, plus a frames section in the
// gfx frame-stream wire format. The daemon writes that section empty:
// no endpoint serves a cached run's image. Entries written by older
// daemons, or pushed by older peers, hold a single "final" EZFRAME
// record of the finished image there; they decode and CRC-check like
// any other, and replication carries their bytes along unread.
type Entry struct {
	Hash   string
	Result core.Result
	Frames []byte
}

// EncodeEntry writes the entry-file form of e to w.
func EncodeEntry(w io.Writer, e *Entry) error {
	if !validToken(e.Hash) {
		return fmt.Errorf("store: invalid entry hash %q", e.Hash)
	}
	res, err := json.Marshal(e.Result)
	if err != nil {
		return fmt.Errorf("store: encoding result for %s: %w", e.Hash, err)
	}
	crc := checksum(res, e.Frames)
	if _, err := fmt.Fprintf(w, "%s %s %d %d %08x\n", entryMagic, e.Hash, len(res), len(e.Frames), crc); err != nil {
		return err
	}
	if _, err := w.Write(res); err != nil {
		return err
	}
	_, err = w.Write(e.Frames)
	return err
}

// DecodeEntry parses one entry file, verifying the payload CRC and that
// the payload really is a result. It never panics on corrupt input: any
// truncation, length overflow or checksum mismatch is an error, and the
// caller treats an error as a cache miss.
func DecodeEntry(r io.Reader) (*Entry, error) {
	br := bufio.NewReader(r)
	line, err := br.ReadString('\n')
	if err != nil {
		return nil, fmt.Errorf("store: reading entry header: %w", err)
	}
	fields := strings.Fields(strings.TrimSuffix(line, "\n"))
	if len(fields) != 5 || fields[0] != entryMagic {
		return nil, fmt.Errorf("store: malformed entry header %q", line)
	}
	hash := fields[1]
	if !validToken(hash) {
		return nil, fmt.Errorf("store: invalid hash in entry header %q", line)
	}
	resLen, err1 := strconv.Atoi(fields[2])
	frLen, err2 := strconv.Atoi(fields[3])
	wantCRC, err3 := strconv.ParseUint(fields[4], 16, 32)
	if err1 != nil || err2 != nil || err3 != nil ||
		resLen < 0 || frLen < 0 || resLen > maxPayload || frLen > maxPayload {
		return nil, fmt.Errorf("store: malformed entry header %q", line)
	}
	res := make([]byte, resLen)
	if _, err := io.ReadFull(br, res); err != nil {
		return nil, fmt.Errorf("store: truncated entry result: %w", err)
	}
	frames := make([]byte, frLen)
	if _, err := io.ReadFull(br, frames); err != nil {
		return nil, fmt.Errorf("store: truncated entry frames: %w", err)
	}
	if got := checksum(res, frames); uint32(wantCRC) != got {
		return nil, fmt.Errorf("store: entry %s payload CRC mismatch (want %08x, got %08x)", hash, wantCRC, got)
	}
	e := &Entry{Hash: hash, Frames: frames}
	if err := json.Unmarshal(res, &e.Result); err != nil {
		return nil, fmt.Errorf("store: entry %s result does not decode: %w", hash, err)
	}
	return e, nil
}

// --- snapshot files ---------------------------------------------------

// Snapshot is one mid-run checkpoint: the kernel's StateCodec bytes at
// iteration Iter of the configuration trajectory PrefixHash
// (core.Config.PrefixHash — the canonical hash with the iteration count
// excluded, so every run of the same prefix shares the key space).
type Snapshot struct {
	PrefixHash string
	Iter       int
	State      []byte
}

// snapKeySep separates the prefix hash from the iteration in a snapshot
// object key.
const snapKeySep = "-snap-"

// SnapshotKey renders the cache object key of a snapshot: the prefix
// hash plus the zero-padded iteration, sortable within a prefix and
// disjoint from result-entry keys (hex hashes never contain '-').
func SnapshotKey(prefixHash string, iter int) string {
	return fmt.Sprintf("%s%s%08d", prefixHash, snapKeySep, iter)
}

// ParseSnapshotKey splits a snapshot object key back into its prefix
// hash and iteration; ok is false for non-snapshot keys.
func ParseSnapshotKey(key string) (prefixHash string, iter int, ok bool) {
	i := strings.LastIndex(key, snapKeySep)
	if i < 0 {
		return "", 0, false
	}
	n, err := strconv.Atoi(key[i+len(snapKeySep):])
	if err != nil || n < 0 {
		return "", 0, false
	}
	return key[:i], n, true
}

// IsSnapshotKey reports whether a cache object key names a snapshot.
func IsSnapshotKey(key string) bool {
	_, _, ok := ParseSnapshotKey(key)
	return ok
}

// EncodeSnapshot writes the snapshot-file form of s to w.
func EncodeSnapshot(w io.Writer, s *Snapshot) error {
	if !validToken(s.PrefixHash) || strings.Contains(s.PrefixHash, snapKeySep) {
		return fmt.Errorf("store: invalid snapshot prefix hash %q", s.PrefixHash)
	}
	if s.Iter <= 0 {
		return fmt.Errorf("store: invalid snapshot iteration %d", s.Iter)
	}
	if _, err := fmt.Fprintf(w, "%s %s %d %d %08x\n", snapMagic, s.PrefixHash, s.Iter, len(s.State), checksum(s.State)); err != nil {
		return err
	}
	_, err := w.Write(s.State)
	return err
}

// Record is an object the cache holds under its key: a result entry or
// a checkpoint. Encode writes its file form, which is also its wire
// form: Cache.Put encodes this daemon's records once, and Cache.PutWire
// stores the bytes a peer sent, as sent, once they decode.
type Record interface {
	Key() string
	Encode(w io.Writer) error
}

// ErrInvalidRecord is wrapped by every error of bytes that do not
// decode as the record their key names.
var ErrInvalidRecord = errors.New("store: invalid record")

// decodeObject decodes the file (and wire) form of the record stored
// under key — a snapshot under a snapshot key, else an entry — which
// must verify and name key itself: the one place a key picks a decoder.
func decodeObject(key string, data []byte) (Record, error) {
	var rec Record
	var err error
	if IsSnapshotKey(key) {
		rec, err = DecodeSnapshot(bytes.NewReader(data))
	} else {
		rec, err = DecodeEntry(bytes.NewReader(data))
	}
	if err != nil {
		return nil, fmt.Errorf("%w under %s: %w", ErrInvalidRecord, key, err)
	}
	if rec.Key() != key {
		return nil, fmt.Errorf("%w: object %s holds record %s", ErrInvalidRecord, key, rec.Key())
	}
	return rec, nil
}

func (e *Entry) Key() string                 { return e.Hash }
func (e *Entry) Encode(w io.Writer) error    { return EncodeEntry(w, e) }
func (s *Snapshot) Key() string              { return SnapshotKey(s.PrefixHash, s.Iter) }
func (s *Snapshot) Encode(w io.Writer) error { return EncodeSnapshot(w, s) }

// DecodeSnapshot parses one snapshot file, verifying the payload CRC.
// Like DecodeEntry it never panics on corrupt input: truncation, length
// overflow and checksum mismatch are errors the caller treats as a
// missing checkpoint.
func DecodeSnapshot(r io.Reader) (*Snapshot, error) {
	br := bufio.NewReader(r)
	line, err := br.ReadString('\n')
	if err != nil {
		return nil, fmt.Errorf("store: reading snapshot header: %w", err)
	}
	fields := strings.Fields(strings.TrimSuffix(line, "\n"))
	if len(fields) != 5 || fields[0] != snapMagic {
		return nil, fmt.Errorf("store: malformed snapshot header %q", line)
	}
	s := &Snapshot{PrefixHash: fields[1]}
	if !validToken(s.PrefixHash) || strings.Contains(s.PrefixHash, snapKeySep) {
		return nil, fmt.Errorf("store: invalid prefix hash in snapshot header %q", line)
	}
	iter, err1 := strconv.Atoi(fields[2])
	stLen, err2 := strconv.Atoi(fields[3])
	wantCRC, err3 := strconv.ParseUint(fields[4], 16, 32)
	if err1 != nil || err2 != nil || err3 != nil ||
		iter <= 0 || stLen < 0 || stLen > maxPayload {
		return nil, fmt.Errorf("store: malformed snapshot header %q", line)
	}
	s.Iter = iter
	s.State = make([]byte, stLen)
	if _, err := io.ReadFull(br, s.State); err != nil {
		return nil, fmt.Errorf("store: truncated snapshot state: %w", err)
	}
	if got := checksum(s.State); uint32(wantCRC) != got {
		return nil, fmt.Errorf("store: snapshot %s@%d payload CRC mismatch (want %08x, got %08x)",
			s.PrefixHash, s.Iter, wantCRC, got)
	}
	return s, nil
}

// --- journal records --------------------------------------------------

// JournalRec is one decoded record of the job journal.
type JournalRec struct {
	Op        string // "open" or "done"
	ID        string
	Hash      string      // open only
	Frames    bool        // open only
	Config    core.Config // open only
	Submitted int64       // open only: original submit time, unix ns (0 = unknown)
	State     string      // done only: the terminal JobState
}

// journalOpenPayload is the JSON payload of an open record: the config
// wrapped with the original submit time, so a recovered job does not
// lose its queue age to the restart. Bare core.Config payloads (the
// pre-checkpointing form) are still accepted on read.
type journalOpenPayload struct {
	Config    core.Config `json:"config"`
	Submitted int64       `json:"submitted,omitempty"`
}

// encodeJournalOpen renders a job-admitted record: header line plus the
// payload JSON on its own line (json.Marshal emits no raw newlines, so
// the journal stays line-oriented and a decoder can resynchronize after
// corruption).
func encodeJournalOpen(id, hash string, frames bool, payloadJSON []byte) string {
	fr := 0
	if frames {
		fr = 1
	}
	head := fmt.Sprintf("%s open %s %s %d %d %08x", journalMagic, id, hash, fr, len(payloadJSON), checksum(payloadJSON))
	return appendLineCRC(head) + string(payloadJSON) + "\n"
}

// encodeJournalDone renders a job-terminal record.
func encodeJournalDone(id, state string) string {
	head := fmt.Sprintf("%s done %s %s 0 0 00000000", journalMagic, id, state)
	return appendLineCRC(head)
}

// appendLineCRC seals a header line: the line CRC over everything
// written so far, then newline.
func appendLineCRC(head string) string {
	return fmt.Sprintf("%s %08x\n", head, checksum([]byte(head)))
}

// decodeJournalHeader parses one journal header line. For open records
// the payload length is returned so the caller can consume the next
// line as the config JSON.
func decodeJournalHeader(line string) (rec JournalRec, cfgLen int, payloadCRC uint32, err error) {
	i := strings.LastIndexByte(line, ' ')
	if i < 0 {
		return rec, 0, 0, fmt.Errorf("store: malformed journal record %q", line)
	}
	wantCRC, perr := strconv.ParseUint(line[i+1:], 16, 32)
	if perr != nil || len(line[i+1:]) != 8 || uint32(wantCRC) != checksum([]byte(line[:i])) {
		return rec, 0, 0, fmt.Errorf("store: journal record CRC mismatch %q", line)
	}
	fields := strings.Fields(line[:i])
	if len(fields) != 7 || fields[0] != journalMagic {
		return rec, 0, 0, fmt.Errorf("store: malformed journal record %q", line)
	}
	rec.Op, rec.ID = fields[1], fields[2]
	if !validToken(rec.ID) {
		return rec, 0, 0, fmt.Errorf("store: invalid job id in journal record %q", line)
	}
	switch rec.Op {
	case "open":
		rec.Hash = fields[3]
		if !validToken(rec.Hash) {
			return rec, 0, 0, fmt.Errorf("store: invalid hash in journal record %q", line)
		}
		fr, err1 := strconv.Atoi(fields[4])
		n, err2 := strconv.Atoi(fields[5])
		pcrc, err3 := strconv.ParseUint(fields[6], 16, 32)
		if err1 != nil || err2 != nil || err3 != nil || fr < 0 || fr > 1 || n < 0 || n > maxPayload {
			return rec, 0, 0, fmt.Errorf("store: malformed journal record %q", line)
		}
		rec.Frames = fr == 1
		return rec, n, uint32(pcrc), nil
	case "done":
		rec.State = fields[3]
		if !validToken(rec.State) {
			return rec, 0, 0, fmt.Errorf("store: invalid state in journal record %q", line)
		}
		return rec, 0, 0, nil
	default:
		return rec, 0, 0, fmt.Errorf("store: unknown journal op %q", rec.Op)
	}
}

// ReadJournal decodes a journal log in file order. It skips corrupt
// records and records of ops it does not know, and tolerates a torn
// tail, never panicking; an open header whose config payload fails its
// CRC (or does not decode as a config) invalidates just that record.
func ReadJournal(r io.Reader) []JournalRec {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), maxPayload)
	var recs []JournalRec
	for sc.Scan() {
		rec, cfgLen, payloadCRC, err := decodeJournalHeader(sc.Text())
		if err != nil {
			continue
		}
		if rec.Op == "open" {
			if !sc.Scan() {
				break // torn tail: header landed, payload did not
			}
			payload := sc.Bytes()
			if len(payload) != cfgLen || checksum(payload) != payloadCRC {
				continue
			}
			// A payload carrying a "config" key is the wrapper form
			// ({"config":..., "submitted":...}); without one it is the
			// legacy bare-config form, which reads with a zero submit
			// time. Detection is structural (key presence), so the
			// decode-encode-decode cycle of compaction is a fixed point.
			var probe struct {
				Config    json.RawMessage `json:"config"`
				Submitted int64           `json:"submitted"`
			}
			if json.Unmarshal(payload, &probe) != nil {
				continue
			}
			if probe.Config != nil {
				if json.Unmarshal(probe.Config, &rec.Config) != nil {
					continue
				}
				rec.Submitted = probe.Submitted
			} else if json.Unmarshal(payload, &rec.Config) != nil {
				continue
			}
		}
		recs = append(recs, rec)
	}
	return recs
}

// reduceOpen reduces decoded journal records to the jobs that were
// admitted but never reached a terminal state — the jobs a restarted
// daemon must recover — in admission order. Last record wins per id:
// duplicated opens overwrite, a done for an unknown id is a no-op. The
// ONE implementation of this reduction — openJournal recovery and the
// fuzz/golden oracles must not be allowed to diverge.
func reduceOpen(recs []JournalRec) []JournalRec {
	open := make(map[string]JournalRec)
	var order []string
	seen := make(map[string]bool) // ids ever appended to order — an id
	// resurrected by open/done/open must not enter order twice, or the
	// job would be recovered (and re-run) twice.
	for _, rec := range recs {
		switch rec.Op {
		case "open":
			if !seen[rec.ID] {
				seen[rec.ID] = true
				order = append(order, rec.ID)
			}
			open[rec.ID] = rec
		case "done":
			delete(open, rec.ID)
		}
	}
	out := make([]JournalRec, 0, len(open))
	for _, id := range order {
		if rec, ok := open[id]; ok {
			out = append(out, rec)
		}
	}
	return out
}

// reencodeJournal renders the compacted journal: the open records, each
// with its original submit time.
func reencodeJournal(open []JournalRec) ([]byte, error) {
	var buf bytes.Buffer
	for _, rec := range open {
		payload, err := json.Marshal(journalOpenPayload{Config: rec.Config, Submitted: rec.Submitted})
		if err != nil {
			return nil, err
		}
		buf.WriteString(encodeJournalOpen(rec.ID, rec.Hash, rec.Frames, payload))
	}
	return buf.Bytes(), nil
}
