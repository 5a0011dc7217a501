package trace

// Binary trace file format (the .evt files EASYPAP writes, reimagined):
//
//	magic   "EZPT"            4 bytes
//	version uint16            little endian
//	hdrLen  uint32            little endian, length of the JSON header
//	header  JSON-encoded Meta
//	count   uint64            number of events
//	events  count fixed-width little-endian records
//
// Fixed-width records keep the reader trivial and robust; traces compress
// well enough for lab-scale runs (a 100k-event trace is ~4 MB).

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

const (
	magic = "EZPT"
	// formatVersion 2 added the per-task Work counter (see Event.Work).
	formatVersion = 2
	// eventSize is the wire size of one event record.
	eventSize = 4 + 2 + 2 + 1 + 8 + 8 + 4*4 + 8
)

// maxReasonableEvents guards the reader against corrupt counts.
const maxReasonableEvents = 1 << 28

// maxPreallocEvents bounds the events Read reserves room for before they
// arrive (224 KiB): the header's count is only a claim until then.
const maxPreallocEvents = 1 << 12

// Write serializes the trace to w.
func (t *Trace) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(magic); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint16(formatVersion)); err != nil {
		return err
	}
	hdr, err := json.Marshal(t.Meta)
	if err != nil {
		return fmt.Errorf("trace: encoding header: %w", err)
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(hdr))); err != nil {
		return err
	}
	if _, err := bw.Write(hdr); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint64(len(t.Events))); err != nil {
		return err
	}
	var rec [eventSize]byte
	for _, e := range t.Events {
		encodeEvent(&rec, e)
		if _, err := bw.Write(rec[:]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func encodeEvent(rec *[eventSize]byte, e Event) {
	le := binary.LittleEndian
	le.PutUint32(rec[0:], uint32(e.Iter))
	le.PutUint16(rec[4:], uint16(e.CPU))
	le.PutUint16(rec[6:], uint16(e.Rank))
	rec[8] = byte(e.Kind)
	le.PutUint64(rec[9:], uint64(e.Start))
	le.PutUint64(rec[17:], uint64(e.End))
	le.PutUint32(rec[25:], uint32(e.X))
	le.PutUint32(rec[29:], uint32(e.Y))
	le.PutUint32(rec[33:], uint32(e.W))
	le.PutUint32(rec[37:], uint32(e.H))
	le.PutUint64(rec[41:], uint64(e.Work))
}

func decodeEvent(rec []byte) Event {
	le := binary.LittleEndian
	return Event{
		Iter:  int32(le.Uint32(rec[0:])),
		CPU:   int16(le.Uint16(rec[4:])),
		Rank:  int16(le.Uint16(rec[6:])),
		Kind:  EventKind(rec[8]),
		Start: int64(le.Uint64(rec[9:])),
		End:   int64(le.Uint64(rec[17:])),
		X:     int32(le.Uint32(rec[25:])),
		Y:     int32(le.Uint32(rec[29:])),
		W:     int32(le.Uint32(rec[33:])),
		H:     int32(le.Uint32(rec[37:])),
		Work:  int64(le.Uint64(rec[41:])),
	}
}

// Read parses a trace from r.
func Read(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	var m [4]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if string(m[:]) != magic {
		return nil, fmt.Errorf("trace: bad magic %q, not a trace file", m)
	}
	var version uint16
	if err := binary.Read(br, binary.LittleEndian, &version); err != nil {
		return nil, fmt.Errorf("trace: reading version: %w", err)
	}
	if version != formatVersion {
		return nil, fmt.Errorf("trace: unsupported version %d (want %d)", version, formatVersion)
	}
	var hdrLen uint32
	if err := binary.Read(br, binary.LittleEndian, &hdrLen); err != nil {
		return nil, fmt.Errorf("trace: reading header length: %w", err)
	}
	if hdrLen > 1<<20 {
		return nil, fmt.Errorf("trace: implausible header length %d", hdrLen)
	}
	hdr := make([]byte, hdrLen)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	var meta Meta
	if err := json.Unmarshal(hdr, &meta); err != nil {
		return nil, fmt.Errorf("trace: decoding header: %w", err)
	}
	var count uint64
	if err := binary.Read(br, binary.LittleEndian, &count); err != nil {
		return nil, fmt.Errorf("trace: reading event count: %w", err)
	}
	if count > maxReasonableEvents {
		return nil, fmt.Errorf("trace: implausible event count %d", count)
	}
	events := make([]Event, 0, min(count, maxPreallocEvents))
	rec := make([]byte, eventSize)
	for i := uint64(0); i < count; i++ {
		if _, err := io.ReadFull(br, rec); err != nil {
			return nil, fmt.Errorf("trace: reading event %d of %d: %w", i, count, err)
		}
		events = append(events, decodeEvent(rec))
	}
	return &Trace{Meta: meta, Events: events}, nil
}

// Save writes the trace to path, creating parent directories.
func (t *Trace) Save(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	defer f.Close()
	if err := t.Write(f); err != nil {
		return fmt.Errorf("trace: writing %s: %w", path, err)
	}
	return f.Close()
}

// Load reads a trace from path.
func Load(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	defer f.Close()
	t, err := Read(f)
	if err != nil {
		return nil, fmt.Errorf("trace: loading %s: %w", path, err)
	}
	return t, nil
}

// WriteJSON exports the trace as JSON (header + events) for interop with
// external tools.
func (t *Trace) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(struct {
		Meta   Meta    `json:"meta"`
		Events []Event `json:"events"`
	}{t.Meta, t.Events})
}
