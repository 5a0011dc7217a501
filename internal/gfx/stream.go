package gfx

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"easypap/internal/img2d"
)

// The frame stream format is how easypapd serves live frames over HTTP
// (GET /v1/jobs/{id}/frames): a sequence of self-delimiting records, each
// a one-line ASCII header followed by the PNG bytes:
//
//	EZFRAME <window> <iter> <png-bytes>\n
//	<png-bytes bytes of PNG data>
//
// The header is trivially greppable, the payload is a standard PNG, and a
// reader needs no state beyond "read a line, then N bytes" — deliberately
// simpler than multipart MIME so curl users can split it with a ten-line
// script.
//
// Streams negotiated as FormatDelta interleave a second record type,
// EZDELTA, carrying dirty-tile patches between keyframes (see delta.go).

// streamMagic starts every full-frame header line.
const streamMagic = "EZFRAME"

// MaxRecordPayload bounds the payload size a stream reader will accept
// from a wire header, so a corrupt or malicious length field cannot make
// the decoder attempt an arbitrarily large allocation (same discipline as
// the store's index decoder). Frames are dim² PNGs — 64 MiB is far above
// any legitimate record.
const MaxRecordPayload = 64 << 20

// ErrRecordTooLarge is returned when a stream header announces a payload
// larger than MaxRecordPayload.
var ErrRecordTooLarge = errors.New("gfx: frame record exceeds size cap")

// ErrMalformedHeader is returned (wrapped, with detail) when a stream
// header line does not parse.
var ErrMalformedHeader = errors.New("gfx: malformed frame header")

// StreamFormat selects the wire encoding of a served frame stream.
type StreamFormat string

const (
	// FormatFull is the default golden-pinned stream: every record a
	// self-contained EZFRAME PNG.
	FormatFull StreamFormat = "full"
	// FormatDelta interleaves EZDELTA dirty-tile patch records between
	// periodic EZFRAME keyframes. Clients opt in via ?format=delta or
	// Accept: application/x-easypap-frames-delta.
	FormatDelta StreamFormat = "delta"
)

// RecordKind distinguishes the record types of a delta-format stream.
type RecordKind int

const (
	// RecordFull is a self-contained EZFRAME PNG record (a keyframe, in a
	// delta stream).
	RecordFull RecordKind = iota
	// RecordDelta is an EZDELTA dirty-tile patch record, meaningful only
	// relative to the window's previous frame.
	RecordDelta
)

// Record is one decoded record of either kind. Encode reproduces the
// exact wire bytes, so proxies can re-publish records without caring
// about the payload.
type Record struct {
	Kind    RecordKind
	Window  string
	Iter    int
	Payload []byte // PNG bytes (RecordFull) or delta payload (RecordDelta)
}

// ReadRecord reads the next record of a frame stream, EZFRAME or
// EZDELTA. It returns io.EOF at a clean end of stream,
// io.ErrUnexpectedEOF on a truncated record, and errors wrapping
// ErrMalformedHeader on a header that does not parse and
// ErrRecordTooLarge on one announcing more than MaxRecordPayload bytes.
func ReadRecord(r *bufio.Reader) (*Record, error) {
	line, err := r.ReadString('\n')
	if err == io.EOF && line == "" {
		return nil, io.EOF
	}
	if err == io.EOF {
		return nil, io.ErrUnexpectedEOF
	}
	if err != nil {
		return nil, err
	}
	rec := &Record{}
	var magic string
	var size int
	if _, err := fmt.Sscanf(strings.TrimSuffix(line, "\n"), "%s %s %d %d", &magic, &rec.Window, &rec.Iter, &size); err != nil {
		return nil, fmt.Errorf("%w: %q", ErrMalformedHeader, line)
	}
	if size < 0 {
		return nil, fmt.Errorf("%w: negative size in %q", ErrMalformedHeader, line)
	}
	if size > MaxRecordPayload {
		return nil, fmt.Errorf("%w: %d bytes in %q (cap %d)", ErrRecordTooLarge, size, line, MaxRecordPayload)
	}
	switch magic {
	case streamMagic:
		rec.Kind = RecordFull
	case deltaMagic:
		rec.Kind = RecordDelta
	default:
		return nil, fmt.Errorf("%w: magic %q", ErrMalformedHeader, magic)
	}
	rec.Payload = make([]byte, size)
	if _, err := io.ReadFull(r, rec.Payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return rec, nil
}

// Encode returns the record's wire encoding (header line + payload), the
// record being the encode's only allocation.
func (rec *Record) Encode() []byte {
	return append(rec.header(len(rec.Payload)), rec.Payload...)
}

// header returns the record's header line, "%s %s %d %d\n" of magic,
// window, iter and payload size, built without fmt in one allocation
// with room for spare more bytes.
func (rec *Record) header(spare int) []byte {
	magic := streamMagic
	if rec.Kind == RecordDelta {
		magic = deltaMagic
	}
	buf := make([]byte, 0, len(magic)+len(rec.Window)+44+spare)
	buf = append(append(append(buf, magic...), ' '), rec.Window...)
	buf = strconv.AppendInt(append(buf, ' '), int64(rec.Iter), 10)
	buf = strconv.AppendInt(append(buf, ' '), int64(len(rec.Payload)), 10)
	return append(buf, '\n')
}

// checkWindow rejects a window name that would split the header line.
func checkWindow(window string) error {
	if strings.ContainsAny(window, " \t\n") {
		return fmt.Errorf("gfx: window name %q contains whitespace", window)
	}
	return nil
}

// EncodeFrameRecord builds the wire bytes of one EZFRAME record from an
// already-encoded PNG payload.
func EncodeFrameRecord(window string, iter int, png []byte) ([]byte, error) {
	if err := checkWindow(window); err != nil {
		return nil, err
	}
	rec := Record{Kind: RecordFull, Window: window, Iter: iter, Payload: png}
	return rec.Encode(), nil
}

// EncodeDeltaRecord builds the wire bytes of one EZDELTA record from an
// encoded delta payload (see EncodeDelta).
func EncodeDeltaRecord(window string, iter int, payload []byte) ([]byte, error) {
	if err := checkWindow(window); err != nil {
		return nil, err
	}
	rec := Record{Kind: RecordDelta, Window: window, Iter: iter, Payload: payload}
	return rec.Encode(), nil
}

// StreamSink is a FrameSink that appends EZFRAME records of every
// window's frames to an io.Writer, encoding each frame inline. The
// daemon's frames jobs do not use it (their runner sink encodes on
// helper goroutines and publishes into a hub); it writes a stream from
// a plain run, such as perfbench's frame-path replay. If the writer also
// implements Flush() error (e.g. a bufio.Writer or an HTTP response
// wrapper), every frame is flushed so a reader sees it as soon as it is
// rendered.
type StreamSink struct {
	W io.Writer
}

// NewStreamSink streams every window's frames to w.
func NewStreamSink(w io.Writer) *StreamSink { return &StreamSink{W: w} }

// Frame implements FrameSink.
func (s *StreamSink) Frame(window string, iter int, img *img2d.Image) error {
	if err := checkWindow(window); err != nil {
		return err
	}
	var png bytes.Buffer
	if err := img.EncodePNG(&png); err != nil {
		return fmt.Errorf("gfx: encoding frame %s/%d: %w", window, iter, err)
	}
	// The header and the PNG go out as two writes, so the PNG is not
	// copied into a record buffer as Encode would.
	rec := Record{Kind: RecordFull, Window: window, Iter: iter, Payload: png.Bytes()}
	if _, err := s.W.Write(rec.header(0)); err != nil {
		return err
	}
	if _, err := s.W.Write(rec.Payload); err != nil {
		return err
	}
	if f, ok := s.W.(interface{ Flush() error }); ok {
		return f.Flush()
	}
	return nil
}

// Close implements FrameSink; the underlying writer is owned by the
// caller.
func (s *StreamSink) Close() error {
	if f, ok := s.W.(interface{ Flush() error }); ok {
		return f.Flush()
	}
	return nil
}
