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

// StreamFrame is one decoded record of a frame stream.
type StreamFrame struct {
	Window string // source window ("main", "tiling", "activity-rank2", ...)
	Iter   int    // 1-based iteration the frame belongs to
	PNG    []byte // the encoded image
}

// Decode parses the PNG payload back into an image.
func (f *StreamFrame) Decode() (*img2d.Image, error) {
	return img2d.DecodePNG(bytes.NewReader(f.PNG))
}

// WriteFrame encodes img as PNG and writes one stream record to w.
// Window names must not contain whitespace (the run loop's names never
// do).
func WriteFrame(w io.Writer, window string, iter int, img *img2d.Image) error {
	if strings.ContainsAny(window, " \t\n") {
		return fmt.Errorf("gfx: window name %q contains whitespace", window)
	}
	var buf bytes.Buffer
	if err := img.EncodePNG(&buf); err != nil {
		return fmt.Errorf("gfx: encoding frame %s/%d: %w", window, iter, err)
	}
	if _, err := fmt.Fprintf(w, "%s %s %d %d\n", streamMagic, window, iter, buf.Len()); err != nil {
		return err
	}
	_, err := w.Write(buf.Bytes())
	return err
}

// readHeader parses one record header line: magic, window, iter, size.
// It returns io.EOF at a clean end of stream, io.ErrUnexpectedEOF on a
// truncated line, ErrMalformedHeader (wrapped) on garbage, and
// ErrRecordTooLarge (wrapped) when size exceeds MaxRecordPayload.
func readHeader(r *bufio.Reader) (magic, window string, iter, size int, err error) {
	line, err := r.ReadString('\n')
	if err != nil {
		if err == io.EOF && line == "" {
			return "", "", 0, 0, io.EOF
		}
		if err == io.EOF {
			return "", "", 0, 0, io.ErrUnexpectedEOF
		}
		return "", "", 0, 0, err
	}
	if _, serr := fmt.Sscanf(strings.TrimSuffix(line, "\n"), "%s %s %d %d", &magic, &window, &iter, &size); serr != nil {
		return "", "", 0, 0, fmt.Errorf("%w: %q", ErrMalformedHeader, line)
	}
	if size < 0 {
		return "", "", 0, 0, fmt.Errorf("%w: negative size in %q", ErrMalformedHeader, line)
	}
	if size > MaxRecordPayload {
		return "", "", 0, 0, fmt.Errorf("%w: %d bytes in %q (cap %d)", ErrRecordTooLarge, size, line, MaxRecordPayload)
	}
	return magic, window, iter, size, nil
}

// readPayload reads exactly size bytes, mapping a short read to
// io.ErrUnexpectedEOF.
func readPayload(r *bufio.Reader, size int) ([]byte, error) {
	p := make([]byte, size)
	if _, err := io.ReadFull(r, p); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return p, nil
}

// ReadFrame reads the next full-frame record from a frame stream. It
// returns io.EOF at a clean end of stream, io.ErrUnexpectedEOF on a
// truncated record, and errors wrapping ErrMalformedHeader /
// ErrRecordTooLarge on corrupt headers. Delta-format streams must be read
// with ReadRecord instead; an EZDELTA record here is a malformed-header
// error (plain clients never negotiate deltas, so they never see one).
func ReadFrame(r *bufio.Reader) (*StreamFrame, error) {
	magic, window, iter, size, err := readHeader(r)
	if err != nil {
		return nil, err
	}
	if magic != streamMagic {
		return nil, fmt.Errorf("%w: magic %q", ErrMalformedHeader, magic)
	}
	png, err := readPayload(r, size)
	if err != nil {
		return nil, err
	}
	return &StreamFrame{Window: window, Iter: iter, PNG: png}, nil
}

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

// ReadRecord reads the next record of a (possibly delta-format) stream,
// accepting both EZFRAME and EZDELTA records. Error contract matches
// ReadFrame.
func ReadRecord(r *bufio.Reader) (*Record, error) {
	magic, window, iter, size, err := readHeader(r)
	if err != nil {
		return nil, err
	}
	var kind RecordKind
	switch magic {
	case streamMagic:
		kind = RecordFull
	case deltaMagic:
		kind = RecordDelta
	default:
		return nil, fmt.Errorf("%w: magic %q", ErrMalformedHeader, magic)
	}
	payload, err := readPayload(r, size)
	if err != nil {
		return nil, err
	}
	return &Record{Kind: kind, Window: window, Iter: iter, Payload: payload}, nil
}

// Encode returns the record's wire encoding (header line + payload).
func (rec *Record) Encode() []byte {
	magic := streamMagic
	if rec.Kind == RecordDelta {
		magic = deltaMagic
	}
	// The header is "%s %s %d %d\n" of magic, window, iter and size,
	// built without fmt so the record is the encode's only allocation.
	buf := make([]byte, 0, len(magic)+len(rec.Window)+len(rec.Payload)+44)
	buf = append(append(append(buf, magic...), ' '), rec.Window...)
	buf = strconv.AppendInt(append(buf, ' '), int64(rec.Iter), 10)
	buf = strconv.AppendInt(append(buf, ' '), int64(len(rec.Payload)), 10)
	return append(append(buf, '\n'), rec.Payload...)
}

// EncodeFrameRecord builds the wire bytes of one EZFRAME record from an
// already-encoded PNG payload.
func EncodeFrameRecord(window string, iter int, png []byte) ([]byte, error) {
	if strings.ContainsAny(window, " \t\n") {
		return nil, fmt.Errorf("gfx: window name %q contains whitespace", window)
	}
	rec := Record{Kind: RecordFull, Window: window, Iter: iter, Payload: png}
	return rec.Encode(), nil
}

// EncodeDeltaRecord builds the wire bytes of one EZDELTA record from an
// encoded delta payload (see EncodeDelta).
func EncodeDeltaRecord(window string, iter int, payload []byte) ([]byte, error) {
	if strings.ContainsAny(window, " \t\n") {
		return nil, fmt.Errorf("gfx: window name %q contains whitespace", window)
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
	if err := WriteFrame(s.W, window, iter, img); err != nil {
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
