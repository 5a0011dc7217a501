package trace

// Fuzzing of the EZPT decoder. easyview reads whatever file it is given,
// so for ANY bytes Read must return a trace or an error, never panic, and
// a trace it accepts must write back to a file that reads back equal.
//
//	go test -run '^$' -fuzz '^FuzzTraceRead$' -fuzztime 15s ./internal/trace/

import (
	"bytes"
	"slices"
	"testing"
	"time"
)

func FuzzTraceRead(f *testing.F) {
	for _, tr := range []*Trace{makeTrace(3, 1), {Meta: testMeta()}} {
		var buf bytes.Buffer
		if err := tr.Write(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := tr.Write(&buf); err != nil {
			t.Fatalf("accepted trace does not write back: %v", err)
		}
		back, err := Read(&buf)
		if err != nil {
			t.Fatalf("written-back trace does not read: %v", err)
		}
		if !slices.Equal(back.Events, tr.Events) {
			t.Fatalf("events changed on the way back: %+v, want %+v", back.Events, tr.Events)
		}
		// The time zone of Recorded may come back as another location of
		// the same offset, so the instant is compared, then the rest.
		if !back.Meta.Recorded.Equal(tr.Meta.Recorded) {
			t.Fatalf("recorded %v, want %v", back.Meta.Recorded, tr.Meta.Recorded)
		}
		back.Meta.Recorded, tr.Meta.Recorded = time.Time{}, time.Time{}
		if back.Meta != tr.Meta {
			t.Fatalf("meta changed on the way back: %+v, want %+v", back.Meta, tr.Meta)
		}
	})
}
