package client

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"easypap/internal/gfx"
)

// A Frames client pointed at a delta stream fails cleanly on the first
// EZDELTA record: a full-format stream never carries one, so seeing one
// is a protocol violation, not a frame to hand on.
func TestFramesRejectsDeltaRecord(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "EZDELTA main 2 4\nabcd")
	}))
	defer srv.Close()
	called := false
	err := New(srv.URL).Frames(context.Background(), "j-1", func(*gfx.Record) bool {
		called = true
		return true
	})
	if !errors.Is(err, gfx.ErrMalformedHeader) {
		t.Errorf("EZDELTA via Frames: got %v, want ErrMalformedHeader", err)
	}
	if called {
		t.Error("Frames handed a delta record to its callback")
	}
}
