package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"easypap/internal/core"
	"easypap/internal/gfx"
)

// The /v1 API:
//
//	POST   /v1/jobs           submit {"config": {...}, "frames": bool}
//	GET    /v1/jobs/{id}      status + result
//	GET    /v1/jobs/{id}/frames  live frame stream (gfx stream records)
//	DELETE /v1/jobs/{id}      cancel
//	GET    /v1/stats          queue depth, cache hits, per-kernel throughput
//	GET    /v1/kernels        registered kernels and variants
//	GET    /v1/trace/{id}     service-span tree of a job (see obs.go)
//	GET    /metrics           Prometheus text exposition (internal/metrics)
//
// Errors are {"error": "..."} with 400 (bad config), 404 (unknown job),
// 409 (no frame stream), 429 (queue full) or 503 (shutting down).
//
// Submissions may carry an X-Easypap-Trace header to join an existing
// distributed trace; absent, the daemon mints a fresh trace id and
// returns it in the job status.

// SubmitRequest is the POST /v1/jobs body.
type SubmitRequest struct {
	Config core.Config `json:"config"`
	// Frames requests live frame streaming for this job (disables result
	// caching for it).
	Frames bool `json:"frames,omitempty"`
	// Shards asks for distributed execution across up to this many
	// cluster nodes (row-band sharding with halo exchange). Advisory: a
	// single-node daemon, a non-mpi variant, or a cluster without enough
	// healthy peers runs the job locally instead. Never part of the
	// cache key — sharding changes where a job runs, not what it
	// computes.
	Shards int `json:"shards,omitempty"`
}

// KernelInfo is one entry of GET /v1/kernels — the same shape
// `easypap --list-json` prints, so CLI and service clients share a parser.
type KernelInfo = core.KernelInfo

// NewHandler wires a Manager into an http.Handler serving the /v1 API.
func NewHandler(m *Manager) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		var req SubmitRequest
		if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
			WriteError(w, http.StatusBadRequest, fmt.Errorf("decoding submission: %w", err))
			return
		}
		st, err := m.SubmitShards(req.Config, req.Frames, r.Header.Get(TraceHeader), req.Shards)
		if err != nil {
			WriteSubmitError(w, err)
			return
		}
		code := http.StatusAccepted
		if st.State.Terminal() {
			code = http.StatusOK // cache hit: the result is already here
		}
		WriteJSON(w, code, st)
	})

	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, err := m.Get(r.PathValue("id"))
		if err != nil {
			WriteError(w, JobStatusCode(err), err)
			return
		}
		WriteJSON(w, http.StatusOK, st)
	})

	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, err := m.Cancel(r.PathValue("id"))
		if err != nil {
			WriteError(w, JobStatusCode(err), err)
			return
		}
		WriteJSON(w, http.StatusOK, st)
	})

	mux.HandleFunc("GET /v1/jobs/{id}/frames", func(w http.ResponseWriter, r *http.Request) {
		format := FrameFormat(r)
		// r.Context() is the subscription context: a disconnected client
		// unblocks the hub reader instead of parking it until job end.
		rd, err := m.FrameStream(r.Context(), r.PathValue("id"), format)
		if err != nil {
			WriteError(w, JobStatusCode(err), err)
			return
		}
		defer rd.Close()
		_ = StreamAll(w, http.StatusOK, FrameContentType(format), rd)
	})

	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, m.Stats())
	})

	mux.HandleFunc("GET /v1/kernels", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, core.KernelList())
	})

	mux.HandleFunc("GET /v1/trace/{id}", func(w http.ResponseWriter, r *http.Request) {
		doc, err := m.Trace(r.PathValue("id"))
		if err != nil {
			WriteError(w, JobStatusCode(err), err)
			return
		}
		WriteJSON(w, http.StatusOK, doc)
	})

	mux.Handle("GET /metrics", m.Metrics().Handler())

	return mux
}

// TraceHeader carries the distributed trace id across proxy hops,
// replica fetches, and client submissions.
const TraceHeader = "X-Easypap-Trace"

// Frame-stream content types. The full format is the golden-pinned
// default; delta is opt-in (see FrameFormat).
const (
	FramesContentType      = "application/x-easypap-frames"
	FramesDeltaContentType = "application/x-easypap-frames-delta"
)

// FrameFormat negotiates the frame-stream wire format of a request:
// ?format=delta or an Accept header naming the delta content type opt in
// to dirty-tile delta records; everything else gets the default full
// stream. Exported for the cluster layer, which negotiates the same way
// on its edge-proxy path.
func FrameFormat(r *http.Request) gfx.StreamFormat {
	if r.URL.Query().Get("format") == string(gfx.FormatDelta) {
		return gfx.FormatDelta
	}
	if strings.Contains(r.Header.Get("Accept"), FramesDeltaContentType) {
		return gfx.FormatDelta
	}
	return gfx.FormatFull
}

// FrameContentType maps a stream format to its Content-Type.
func FrameContentType(format gfx.StreamFormat) string {
	if format == gfx.FormatDelta {
		return FramesDeltaContentType
	}
	return FramesContentType
}

// RetryAfterSeconds is the Retry-After value sent with every 429: the
// queue is bounded and jobs are short, so "come back in a second" is
// the honest hint. Clients combine it with jittered backoff so a herd
// of rejected submitters does not re-synchronize on the boundary.
const RetryAfterSeconds = 1

// WriteSubmitError writes a Submit error with its mapped status; 429
// responses carry a Retry-After header so well-behaved clients pace
// their retries instead of hammering the admission path.
func WriteSubmitError(w http.ResponseWriter, err error) {
	code := SubmitStatusCode(err)
	if code == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", fmt.Sprintf("%d", RetryAfterSeconds))
	}
	WriteError(w, code, err)
}

// SubmitStatusCode maps a Submit error to its HTTP status. Exported for
// the cluster layer, which serves the same API through its own handler.
func SubmitStatusCode(err error) int {
	switch {
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrClosed):
		return http.StatusServiceUnavailable
	default:
		return http.StatusBadRequest // config did not normalize
	}
}

// JobStatusCode maps a job-lookup error to its HTTP status.
func JobStatusCode(err error) int {
	switch {
	case errors.Is(err, ErrUnknownJob):
		return http.StatusNotFound
	case errors.Is(err, ErrNoFrames):
		return http.StatusConflict
	default:
		return http.StatusInternalServerError
	}
}

// WriteJSON writes v as a compact JSON response with the given status.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// StreamAll answers with code and, when set, contentType, then copies
// rd to w, flushing after every chunk, so a frame stream — local, or
// proxied by the cluster layer — delivers frames as they render, not
// when the job ends. It returns rd's terminal error (io.EOF on a clean
// end; nil only when the client went away first).
func StreamAll(w http.ResponseWriter, code int, contentType string, rd io.Reader) error {
	if contentType != "" {
		w.Header().Set("Content-Type", contentType)
	}
	w.WriteHeader(code)
	flusher, _ := w.(http.Flusher)
	buf := make([]byte, 64<<10)
	for {
		n, rerr := rd.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return nil // client went away
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		if rerr != nil {
			return rerr
		}
	}
}

// WriteError writes err as the {"error": ...} body every /v1 endpoint uses.
func WriteError(w http.ResponseWriter, code int, err error) {
	WriteJSON(w, code, map[string]string{"error": err.Error()})
}
