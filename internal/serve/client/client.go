// Package client is the Go client for the easypapd compute service
// (internal/serve). Beyond the obvious verb-per-endpoint methods it
// implements the expt.Runner contract (RunConfig), which is how a
// parameter sweep fans its runs out to a daemon instead of executing
// in-process — the first multi-backend path in the repo.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strconv"
	"strings"
	"time"

	"easypap/internal/core"
	"easypap/internal/gfx"
	"easypap/internal/img2d"
	"easypap/internal/serve"
)

// Client talks to one daemon. The zero HTTP client uses
// http.DefaultClient; Base is e.g. "http://127.0.0.1:8080".
type Client struct {
	Base string
	HTTP *http.Client

	// Poll is the status polling interval of Wait/RunConfig (default
	// 20ms — jobs on a local daemon finish in milliseconds).
	Poll time.Duration
}

// New returns a client for the daemon at base.
func New(base string) *Client {
	return &Client{Base: strings.TrimRight(base, "/")}
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

func (c *Client) poll() time.Duration {
	if c.Poll > 0 {
		return c.Poll
	}
	return 20 * time.Millisecond
}

// APIError is a non-2xx daemon response: the endpoint is alive and
// answered, it just said no. Failover logic uses the distinction — a
// transport error means "try the next endpoint", a 400 means the config
// is bad everywhere.
type APIError struct {
	StatusCode int    // HTTP status code
	Status     string // HTTP status line, e.g. "404 Not Found"
	Message    string // decoded {"error": ...} body, possibly empty
	// RetryAfter is the server's Retry-After hint (0 when absent) — on a
	// 429 the daemon says when its bounded queue is worth retrying, and
	// the retry paths honor it instead of guessing.
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	if e.Message != "" {
		return fmt.Sprintf("client: daemon returned %s: %s", e.Status, e.Message)
	}
	return fmt.Sprintf("client: daemon returned %s", e.Status)
}

// apiError decodes the {"error": ...} body of a non-2xx response.
func apiError(resp *http.Response) error {
	defer resp.Body.Close()
	e := &APIError{StatusCode: resp.StatusCode, Status: resp.Status}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if secs, err := strconv.Atoi(ra); err == nil && secs >= 0 {
			e.RetryAfter = time.Duration(secs) * time.Second
		} else if at, err := http.ParseTime(ra); err == nil {
			e.RetryAfter = time.Until(at)
		}
	}
	var body struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&body); err == nil {
		e.Message = body.Error
	}
	return e
}

// retryDelay computes the wait before retry attempt a (0-based):
// exponential backoff with full jitter — delay drawn uniformly from
// (0, 25ms<<a], capped at ~1.6s — so a herd of clients bounced by the
// same overloaded daemon spreads out instead of stampeding back in
// phase. A server-provided Retry-After hint (429) takes precedence
// when longer: the daemon knows its queue better than our guess.
func retryDelay(err error, attempt int) time.Duration {
	shift := attempt
	if shift > 6 {
		shift = 6
	}
	base := 25 * time.Millisecond << shift
	d := time.Duration(rand.Int64N(int64(base))) + time.Millisecond
	var apiErr *APIError
	if errors.As(err, &apiErr) && apiErr.RetryAfter > d {
		d = apiErr.RetryAfter
	}
	return d
}

// sleepRetry waits the retry delay or until ctx expires.
func sleepRetry(ctx context.Context, err error, attempt int) {
	t := time.NewTimer(retryDelay(err, attempt))
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

// isStatus reports whether err is an APIError with the given code.
func isStatus(err error, code int) bool {
	var apiErr *APIError
	return errors.As(err, &apiErr) && apiErr.StatusCode == code
}

// do sends one request: in, when non-nil, as its JSON body, and accept,
// when set, as its Accept header. A status other than 200 or 202 comes
// back as an APIError.
func (c *Client) do(ctx context.Context, method, path string, in any, accept string) (*http.Response, error) {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return nil, err
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.Base+path, body)
	if err != nil {
		return nil, err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return nil, apiError(resp)
	}
	return resp, nil
}

// callJSON is do with the JSON answer decoded into out.
func (c *Client) callJSON(ctx context.Context, method, path string, in, out any) error {
	resp, err := c.do(ctx, method, path, in, "")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(out)
}

// Submit sends a job; with frames=true the daemon keeps a live frame
// stream readable via Frames. A cache hit returns an already-done status.
func (c *Client) Submit(ctx context.Context, cfg core.Config, frames bool) (*serve.JobStatus, error) {
	return c.SubmitShards(ctx, cfg, frames, 0)
}

// SubmitShards is Submit with a requested shard count: against a
// clustered daemon, shards > 1 asks for distributed execution of the
// (mpi-variant) job across up to that many nodes. Advisory — a daemon
// that cannot shard runs the job locally. A job that fails with
// ErrorKind "shard_failed" (a shard node died mid-run) should be
// resubmitted unsharded; ShardFailed recognizes it.
func (c *Client) SubmitShards(ctx context.Context, cfg core.Config, frames bool, shards int) (*serve.JobStatus, error) {
	var st serve.JobStatus
	req := serve.SubmitRequest{Config: cfg, Frames: frames, Shards: shards}
	if err := c.callJSON(ctx, http.MethodPost, "/v1/jobs", req, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Job fetches a job's current status.
func (c *Client) Job(ctx context.Context, id string) (*serve.JobStatus, error) {
	var st serve.JobStatus
	if err := c.callJSON(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Cancel requests cancellation of a job.
func (c *Client) Cancel(ctx context.Context, id string) (*serve.JobStatus, error) {
	var st serve.JobStatus
	if err := c.callJSON(ctx, http.MethodDelete, "/v1/jobs/"+id, nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Wait polls until the job reaches a terminal state or ctx expires.
func (c *Client) Wait(ctx context.Context, id string) (*serve.JobStatus, error) {
	ticker := time.NewTicker(c.poll())
	defer ticker.Stop()
	for {
		st, err := c.Job(ctx, id)
		if err != nil {
			return nil, err
		}
		if st.State.Terminal() {
			return st, nil
		}
		select {
		case <-ctx.Done():
			return st, ctx.Err()
		case <-ticker.C:
		}
	}
}

// Stats fetches the service counters.
func (c *Client) Stats(ctx context.Context) (*serve.Stats, error) {
	var s serve.Stats
	if err := c.callJSON(ctx, http.MethodGet, "/v1/stats", nil, &s); err != nil {
		return nil, err
	}
	return &s, nil
}

// Kernels lists the daemon's registered kernels.
func (c *Client) Kernels(ctx context.Context) ([]serve.KernelInfo, error) {
	var ks []serve.KernelInfo
	if err := c.callJSON(ctx, http.MethodGet, "/v1/kernels", nil, &ks); err != nil {
		return nil, err
	}
	return ks, nil
}

// Frames streams the job's frames, invoking fn for each decoded EZFRAME
// record until the stream ends, fn returns false, or ctx expires. The
// full format never carries an EZDELTA record, so one is a malformed
// stream.
func (c *Client) Frames(ctx context.Context, id string, fn func(f *gfx.Record) bool) error {
	resp, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/frames", nil, "")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	r := bufio.NewReader(resp.Body)
	for {
		f, err := gfx.ReadRecord(r)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if f.Kind != gfx.RecordFull {
			return fmt.Errorf("%w: delta record %s/%d in a full-format stream", gfx.ErrMalformedHeader, f.Window, f.Iter)
		}
		if !fn(f) {
			return nil
		}
	}
}

// FramesDelta streams the job's frames in the bandwidth-saving delta
// format (?format=delta: periodic keyframes plus dirty-tile patch
// records) and reassembles every record into the window's full image
// before invoking fn. The image passed to fn aliases the reassembler's
// per-window state: it is valid until fn returns false or the next
// record of the same window. Semantically equivalent to Frames — same
// windows, same iterations, byte-identical pixels — just cheaper on the
// wire for sparse kernels.
func (c *Client) FramesDelta(ctx context.Context, id string, fn func(window string, iter int, img *img2d.Image) bool) error {
	resp, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/frames?format="+string(gfx.FormatDelta),
		nil, serve.FramesDeltaContentType)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	r := bufio.NewReader(resp.Body)
	ra := gfx.NewReassembler()
	for {
		rec, err := gfx.ReadRecord(r)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		img, err := ra.Apply(rec)
		if err != nil {
			return err
		}
		if !fn(rec.Window, rec.Iter, img) {
			return nil
		}
	}
}

// RunConfig submits cfg, waits for completion, and returns the result —
// the expt.Runner contract. Failed and canceled jobs surface as errors.
// A job that comes back "interrupted" — the daemon restarted mid-job and
// did not re-enqueue it — is resubmitted automatically (with jittered
// backoff between attempts), so a parameter sweep rides through a
// daemon deploy instead of dying with it. A 429 — the daemon's bounded
// queue is full — is retried after the server's Retry-After hint plus
// jitter, bounded separately so a merely busy daemon is not treated
// like a crash-looping one.
func (c *Client) RunConfig(cfg core.Config) (core.Result, error) {
	ctx := context.Background()
	var last *serve.JobStatus
	throttled := 0
	for attempt := 0; attempt < 3; attempt++ {
		st, err := c.Submit(ctx, cfg, false)
		if isStatus(err, http.StatusTooManyRequests) && throttled < 5 {
			sleepRetry(ctx, err, throttled)
			throttled++
			attempt-- // a full queue is not a lost job
			continue
		}
		if err != nil {
			return core.Result{}, err
		}
		if !st.State.Terminal() {
			if st, err = c.Wait(ctx, st.ID); err != nil {
				return core.Result{}, err
			}
		}
		if st.State == serve.JobInterrupted {
			last = st
			sleepRetry(ctx, nil, attempt)
			continue // the daemon restarted under us: resubmit
		}
		if st.State != serve.JobDone || st.Result == nil {
			return core.Result{}, fmt.Errorf("client: job %s ended %s: %s", st.ID, st.State, st.Error)
		}
		return *st.Result, nil
	}
	return core.Result{}, fmt.Errorf("client: job %s interrupted repeatedly: %s", last.ID, last.Error)
}

// ShardFailed reports whether a terminal status is a typed
// shard-execution failure: the distributed run lost a node, and the same
// config is expected to succeed resubmitted unsharded.
func ShardFailed(st *serve.JobStatus) bool {
	return st != nil && st.State == serve.JobFailed && st.ErrorKind == serve.ErrorKindShardFailed
}
