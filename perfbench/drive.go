package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"easypap/internal/core"
	"easypap/internal/gfx"
	"easypap/internal/img2d"
	"easypap/internal/serve"
)

// stream is what one frames viewer received.
type stream struct {
	Records   int
	Keyframes int
	Bytes     int64
	Arrivals  []time.Time // when each record was complete at the viewer
	Checksum  string      // of the last "main" image, reassembled
	recs      []*gfx.Record
}

// result is one executed op. Phases run tens of thousands of cache hits,
// so a result stays small: it points at its planned op, identical cached
// answers share one status, and the client-side timeline is kept only
// for traced ops and frames jobs, the only ones whose timeline is read.
type result struct {
	Op       *op
	Status   *serve.JobStatus
	Observed class
	Err      string        // why the op failed; "" when it succeeded
	Latency  time.Duration // POST start until the result is read (frames: both streams at EOF)
	*timeline
}

// timeline is what the client saw of one op, step by step.
type timeline struct {
	Trace string // benchmark trace id; "" when the op was not traced

	Start       time.Time
	SubmitRT    time.Duration // POST round trip
	WaitStart   time.Time     // Manager.Wait, until ResultStart
	ResultStart time.Time
	ResultRT    time.Duration // GET of the result
	BodyBytes   int           // size of the body that carried the result

	// Frames jobs.
	FirstFrame  time.Duration
	Full, Delta *stream
}

func (r *result) traced() bool { return r.timeline != nil && r.Trace != "" }

func (r *result) frames() bool { return r.timeline != nil && r.Full != nil }

func (r *result) fail(format string, args ...any) {
	if r.Err == "" {
		r.Err = fmt.Sprintf(format, args...)
	}
}

// runner executes ops against a deployment over the two connections.
type runner struct {
	dp    *deployment
	conns [2]*http.Client

	mu     sync.Mutex
	cached map[string]*serve.JobStatus // interned cached answers
}

func newRunner(dp *deployment) *runner {
	return &runner{dp: dp, conns: [2]*http.Client{newConn(dp.dl), newConn(dp.dl)}, cached: map[string]*serve.JobStatus{}}
}

func (rn *runner) close() {
	closeConn(rn.conns[0])
	closeConn(rn.conns[1])
}

// do sends one request and reads the whole body.
func do(ctx context.Context, c *http.Client, method, url, trace string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if trace != "" {
		req.Header.Set(serve.TraceHeader, trace)
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// run executes one op on connection c (frames ops use both). An op that
// fails part-way keeps the latency up to its failure.
func (rn *runner) run(ctx context.Context, c int, o *op, trace string) (r result) {
	frames := o.Class == clsFrames
	tl := timeline{Trace: trace}
	r = result{Op: o}
	defer func() {
		if r.Latency == 0 && !tl.Start.IsZero() {
			r.Latency = time.Since(tl.Start)
		}
		if trace != "" || frames {
			r.timeline = &tl
		}
	}()
	body, err := json.Marshal(serve.SubmitRequest{Config: *o.Cfg, Frames: frames, Shards: o.Shards})
	if err != nil {
		r.fail("encoding submission: %v", err)
		return r
	}
	conn := rn.conns[c]
	tl.Start = time.Now()
	code, b, err := do(ctx, conn, http.MethodPost, rn.dp.base+"/v1/jobs", trace, body)
	tl.SubmitRT = time.Since(tl.Start)
	if err != nil {
		r.fail("submit: %v", err)
		return r
	}
	if code != http.StatusOK && code != http.StatusAccepted {
		r.fail("submit: HTTP %d: %s", code, bytes.TrimSpace(b))
		return r
	}
	st, err := rn.decode(b)
	if err != nil {
		r.fail("decoding submit answer: %v", err)
		return r
	}
	if frames {
		if err := rn.watch(ctx, &tl, st.ID); err != nil {
			r.fail("frames: %v", err)
		}
		r.Latency = time.Since(tl.Start)
	}
	if !st.State.Terminal() || frames {
		// Completion is learned from Manager.Wait, never by polling; one
		// GET then fetches the result.
		mgr, local := rn.dp.managerFor(st.ID)
		tl.WaitStart = time.Now()
		if _, err := mgr.Wait(ctx, local); err != nil {
			r.fail("wait: %v", err)
			return r
		}
		tl.ResultStart = time.Now()
		code, b, err := do(ctx, conn, http.MethodGet, rn.dp.base+"/v1/jobs/"+st.ID, trace, nil)
		tl.ResultRT = time.Since(tl.ResultStart)
		tl.BodyBytes = len(b)
		if !frames {
			r.Latency = time.Since(tl.Start)
		}
		if err != nil {
			r.fail("result: %v", err)
			return r
		}
		if code != http.StatusOK {
			r.fail("result: HTTP %d", code)
			return r
		}
		if st, err = rn.decode(b); err != nil {
			r.fail("decoding result: %v", err)
			return r
		}
	} else {
		r.Latency = tl.SubmitRT
		tl.BodyBytes = len(b)
	}
	r.Status = st
	r.Observed = observed(st)
	if st.State != serve.JobDone {
		r.fail("state %s: %s", st.State, st.Error)
	}
	return r
}

// decode parses a job status. A cached answer repeats a result already
// seen, and a phase reads tens of thousands of them: only the fields the
// checks read are decoded, and identical answers share one status.
func (rn *runner) decode(b []byte) (*serve.JobStatus, error) {
	var head struct {
		ID        string          `json:"id"`
		State     serve.JobState  `json:"state"`
		Cached    bool            `json:"cached"`
		DiskHit   bool            `json:"disk_hit"`
		RemoteHit bool            `json:"remote_hit"`
		Hash      string          `json:"hash"`
		Error     string          `json:"error"`
		Result    json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(b, &head); err != nil {
		return nil, err
	}
	if !head.Cached {
		var st serve.JobStatus
		if err := json.Unmarshal(b, &st); err != nil {
			return nil, err
		}
		return &st, nil
	}
	var res struct {
		Checksum   string `json:"checksum"`
		Iterations int    `json:"iterations"`
	}
	if len(head.Result) > 0 {
		if err := json.Unmarshal(head.Result, &res); err != nil {
			return nil, err
		}
	}
	key := fmt.Sprintf("%s|%t|%t|%s|%s", head.Hash, head.DiskHit, head.RemoteHit, head.State, res.Checksum)
	rn.mu.Lock()
	defer rn.mu.Unlock()
	if s, ok := rn.cached[key]; ok {
		return s, nil
	}
	s := &serve.JobStatus{ID: head.ID, State: head.State, Cached: true, DiskHit: head.DiskHit,
		RemoteHit: head.RemoteHit, Hash: head.Hash, Error: head.Error}
	if len(head.Result) > 0 {
		s.Result = &core.Result{Checksum: res.Checksum, Iterations: res.Iterations}
	}
	rn.cached[key] = s
	return s, nil
}

// observed names the tier that answered a finished job.
func observed(st *serve.JobStatus) class {
	switch {
	case st.RemoteHit:
		return "remote"
	case st.DiskHit:
		return clsDisk
	case st.Cached:
		return clsMem
	case st.Result != nil && st.Result.ResumedFrom > 0:
		return clsResume
	default:
		return clsCompute
	}
}

// expected is the tier a planned class must be answered from. Herd pairs
// are checked per pair instead (see verify).
func expected(c class) class {
	switch c {
	case clsFrames, clsShard:
		return clsCompute
	}
	return c
}

// watch attaches the full viewer on the submitting connection and the
// delta viewer on the other, and reads both to EOF.
func (rn *runner) watch(ctx context.Context, tl *timeline, id string) error {
	var wg sync.WaitGroup
	var errs [2]error
	url := rn.dp.base + "/v1/jobs/" + id + "/frames"
	tl.Full, tl.Delta = &stream{}, &stream{}
	wg.Add(2)
	go func() {
		defer wg.Done()
		errs[0] = view(ctx, rn.conns[0], url, tl.Trace, tl.Full)
	}()
	go func() {
		defer wg.Done()
		errs[1] = view(ctx, rn.conns[1], url+"?format=delta", tl.Trace, tl.Delta)
	}()
	wg.Wait()
	if len(tl.Full.Arrivals) > 0 {
		tl.FirstFrame = tl.Full.Arrivals[0].Sub(tl.Start)
	}
	return errors.Join(errs[:]...)
}

type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// view reads one frame stream to EOF, timestamping each record; the
// records are reassembled only afterwards, so decoding is not timed.
func view(ctx context.Context, c *http.Client, url, trace string, s *stream) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	if trace != "" {
		req.Header.Set(serve.TraceHeader, trace)
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	cr := &countingReader{r: resp.Body}
	br := bufio.NewReader(cr)
	for {
		rec, err := gfx.ReadRecord(br)
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		s.Arrivals = append(s.Arrivals, time.Now())
		s.recs = append(s.recs, rec)
		s.Records++
		if rec.Kind == gfx.RecordFull {
			s.Keyframes++
		}
	}
	s.Bytes = cr.n
	return nil
}

// reassemble folds a received stream into its final "main" image.
func (s *stream) reassemble() error {
	ra := gfx.NewReassembler()
	var last *img2d.Image
	for _, rec := range s.recs {
		img, err := ra.Apply(rec)
		if err != nil {
			return err
		}
		if rec.Window == "main" {
			last = img
		}
	}
	s.recs = nil
	if last == nil {
		return fmt.Errorf("stream has no main frame")
	}
	s.Checksum = checksum(last)
	return nil
}

// checksum is core's Result.Checksum: hex SHA-256 of the pixels,
// little-endian.
func checksum(im *img2d.Image) string {
	h := sha256.New()
	var buf [4]byte
	for _, p := range im.Pixels() {
		binary.LittleEndian.PutUint32(buf[:], p)
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// phase runs the op lists closed-loop, one goroutine per connection,
// both passing every gate together, and returns every result plus the
// phase's wall time. In trace mode
// every other op carries a benchmark trace id; the rest run untraced so
// the run can compare the two.
func (rn *runner) phase(ctx context.Context, lists [2][]op, traced bool) ([]result, time.Duration) {
	n := 0
	for _, o := range lists[0] {
		n = max(n, o.Gate+1)
	}
	gates := make([]sync.WaitGroup, n)
	for i := range gates {
		gates[i].Add(2)
	}
	out := make([]result, len(lists[0])+len(lists[1]))
	var wg sync.WaitGroup
	start := time.Now()
	for c := range lists {
		if len(lists[c]) == 0 {
			continue
		}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			res := out[c*len(lists[0]):]
			for i := range lists[c] {
				o := &lists[c][i]
				if o.Gate >= 0 {
					gates[o.Gate].Done()
					gates[o.Gate].Wait()
				}
				trace := ""
				if traced && i%2 == 0 {
					trace = fmt.Sprintf("%s%d-%d", tracePrefix, c, i)
				}
				res[i] = rn.run(ctx, c, o, trace)
			}
		}(c)
	}
	wg.Wait()
	return out, time.Since(start)
}
