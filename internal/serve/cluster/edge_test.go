package cluster_test

// The viewing-edge path: any node serves GET /v1/jobs/{id}/frames for a
// peer-owned job by proxying ONE upstream stream per (job, format) and
// fanning it out to every local subscriber through an edge hub.

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"io"
	"net/http"
	"sync"
	"testing"
	"time"

	"easypap/internal/core"
	"easypap/internal/gfx"
	"easypap/internal/serve"
	"easypap/internal/serve/client"
	"easypap/internal/serve/cluster"
)

// lifeFramesCfg is a deterministic frames job with delta-friendly
// dirty-tile reporting (lazy variant). At 256² every frame costs a PNG
// encode of a few milliseconds, so the job is still running while a
// burst of viewers attaches; up to 1,024 frames the owner's ring keeps
// every one of them for late subscribers.
func lifeFramesCfg(iters int) core.Config {
	return core.Config{
		Kernel: "life", Variant: "lazy", Dim: 256, TileW: 16, TileH: 16,
		Iterations: iters, Threads: 2, Arg: "diag",
	}
}

func serveOptsForEdge() serve.Options {
	return serve.Options{Workers: 2, QueueDepth: 16}
}

// fetchStream GETs a frame stream URL and returns the raw body.
func fetchStream(t *testing.T, url string) []byte {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d", url, resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestEdgeFanOutSingleUpstream: N viewers on a non-owner node share one
// upstream stream, every viewer sees byte-identical frames, and the
// same is true independently for the delta format. The viewers of both
// formats attach while the job runs and meet at a rendezvous (see
// watchTogether), so their edge references provably overlap.
func TestEdgeFanOutSingleUpstream(t *testing.T) {
	tc := startCluster(t, 3, serveOptsForEdge())
	ctx := context.Background()

	const iters = 60
	multi := client.NewMulti(tc.urls...)
	st, _, err := multi.Submit(ctx, lifeFramesCfg(iters), true)
	if err != nil {
		t.Fatal(err)
	}
	owner := tc.ownerIndex(lifeFramesCfg(iters), true)
	edge := (owner + 1) % len(tc.urls)

	// Burst of concurrent viewers on the edge node, both formats.
	const viewers = 6
	var urls []string
	for i := 0; i < viewers; i++ {
		urls = append(urls, tc.urls[edge]+"/v1/jobs/"+st.ID+"/frames",
			tc.urls[edge]+"/v1/jobs/"+st.ID+"/frames?format=delta")
	}
	streams := watchTogether(t, tc.nodes[edge], urls, func() {})
	bodies := make([][]byte, viewers)
	deltas := make([][]byte, viewers)
	for i := range bodies {
		bodies[i], deltas[i] = streams[2*i], streams[2*i+1]
	}
	if _, err := client.New(tc.urls[owner]).Wait(ctx, st.ID); err != nil {
		t.Fatal(err)
	}

	sum := sha256.Sum256(bodies[0])
	dsum := sha256.Sum256(deltas[0])
	for i := 1; i < viewers; i++ {
		if sha256.Sum256(bodies[i]) != sum {
			t.Errorf("viewer %d full stream differs from viewer 0", i)
		}
		if sha256.Sum256(deltas[i]) != dsum {
			t.Errorf("viewer %d delta stream differs from viewer 0", i)
		}
	}

	// The edge stream equals the owner's own stream byte for byte.
	direct := fetchStream(t, tc.urls[owner]+"/v1/jobs/"+st.ID+"/frames")
	if !bytes.Equal(direct, bodies[0]) {
		t.Error("edge-proxied stream differs from the owner's stream")
	}

	// The burst shared upstream streams: exactly one per format, not one
	// per viewer.
	if ups := tc.nodes[edge].Stats().Cluster.EdgeUpstreams; ups != 2 {
		t.Errorf("edge opened %d upstream streams for %d viewers x 2 formats, want 2", ups, viewers)
	}
	if tc.nodes[owner].Stats().Cluster.EdgeUpstreams != 0 {
		t.Error("owner node recorded edge upstreams for its own job")
	}

	// The delta stream reassembles to the same pixels as the full stream.
	raFull, raDelta := gfx.NewReassembler(), gfx.NewReassembler()
	fr := bufio.NewReader(bytes.NewReader(bodies[0]))
	dr := bufio.NewReader(bytes.NewReader(deltas[0]))
	frames := 0
	for {
		frec, ferr := gfx.ReadRecord(fr)
		drec, derr := gfx.ReadRecord(dr)
		if ferr == io.EOF && derr == io.EOF {
			break
		}
		if ferr != nil || derr != nil {
			t.Fatalf("stream decode: full=%v delta=%v", ferr, derr)
		}
		fi, err := raFull.Apply(frec)
		if err != nil {
			t.Fatal(err)
		}
		di, err := raDelta.Apply(drec)
		if err != nil {
			t.Fatal(err)
		}
		if frec.Iter != drec.Iter || !fi.Equal(di) {
			t.Fatalf("iter %d/%d: edge delta frame differs from full frame", frec.Iter, drec.Iter)
		}
		frames++
	}
	if frames != iters {
		t.Errorf("edge streams carried %d frames, want %d", frames, iters)
	}
}

// TestEdgeConcurrentViewersShareDial pins the singleflight exactly: a
// burst of viewers whose streams overlap in time results in exactly one
// upstream dial, because every viewer holds its ref for the whole read.
//
// The overlap is made certain, not hoped for. A viewer's edge reference
// lives until its stream ends, and a stream ends only when the job does,
// so the job is still running when the viewers attach: each viewer reads
// its first record, then waits until all of them have one (and all are
// live edge subscribers) before the job is canceled and they drain. On a
// finished job a viewer could drain its whole stream before another
// viewer's goroutine even started, and the next one would redial.
func TestEdgeConcurrentViewersShareDial(t *testing.T) {
	tc := startCluster(t, 2, serveOptsForEdge())
	ctx := context.Background()

	multi := client.NewMulti(tc.urls...)
	// Seconds of frames: it outlives the burst and is canceled there.
	cfg := lifeFramesCfg(1000)
	st, _, err := multi.Submit(ctx, cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	owner := tc.ownerIndex(cfg, true)
	edge := (owner + 1) % len(tc.urls)

	const viewers = 8
	url := tc.urls[edge] + "/v1/jobs/" + st.ID + "/frames"
	urls := make([]string, viewers)
	for i := range urls {
		urls[i] = url
	}
	bodies := watchTogether(t, tc.nodes[edge], urls, func() {
		if _, err := client.New(tc.urls[owner]).Cancel(ctx, st.ID); err != nil {
			t.Error(err)
		}
	})
	for i := 1; i < viewers; i++ {
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Errorf("viewer %d stream differs", i)
		}
	}
	if ups := tc.nodes[edge].Stats().Cluster.EdgeUpstreams; ups != 1 {
		t.Errorf("edge opened %d upstream streams for a simultaneous burst, want 1", ups)
	}
	if proxied := tc.nodes[edge].Stats().Cluster.StatusProxied; proxied < viewers {
		t.Errorf("status_proxied = %d, want >= %d", proxied, viewers)
	}
}

// watchTogether opens every url at once. Each viewer reads its first
// frame record and waits at a rendezvous until all of them have one;
// there the edge node must count every viewer as a live subscriber, so
// their edge references overlap. Then atRendezvous runs and the viewers
// drain. It returns each stream's full bytes.
func watchTogether(t *testing.T, edge *cluster.Node, urls []string, atRendezvous func()) [][]byte {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	bodies := make([][]byte, len(urls))
	var first, done sync.WaitGroup
	rendezvous := make(chan struct{})
	for i, url := range urls {
		first.Add(1)
		done.Add(1)
		go func() {
			defer done.Done()
			arrived := false
			defer func() {
				if !arrived {
					first.Done()
				}
			}()
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
			if err != nil {
				t.Error(err)
				return
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("GET %s: %d", url, resp.StatusCode)
				return
			}
			var body bytes.Buffer
			br := bufio.NewReader(io.TeeReader(resp.Body, &body))
			if _, err := gfx.ReadRecord(br); err != nil {
				t.Errorf("viewer %d: first record: %v", i, err)
				return
			}
			arrived = true
			first.Done()
			<-rendezvous
			if _, err := io.Copy(io.Discard, br); err != nil {
				t.Errorf("viewer %d: %v", i, err)
			}
			bodies[i] = body.Bytes()
		}()
	}
	first.Wait()
	if live := edge.Stats().Cluster.EdgeSubscribers; live != int64(len(urls)) {
		t.Errorf("%d of %d viewers still attached at the rendezvous: the job ended before they all joined",
			live, len(urls))
	}
	atRendezvous()
	close(rendezvous)
	done.Wait()
	return bodies
}

// TestEdgeRelaysUpstreamErrors: the owner's error answers pass through
// the edge verbatim — a non-frames job is 409 and an unknown job 404 on
// the edge exactly as on the owner.
func TestEdgeRelaysUpstreamErrors(t *testing.T) {
	tc := startCluster(t, 2, serveOptsForEdge())
	ctx := context.Background()

	multi := client.NewMulti(tc.urls...)
	cfg := mandelCfg(2, 16)
	st, _, err := multi.Submit(ctx, cfg, false) // no frames
	if err != nil {
		t.Fatal(err)
	}
	owner := tc.ownerIndex(cfg, false)
	if _, err := client.New(tc.urls[owner]).Wait(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	edge := (owner + 1) % len(tc.urls)

	status := func(url string) int {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}
	if got := status(tc.urls[edge] + "/v1/jobs/" + st.ID + "/frames"); got != http.StatusConflict {
		t.Errorf("edge frames of a non-frames job: %d, want 409", got)
	}
	ownerID := tc.nodes[owner].ID()
	if got := status(tc.urls[edge] + "/v1/jobs/" + ownerID + ".j-999999/frames"); got != http.StatusNotFound {
		t.Errorf("edge frames of an unknown job: %d, want 404", got)
	}
}
