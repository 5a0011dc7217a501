package cluster

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"

	"easypap/internal/gfx"
	"easypap/internal/serve"
)

// Edge fan-out: any node can serve a job's frame stream, but a non-owner
// opens at most ONE upstream connection per (job, format) regardless of
// how many local viewers attach. The upstream records are re-published
// into a local serve.FrameHub, and every local subscriber reads from
// that hub with the usual independent-cursor/drop-to-keyframe semantics.
// 100k watchers on 100 nodes cost the owner 100 streams, not 100k.
//
// Lifecycle: the first viewer creates the edge stream and dials the
// owner; later viewers share it (refcounted). When the last viewer
// detaches the upstream is canceled and the entry dropped. When the
// upstream ends first (job finished), the hub closes and viewers drain
// the retained ring to a clean EOF; the entry stays until the viewers
// release it, so a burst of watchers on a just-finished job still shares
// one upstream fetch.

// edgeStream is one deduplicated upstream frame stream.
type edgeStream struct {
	key    string // jobID + "|" + format
	hub    *serve.FrameHub
	cancel context.CancelFunc
	ready  chan struct{} // closed once the upstream answered (or failed)
	err    error         // set before ready closes when the dial failed
	refs   int           // guarded by n.edgeMu
}

// edgeUpstreamError relays an upstream non-200 answer (404 unknown job,
// 409 no frames, ...) to edge viewers verbatim.
type edgeUpstreamError struct {
	Status int
	Body   []byte
}

func (e *edgeUpstreamError) Error() string {
	return fmt.Sprintf("cluster: upstream frames fetch returned %d: %s", e.Status, e.Body)
}

// acquireEdge returns the node's edge stream for (fullID, format),
// creating and dialing it when this is the first viewer. It blocks until
// the upstream answered or ctx (the viewer's request context) is done.
// The caller must releaseEdge exactly once.
func (n *Node) acquireEdge(ctx context.Context, m *member, fullID string, format gfx.StreamFormat) (*edgeStream, error) {
	key := fullID + "|" + string(format)
	n.edgeMu.Lock()
	if n.edgeClosed {
		n.edgeMu.Unlock()
		return nil, fmt.Errorf("cluster: node closed")
	}
	es, ok := n.edges[key]
	if ok {
		es.refs++
		n.edgeMu.Unlock()
	} else {
		upCtx, cancel := context.WithCancel(context.Background())
		es = &edgeStream{
			key:    key,
			hub:    serve.NewFrameHub(serve.HubOptions{Stats: &n.edgeStats}),
			cancel: cancel,
			ready:  make(chan struct{}),
			refs:   1,
		}
		n.edges[key] = es
		n.edgeMu.Unlock()
		n.wg.Add(1)
		go n.pumpEdge(upCtx, es, m, fullID, format)
	}
	select {
	case <-es.ready:
	case <-ctx.Done():
		n.releaseEdge(es)
		return nil, ctx.Err()
	}
	if es.err != nil {
		err := es.err
		n.releaseEdge(es)
		return nil, err
	}
	return es, nil
}

// releaseEdge drops one viewer reference; the last reference cancels the
// upstream and removes the entry.
func (n *Node) releaseEdge(es *edgeStream) {
	n.edgeMu.Lock()
	es.refs--
	if es.refs <= 0 {
		delete(n.edges, es.key)
		es.cancel()
	}
	n.edgeMu.Unlock()
}

// closeEdges cancels every upstream stream (Node.Close). Viewers see the
// hubs close and drain out.
func (n *Node) closeEdges() {
	n.edgeMu.Lock()
	n.edgeClosed = true
	for _, es := range n.edges {
		es.cancel()
	}
	n.edgeMu.Unlock()
}

// pumpEdge dials the owner once and re-publishes every upstream record
// into the edge hub. Exactly one pump runs per edge stream.
func (n *Node) pumpEdge(ctx context.Context, es *edgeStream, m *member, fullID string, format gfx.StreamFormat) {
	defer n.wg.Done()
	defer es.hub.Close()
	url := m.url + "/v1/jobs/" + fullID + "/frames"
	if format == gfx.FormatDelta {
		url += "?format=" + string(gfx.FormatDelta)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		es.err = err
		close(es.ready)
		return
	}
	req.Header.Set(HopHeader, n.id)
	resp, err := n.opts.HTTP.Do(req)
	if err != nil {
		n.suspect(m)
		es.err = fmt.Errorf("cluster: node %s (%s) unreachable: %w", m.id, m.url, err)
		close(es.ready)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		es.err = &edgeUpstreamError{Status: resp.StatusCode, Body: body}
		close(es.ready)
		return
	}
	n.markUp(m)
	n.edgeUpstreams.Add(1)
	close(es.ready)

	br := bufio.NewReader(resp.Body)
	for {
		rec, err := gfx.ReadRecord(br)
		if err != nil {
			// io.EOF: the owner ended the stream (job finished) — the hub
			// close in the defer turns it into a clean viewer EOF. Anything
			// else truncates; viewers see the stream end early, and a fresh
			// viewer triggers a fresh upstream fetch.
			return
		}
		// Re-publish the raw wire bytes. Full records are keyframes; delta
		// records only exist on delta-format streams, where no full-format
		// subscriber ever attaches to this hub.
		var full, delta []byte
		enc := rec.Encode()
		if rec.Kind == gfx.RecordFull {
			full = enc
		} else {
			delta = enc
		}
		if es.hub.Publish(rec.Window, rec.Kind == gfx.RecordFull, full, delta) != nil {
			return
		}
	}
}
