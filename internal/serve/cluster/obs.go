package cluster

// Cluster observability: the routing layer's metrics (registered into
// the local Manager's registry, so one GET /metrics scrape covers both
// tiers) and the merged distributed trace behind GET /v1/trace/{job}.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"easypap/internal/metrics"
	"easypap/internal/serve"
	"easypap/internal/trace"
)

// registerObs wires the routing layer into the manager's registry and
// names this node for span recording. Called once from NewNode, before
// the node serves traffic.
func (n *Node) registerObs() {
	n.mgr.SetNodeName(n.id)
	reg := n.mgr.Metrics()

	n.proxyHist = serve.StageHistogram(reg, serve.StageProxy)
	n.replicateHist = serve.StageHistogram(reg, serve.StageReplicate)
	n.gossipHist = serve.StageHistogram(reg, serve.StageGossip)

	ctr := func(name, help string, v interface{ Load() int64 }) {
		reg.CounterFunc(name, help, nil, func() uint64 { return uint64(v.Load()) })
	}
	ctr("easypapd_cluster_jobs_owned_total", "Cluster submissions served by the local manager.", &n.jobsOwned)
	ctr("easypapd_cluster_jobs_proxied_total", "Submissions forwarded to their owning peer.", &n.jobsProxied)
	ctr("easypapd_cluster_status_proxied_total", "Status/cancel/frames calls forwarded by id prefix.", &n.statusProxied)
	ctr("easypapd_cluster_failovers_total", "Submissions re-routed past an unreachable replica.", &n.failovers)
	ctr("easypapd_replica_pushed_total", "Entries pushed to ring successors.", &n.replPushed)
	ctr("easypapd_replica_dropped_total", "Replication pushes dropped (queue full or unreachable).", &n.replDropped)
	ctr("easypapd_replica_fetched_total", "Entries fetched from a replica on local miss.", &n.replFetched)
	ctr("easypapd_rebalanced_total", "Entries migrated by the rebalancer.", &n.rebalanced)
	ctr("easypapd_rebalance_bytes_total", "Bytes moved by the rebalancer.", &n.rebalBytes)

	// Edge frame fan-out: dedup'd upstream fetches plus the local edge
	// hubs' subscriber/drop counters (the manager's own hubs report under
	// easypapd_frame_*; these series are the proxy layer's).
	ctr("easypapd_edge_upstream_streams_total", "Upstream frame streams opened by the edge fan-out (one per job/format, not per viewer).", &n.edgeUpstreams)
	ctr("easypapd_edge_dropped_keyframe_total", "Edge-hub slow-subscriber catch-ups that skipped ahead to a keyframe.", &n.edgeStats.DroppedToKey)
	reg.GaugeFunc("easypapd_edge_subscribers", "Viewers currently attached to local edge frame hubs.", nil,
		func() float64 { return float64(n.edgeStats.Subscribers.Load()) })

	reg.GaugeFunc("easypapd_ring_version", "Ring swap counter (the convergence clock).", nil,
		func() float64 { return float64(n.ringVersion.Load()) })
	reg.GaugeFunc("easypapd_ring_nodes", "Members on the ring (non-dead).", nil, func() float64 {
		ring, _ := n.snapshot()
		return float64(ring.Len())
	})
	for _, st := range []int32{stateAlive, stateSuspect, stateDead} {
		st := st
		reg.GaugeFunc("easypapd_cluster_members", "Known members by state.",
			metrics.Labels{"state": stateName(st)}, func() float64 {
				_, ms := n.snapshot()
				var c int
				for _, m := range ms {
					if m.self {
						if st == stateAlive {
							c++
						}
						continue
					}
					if m.state.Load() == st {
						c++
					}
				}
				return float64(c)
			})
	}
	reg.GaugeFunc("easypapd_replication_lag", "Entries waiting in the replication push queue.", nil,
		func() float64 { return float64(len(n.replq)) })
}

// observeSpan records a stage span (and its histogram) on the local
// manager's ring. Trace-less operations (gossip, rebalancing) pass
// traceID "" and only feed the histogram.
func (n *Node) observeSpan(h *metrics.Histogram, traceID, stage, peer string, start, end time.Time, err error) {
	if h != nil {
		h.Observe(end.Sub(start).Nanoseconds())
	}
	if traceID == "" {
		return
	}
	s := trace.Span{
		TraceID: traceID, Node: n.id, Stage: stage, Peer: peer,
		Start: start.UnixNano(), End: end.UnixNano(),
	}
	if err != nil {
		s.Err = err.Error()
	}
	n.mgr.RecordSpan(s)
}

// --- merged distributed trace ----------------------------------------

// TraceJob resolves a cluster job id to its merged span tree: the trace
// id comes from the job's record (locally, or from the owning node named
// by the id prefix), then every non-dead member is asked for its spans
// for that id and the union is nested into one TraceDoc. When the owner
// contributes no spans (it died or became unreachable meanwhile), the
// answer is ErrUnknownJob rather than a tree of the hops alone.
func (n *Node) TraceJob(ctx context.Context, id string) (*serve.TraceDoc, error) {
	node, local, prefixed := SplitJobID(id)
	var traceID string
	if !prefixed || node == n.id {
		traceID = n.mgr.TraceIDOf(local)
	} else if m := n.memberByID(node); m != nil {
		traceID = n.remoteTraceID(ctx, m, id)
	}
	if traceID == "" {
		return nil, serve.ErrUnknownJob
	}
	spans := n.mgr.SpansForTrace(traceID)
	ownerSeen := !prefixed || node == n.id
	_, ms := n.snapshot()
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, m := range ms {
		if m.self || m.state.Load() == stateDead {
			continue
		}
		wg.Add(1)
		go func(m *member) {
			defer wg.Done()
			remote := n.remoteSpans(ctx, m, traceID)
			mu.Lock()
			spans = append(spans, remote...)
			ownerSeen = ownerSeen || (m.id == node && len(remote) > 0)
			mu.Unlock()
		}(m)
	}
	wg.Wait()
	// The owner holds the job's own spans (admit, compute or a cache
	// tier). Without them the tree would be only the hops that led to
	// it: the job's trace state died with the owner.
	if !ownerSeen {
		return nil, fmt.Errorf("%w: owner %s of %s contributed no spans", serve.ErrUnknownJob, node, id)
	}
	return serve.BuildTraceDoc(traceID, id, dedupeSpans(spans)), nil
}

// remoteTraceID asks the node that owns a job id for its trace id, via
// the owner's local-scope trace endpoint.
func (n *Node) remoteTraceID(ctx context.Context, m *member, id string) string {
	ctx, cancel := context.WithTimeout(ctx, replTimeout)
	defer cancel()
	data, err := n.call(ctx, peerCall{method: http.MethodGet, url: m.url + "/v1/trace/" + id + "?scope=local", limit: jsonLimit})
	var doc serve.TraceDoc
	if err != nil || json.Unmarshal(data, &doc) != nil {
		return ""
	}
	return doc.TraceID
}

// remoteSpans fetches one member's flat spans for a trace id.
// Best-effort: an unreachable member contributes nothing (its spans are
// gone with it, which is exactly what the tree should show).
func (n *Node) remoteSpans(ctx context.Context, m *member, traceID string) []trace.Span {
	ctx, cancel := context.WithTimeout(ctx, replTimeout)
	defer cancel()
	data, err := n.call(ctx, peerCall{method: http.MethodGet, url: m.url + "/v1/cluster/spans/" + traceID, limit: jsonLimit})
	var spans []trace.Span
	if err != nil || json.Unmarshal(data, &spans) != nil {
		return nil
	}
	return spans
}

// dedupeSpans drops exact duplicates (a span can arrive twice when the
// local ring and a remote fetch overlap).
func dedupeSpans(spans []trace.Span) []trace.Span {
	type key struct {
		node, job, stage, peer string
		start, end             int64
	}
	seen := make(map[key]bool, len(spans))
	out := spans[:0:0]
	for _, s := range spans {
		k := key{s.Node, s.Job, s.Stage, s.Peer, s.Start, s.End}
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, s)
	}
	return out
}

// handleTrace serves GET /v1/trace/{id}. scope=local (or an incoming
// hop header) answers from the local ring only — the recursion floor of
// the merged query; anything else merges cluster-wide.
func (n *Node) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if r.URL.Query().Get("scope") == "local" || r.Header.Get(HopHeader) != "" {
		_, local, prefixed := SplitJobID(id)
		if !prefixed {
			local = id
		}
		doc, err := n.mgr.Trace(local)
		if err != nil {
			serve.WriteError(w, serve.JobStatusCode(err), err)
			return
		}
		doc.Job = id
		serve.WriteJSON(w, http.StatusOK, doc)
		return
	}
	doc, err := n.TraceJob(r.Context(), id)
	if err != nil {
		serve.WriteError(w, serve.JobStatusCode(err), err)
		return
	}
	serve.WriteJSON(w, http.StatusOK, doc)
}

// handleSpans serves GET /v1/cluster/spans/{trace}: this node's flat
// spans for a trace id (always an array, possibly empty).
func (n *Node) handleSpans(w http.ResponseWriter, r *http.Request) {
	spans := n.mgr.SpansForTrace(r.PathValue("trace"))
	if spans == nil {
		spans = []trace.Span{}
	}
	serve.WriteJSON(w, http.StatusOK, spans)
}
