package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"easypap/internal/core"
	"easypap/internal/serve"
	"easypap/internal/serve/store"
	"easypap/internal/trace"
)

// Handler serves the cluster-mode /v1 API. It is a superset of the
// single-node API (internal/serve/http.go): the job endpoints route by
// ring ownership and job-id prefix, /v1/stats gains a "cluster"
// section, and /v1/cluster* expose membership, health, the gossip
// exchange and the aggregated view.
//
//	POST   /v1/jobs                submit — proxied to the ring owner
//	GET    /v1/jobs/{id}           status — follows the id's node prefix
//	DELETE /v1/jobs/{id}           cancel — follows the id's node prefix
//	GET    /v1/jobs/{id}/frames    frame stream — follows the id's node prefix
//	GET    /v1/stats               local stats + cluster section
//	GET    /v1/kernels             local kernel registry
//	GET    /v1/trace/{id}          merged span tree (?scope=local: this node only)
//	GET    /metrics                Prometheus exposition (manager + cluster series)
//	GET    /v1/cluster             membership + health view
//	GET    /v1/cluster/health      liveness probe
//	POST   /v1/cluster/gossip      SWIM view exchange (the probe wire)
//	GET    /v1/cluster/stats       cluster-aggregated stats
//	GET    /v1/cluster/owner/{hash} ring ownership of a config hash
//	GET    /v1/cluster/entries     local durable entry hashes
//	GET    /v1/cluster/entries/{hash}  one entry, EZSTORE1 wire form
//	PUT    /v1/cluster/entries/{hash}  replicate an entry here
//	GET    /v1/cluster/spans/{trace}   this node's flat spans for a trace id
func (n *Node) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", n.handleSubmit)
	mux.HandleFunc("GET /v1/trace/{id}", n.handleTrace)
	mux.HandleFunc("GET /v1/cluster/spans/{trace}", n.handleSpans)
	mux.Handle("GET /metrics", n.mgr.Metrics().Handler())
	mux.HandleFunc("GET /v1/jobs/{id}", n.handleJob)
	mux.HandleFunc("DELETE /v1/jobs/{id}", n.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/frames", n.handleFrames)
	mux.HandleFunc("POST /v1/shard/start", n.handleShardStart)
	mux.HandleFunc("POST /v1/shard/halo", n.handleShardHalo)
	mux.HandleFunc("POST /v1/shard/abort", n.handleShardAbort)

	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		serve.WriteJSON(w, http.StatusOK, n.Stats())
	})
	mux.HandleFunc("GET /v1/kernels", func(w http.ResponseWriter, r *http.Request) {
		serve.WriteJSON(w, http.StatusOK, core.KernelList())
	})

	mux.HandleFunc("GET /v1/cluster", func(w http.ResponseWriter, r *http.Request) {
		serve.WriteJSON(w, http.StatusOK, n.Membership())
	})
	mux.HandleFunc("GET /v1/cluster/health", func(w http.ResponseWriter, r *http.Request) {
		mem, disk, diskBytes := n.mgr.CacheSizes()
		serve.WriteJSON(w, http.StatusOK, HealthInfo{
			OK: true, ID: n.id, URL: n.opts.Self,
			CacheEntries: mem, DiskEntries: int64(disk), DiskBytes: diskBytes,
		})
	})
	mux.HandleFunc("POST /v1/cluster/gossip", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := n.HandleGossip(w, io.LimitReader(r.Body, 1<<22)); err != nil {
			serve.WriteError(w, http.StatusBadRequest, err)
		}
	})
	mux.HandleFunc("GET /v1/cluster/entries", func(w http.ResponseWriter, r *http.Request) {
		hashes := n.mgr.EntryHashes()
		if hashes == nil {
			hashes = []string{}
		}
		serve.WriteJSON(w, http.StatusOK, EntryList{Node: n.id, Hashes: hashes})
	})
	mux.HandleFunc("GET /v1/cluster/entries/{hash}", func(w http.ResponseWriter, r *http.Request) {
		// Kind-agnostic: the key may name a result entry (EZSTORE1) or a
		// checkpoint (EZSNAP1), and the key tells the peer which it gets.
		body, ok := n.mgr.GetEntryWire(r.PathValue("hash"))
		if !ok {
			serve.WriteError(w, http.StatusNotFound, fmt.Errorf("cluster: no entry %s here", r.PathValue("hash")))
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Write(body)
	})
	mux.HandleFunc("PUT /v1/cluster/entries/{hash}", func(w http.ResponseWriter, r *http.Request) {
		// The body is a wire record, stored as sent once it decodes as the
		// record the path key names: a corrupt or mislabeled transfer is
		// refused, never stored.
		body, err := io.ReadAll(io.LimitReader(r.Body, 1<<30))
		if err != nil {
			serve.WriteError(w, http.StatusBadRequest, err)
			return
		}
		if err := n.mgr.PutWire(r.PathValue("hash"), body); err != nil {
			// 501, not 5xx-gateway: a storeless node is a config problem,
			// and the proxy layer must not read it as a dead peer.
			code := http.StatusNotImplemented
			if errors.Is(err, store.ErrInvalidRecord) {
				code = http.StatusBadRequest
			}
			serve.WriteError(w, code, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("GET /v1/cluster/stats", func(w http.ResponseWriter, r *http.Request) {
		serve.WriteJSON(w, http.StatusOK, n.AggregateStats(r.Context()))
	})
	mux.HandleFunc("GET /v1/cluster/owner/{hash}", func(w http.ResponseWriter, r *http.Request) {
		hash := r.PathValue("hash")
		key := core.HashPoint(hash)
		ring, _ := n.snapshot()
		replicas := ring.Replicas(key, 0)
		resp := map[string]any{"hash": hash, "key": key, "replicas": replicas}
		if len(replicas) > 0 {
			resp["owner"] = replicas[0]
			if m := n.memberByID(replicas[0]); m != nil {
				resp["url"] = m.url
			}
		}
		serve.WriteJSON(w, http.StatusOK, resp)
	})

	return mux
}

// handleSubmit routes a submission to the owner of its canonical config
// hash, walking the ring to the next distinct replica when a peer is
// unreachable. A request that already hopped once is served locally.
func (n *Node) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		serve.WriteError(w, http.StatusBadRequest, fmt.Errorf("reading submission: %w", err))
		return
	}
	var req serve.SubmitRequest
	if err := json.Unmarshal(body, &req); err != nil {
		serve.WriteError(w, http.StatusBadRequest, fmt.Errorf("decoding submission: %w", err))
		return
	}
	// The entry node mints the trace id (unless the client brought one);
	// every hop, replica fetch, and recompute downstream carries it in
	// the X-Easypap-Trace header, which is what makes GET /v1/trace able
	// to stitch one tree out of many nodes' span rings.
	traceID := r.Header.Get(serve.TraceHeader)
	if traceID == "" {
		traceID = trace.NewTraceID()
	}
	if r.Header.Get(HopHeader) != "" {
		n.submitLocal(w, req, traceID)
		return
	}
	norm, _, key, err := RouteKey(req.Config, req.Frames)
	if err != nil {
		serve.WriteError(w, http.StatusBadRequest, err)
		return
	}
	// Forward the normalized config, not the raw body: the entry node's
	// canonicalization is authoritative (see RouteKey), so the owner's
	// cache key always equals the hash this request was routed by.
	req.Config = norm
	fwd, err := json.Marshal(req)
	if err != nil {
		serve.WriteError(w, http.StatusInternalServerError, err)
		return
	}
	r.Header.Set(serve.TraceHeader, traceID) // proxy() copies it downstream
	var lastErr error
	for _, m := range n.candidates(key) {
		if m.self {
			n.submitLocal(w, req, traceID)
			return
		}
		begin := time.Now()
		ok, err := n.proxy(w, r, m, "/v1/jobs", fwd, func() {
			n.jobsProxied.Add(1)
			n.observeSpan(n.proxyHist, traceID, serve.StageProxy, m.id, begin, time.Now(), nil)
		})
		if ok {
			return
		}
		n.observeSpan(n.proxyHist, traceID, serve.StageProxy, m.id, begin, time.Now(), err)
		// The replica is unreachable (or draining): demote it and walk on.
		n.suspect(m)
		n.failovers.Add(1)
		lastErr = err
	}
	serve.WriteError(w, http.StatusBadGateway,
		fmt.Errorf("cluster: no reachable replica for submission (last error: %v)", lastErr))
}

// submitLocal admits the job on the local manager and namespaces its id.
// A sharded submission lands here on its ring owner, which makes the
// owner the session coordinator (shard.go).
func (n *Node) submitLocal(w http.ResponseWriter, req serve.SubmitRequest, traceID string) {
	st, err := n.mgr.SubmitShards(req.Config, req.Frames, traceID, req.Shards)
	if err != nil {
		serve.WriteSubmitError(w, err)
		return
	}
	n.jobsOwned.Add(1)
	st.ID = n.prefixID(st.ID)
	code := http.StatusAccepted
	if st.State.Terminal() {
		code = http.StatusOK // cache hit: the result is already here
	}
	serve.WriteJSON(w, code, st)
}

// handleJob serves GET (status) and DELETE (cancel), following the job
// id's node prefix: local ids are answered by the local manager, remote
// ids proxy to the owning node. There is no failover for these — the
// job record lives exactly where the id says.
func (n *Node) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	node, local, prefixed := SplitJobID(id)
	if !prefixed || node == n.id {
		var st *serve.JobStatus
		var err error
		if r.Method == http.MethodDelete {
			st, err = n.mgr.Cancel(local)
		} else {
			st, err = n.mgr.Get(local)
		}
		if err != nil {
			serve.WriteError(w, serve.JobStatusCode(err), err)
			return
		}
		st.ID = n.prefixID(st.ID)
		serve.WriteJSON(w, http.StatusOK, st)
		return
	}
	n.proxyJobRequest(w, r, node, "/v1/jobs/"+id)
}

// handleFrames streams a job's frames. Locally owned jobs subscribe to
// the manager's hub directly. For a peer-owned job this node acts as a
// viewing edge: all local viewers share ONE upstream stream per (job,
// format), fanned out through a local hub (edge.go) — instead of one
// owner connection per viewer.
func (n *Node) handleFrames(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	node, local, prefixed := SplitJobID(id)
	format := serve.FrameFormat(r)
	if !prefixed || node == n.id {
		rd, err := n.mgr.FrameStream(r.Context(), local, format)
		if err != nil {
			serve.WriteError(w, serve.JobStatusCode(err), err)
			return
		}
		defer rd.Close()
		serve.StreamAll(w, http.StatusOK, serve.FrameContentType(format), rd)
		return
	}
	m := n.memberByID(node)
	if m == nil {
		serve.WriteError(w, http.StatusNotFound,
			fmt.Errorf("cluster: job id names unknown node %q", node))
		return
	}
	n.statusProxied.Add(1)
	es, err := n.acquireEdge(r.Context(), m, id, format)
	if err != nil {
		var ue *edgeUpstreamError
		if errors.As(err, &ue) {
			// Relay the owner's answer (404 unknown job, 409 no frames, ...)
			// verbatim.
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(ue.Status)
			w.Write(ue.Body)
			return
		}
		serve.WriteError(w, http.StatusBadGateway, err)
		return
	}
	defer n.releaseEdge(es)
	rd := es.hub.Subscribe(r.Context(), format)
	defer rd.Close()
	serve.StreamAll(w, http.StatusOK, serve.FrameContentType(format), rd)
}

// proxyJobRequest forwards a status/cancel/frames call to the node a job
// id names.
func (n *Node) proxyJobRequest(w http.ResponseWriter, r *http.Request, nodeID, path string) {
	m := n.memberByID(nodeID)
	if m == nil {
		serve.WriteError(w, http.StatusNotFound,
			fmt.Errorf("cluster: job id names unknown node %q", nodeID))
		return
	}
	ok, err := n.proxy(w, r, m, path, nil, func() { n.statusProxied.Add(1) })
	if ok {
		return
	}
	n.suspect(m)
	serve.WriteError(w, http.StatusBadGateway,
		fmt.Errorf("cluster: node %s (%s) unreachable: %v", m.id, m.url, err))
}

// proxy forwards the request to m and relays the response. It returns
// (false, err) when the peer must be considered unreachable — transport
// error, or a gateway/drain status — and nothing was written to w, so
// the caller can fail over. Any other response (including 4xx and 429)
// is relayed verbatim and counts as reached: reached runs before the
// relay starts, so a client that has read the answer also sees what
// reached records (a counter, the proxy span).
func (n *Node) proxy(w http.ResponseWriter, r *http.Request, m *member, path string, body []byte, reached func()) (bool, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, m.url+path, rd)
	if err != nil {
		return false, err
	}
	if ct := r.Header.Get("Content-Type"); ct != "" {
		req.Header.Set("Content-Type", ct)
	}
	if tid := r.Header.Get(serve.TraceHeader); tid != "" {
		req.Header.Set(serve.TraceHeader, tid)
	}
	req.Header.Set(HopHeader, n.id)
	resp, err := n.opts.HTTP.Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusBadGateway, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		// 503 is serve's "manager draining" answer; treat like a dead peer
		// so in-flight sweeps fail over instead of erroring out.
		return false, fmt.Errorf("cluster: %s returned %s", m.url, resp.Status)
	}
	n.markUp(m)
	reached()
	if rerr := serve.StreamAll(w, resp.StatusCode, resp.Header.Get("Content-Type"), resp.Body); rerr != nil && rerr != io.EOF {
		// The upstream died mid-stream. Ending the chunked response
		// normally would hand the client a clean EOF on a truncated
		// stream — abort the connection instead so the truncation is
		// visible (net/http treats ErrAbortHandler as a deliberate
		// mid-response abort).
		panic(http.ErrAbortHandler)
	}
	return true, nil
}
