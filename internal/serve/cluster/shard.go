package cluster

// Sharded-job coordination: the cluster side of distributed single-job
// execution (internal/serve/shard.go holds the per-rank executor). A
// submission carrying shards > 1 reaches its ring owner through the
// normal routing path; there, instead of running the whole grid locally,
// the manager's shard-runner hook lands here and the node becomes the
// session coordinator:
//
//  1. plan: clamp the shard count to the healthy member count and the
//     grid's tile rows, order the participants self-first (the
//     coordinator is always rank 0 — it owns the job record, the frame
//     stream, and the stitched result),
//  2. start: register rank 0's session here (Manager.PrepareShard), then
//     POST /v1/shard/start to every remote rank, so no remote rank's
//     first halo reaches rank 0 before its session exists. Any start
//     failure aborts the ranks already started, releases rank 0 and
//     hands the job back to the manager's plain run — nothing has been
//     computed yet, so degrading is free and the client never sees the
//     hiccup,
//  3. run: execute rank 0 in-process (ShardRank.Run); the halo
//     engine exchanges boundary rows directly between neighbor ranks
//     (coordinator not in the loop), and the per-iteration convergence
//     vote rides the same wire,
//  4. finish: rank 0's GatherBands stitches the final image. A rank that
//     completes unregisters its own session, so only a failed rank 0 run
//     POSTs aborts to tear down the sessions still live on its peers.
//
// A rank lost mid-run surfaces as serve.ErrShardFailed within the halo
// timeout — the job fails typed (ErrorKind "shard_failed"), and the
// client resubmits unsharded.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"easypap/internal/core"
	"easypap/internal/serve"
)

// shardStartTimeout bounds one POST /v1/shard/start round trip: starting
// a shard only registers a session and spawns its goroutine, so a peer
// that cannot answer quickly is a peer to fall back from.
const shardStartTimeout = 5 * time.Second

// runSharded is the serve.ShardRunner installed by NewNode: coordinate
// one sharded job, or decline it (sharded false, nothing computed) when
// the cluster cannot shard it right now, so the manager runs it on its
// plain path.
func (n *Node) runSharded(ctx context.Context, job serve.ShardJob) (*core.RunOutput, bool, error) {
	ranks, ok := n.planShards(job)
	if !ok {
		return nil, false, nil
	}
	session := n.prefixID(job.ID)
	peers := make([]string, len(ranks))
	for i, m := range ranks {
		peers[i] = m.url
	}
	mkReq := func(rank int) serve.StartShardRequest {
		return serve.StartShardRequest{
			Session: session, Job: job.ID, TraceID: job.TraceID,
			Config: job.Config, Frames: job.Frames,
			Rank: rank, Shards: len(ranks), Peers: peers,
		}
	}

	// Rank 0 is registered before any remote rank starts, so a remote
	// rank's first halo to it never arrives ahead of its session.
	rank0, err := n.mgr.PrepareShard(ctx, mkReq(0), n.sendHalo)
	if err != nil {
		return nil, true, err
	}
	var started []*member
	for rank := 1; rank < len(ranks); rank++ {
		if err := n.startRemoteShard(ctx, ranks[rank], mkReq(rank)); err != nil {
			// Nothing has computed yet: tear down what started, demote the
			// unreachable peer, and let the manager run the job instead.
			for _, m := range started {
				n.abortRemoteShard(m, session, "coordinator start failed")
			}
			rank0.Release()
			n.suspect(ranks[rank])
			return nil, false, nil
		}
		started = append(started, ranks[rank])
	}
	out, err := rank0.Run(job.Sink, job.OnActivity)
	if err != nil {
		for _, m := range started {
			n.abortRemoteShard(m, session, "coordinator run failed")
		}
	}
	return out, true, err
}

// planShards decides whether (and how) to shard: the variant must be
// distributed-capable (an mpi variant — it programs against a Comm), and
// the effective shard count is clamped to the healthy member count and
// the grid's tile rows (every rank needs at least one tile row). Returns
// the participant list in rank order, self first.
func (n *Node) planShards(job serve.ShardJob) ([]*member, bool) {
	if job.Shards < 2 || !strings.HasPrefix(job.Config.Variant, "mpi") {
		return nil, false
	}
	tileRows := 0
	if job.Config.TileH > 0 {
		tileRows = job.Config.Dim / job.Config.TileH
	}
	if tileRows < 2 {
		return nil, false // not enough tile rows to give every rank one
	}
	ring, ms := n.snapshot()
	ranks := make([]*member, 0, job.Shards)
	var self *member
	for _, m := range ms {
		if m.self {
			self = m
		}
	}
	if self == nil {
		return nil, false
	}
	ranks = append(ranks, self)
	hash, err := job.Config.Hash()
	if err != nil {
		return nil, false
	}
	// Fill remaining ranks with alive peers in ring order from the job's
	// key — the same deterministic order routing uses, so repeated runs
	// of one config land on the same band layout.
	for _, id := range ring.Replicas(core.HashPoint(hash), 0) {
		if len(ranks) >= job.Shards || len(ranks) >= tileRows {
			break
		}
		m := n.memberByID(id)
		if m == nil || m.self || !m.alive() {
			continue
		}
		ranks = append(ranks, m)
	}
	if len(ranks) < 2 {
		return nil, false
	}
	return ranks, true
}

// startRemoteShard POSTs a rank's start request to its node.
func (n *Node) startRemoteShard(ctx context.Context, m *member, req serve.StartShardRequest) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(ctx, shardStartTimeout)
	defer cancel()
	if _, err := n.call(ctx, peerCall{method: http.MethodPost, url: m.url + "/v1/shard/start",
		body: body, ctype: "application/json", traceID: req.TraceID,
		limit: 4096, ok: []int{http.StatusAccepted}}); err != nil {
		return err
	}
	n.markUp(m)
	return nil
}

// abortRemoteShard tears a session down on a peer, best-effort: a peer
// that cannot be told still fails the session within its halo timeout.
func (n *Node) abortRemoteShard(m *member, session, reason string) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	target := m.url + "/v1/shard/abort?session=" + url.QueryEscape(session) +
		"&reason=" + url.QueryEscape(reason)
	_, _ = n.call(ctx, peerCall{method: http.MethodPost, url: target, limit: 4096, ok: []int{http.StatusNoContent}})
}

// sendHalo is the serve.HaloSender of this node's shard ranks: it POSTs
// one EZMSG1 frame to rank dst's halo endpoint within ctx, which serve
// bounds by the halo timeout and cancels with the session. A 404 or 503
// means the peer is up but the session is not registered there yet
// (start order) or its manager is momentarily unavailable, so the send
// retries every 10 ms until ctx ends; any other failure is final.
func (n *Node) sendHalo(ctx context.Context, req *serve.StartShardRequest, dst int, frame []byte) error {
	peer := strings.TrimRight(req.Peers[dst], "/")
	target := peer + "/v1/shard/halo?session=" + url.QueryEscape(req.Session)
	for {
		_, err := n.call(ctx, peerCall{method: http.MethodPost, url: target,
			body: frame, ctype: "application/x-easypap-halo", traceID: req.TraceID,
			limit: 4096, ok: []int{http.StatusNoContent, http.StatusOK}})
		if err == nil {
			return nil
		}
		var se *statusError
		if !errors.As(err, &se) || (se.code != http.StatusNotFound && se.code != http.StatusServiceUnavailable) {
			return fmt.Errorf("halo to rank %d (%s): %w", dst, peer, err)
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("halo to rank %d (%s): session not ready (HTTP %d): %w", dst, peer, se.code, ctx.Err())
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// --- HTTP endpoints ---------------------------------------------------

// handleShardStart serves POST /v1/shard/start: begin executing one rank
// of a distributed session here.
func (n *Node) handleShardStart(w http.ResponseWriter, r *http.Request) {
	var req serve.StartShardRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		serve.WriteError(w, http.StatusBadRequest, fmt.Errorf("decoding shard start: %w", err))
		return
	}
	if err := n.mgr.StartShard(req, n.sendHalo); err != nil {
		code := http.StatusBadRequest
		switch {
		case errors.Is(err, serve.ErrShardExists):
			code = http.StatusConflict
		case errors.Is(err, serve.ErrClosed):
			code = http.StatusServiceUnavailable
		}
		serve.WriteError(w, code, err)
		return
	}
	w.WriteHeader(http.StatusAccepted)
}

// handleShardHalo serves POST /v1/shard/halo?session=S: inject one wire
// frame into the session's mailbox. 404 tells the sender the session is
// not here (yet) — it retries until its halo timeout.
func (n *Node) handleShardHalo(w http.ResponseWriter, r *http.Request) {
	session := r.URL.Query().Get("session")
	if session == "" {
		serve.WriteError(w, http.StatusBadRequest, fmt.Errorf("cluster: halo without session"))
		return
	}
	frame, err := io.ReadAll(io.LimitReader(r.Body, 1<<30))
	if err != nil {
		serve.WriteError(w, http.StatusBadRequest, err)
		return
	}
	if err := n.mgr.InjectShardHalo(session, frame); err != nil {
		code := http.StatusBadRequest
		if errors.Is(err, serve.ErrUnknownShard) {
			code = http.StatusNotFound
		}
		serve.WriteError(w, code, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleShardAbort serves POST /v1/shard/abort?session=S (idempotent).
func (n *Node) handleShardAbort(w http.ResponseWriter, r *http.Request) {
	session := r.URL.Query().Get("session")
	reason := r.URL.Query().Get("reason")
	if reason == "" {
		reason = "aborted by peer"
	}
	n.mgr.AbortShard(session, reason)
	w.WriteHeader(http.StatusNoContent)
}
