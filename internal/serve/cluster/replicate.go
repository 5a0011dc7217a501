package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"easypap/internal/core"
	"easypap/internal/serve"
	"easypap/internal/serve/store"
)

// R-way cache replication. The single-box stack already makes results
// durable (internal/serve/store); this layer makes them survive losing
// the box. Three mechanisms share the record wire format — the exact
// object file bytes (EZSTORE1 or EZSNAP1), CRC'd and self-describing:
//
//	push      — write-behind: the manager's spill hook hands the bytes
//	            of every freshly persisted entry or checkpoint to a
//	            queue, and a worker PUTs them as they are to the R-1
//	            ring successors of its owner. Losing the queue loses
//	            nothing but redundancy (the record is on disk locally;
//	            the rebalancer will retry it).
//	fetch     — read failover: on a local memory+disk miss the manager
//	            asks the ring replicas for the entry before computing.
//	            A node death therefore costs recomputes only for
//	            entries whose replication had not completed.
//	rebalance — after any ring change, every node walks its entry set
//	            and pushes entries to the replicas that should now hold
//	            them, under a bandwidth budget so a membership change
//	            does not flatten the network.
//
// No push, rebalance transfer or fetch re-encodes a record. The sender
// sends the bytes its store wrote (or, rebalancing, read back); the
// receiver (PUT /v1/cluster/entries/{key}, Manager.PutWire) checks that
// they decode as the record their key names — content addressing makes
// the transfer self-verifying — and stores them as sent, and so does
// the manager's disk rung with the bytes a fetch returns. A re-encode
// would drop whatever this build's decoder does not know, such as a
// result field a newer peer added, so during a rolling deploy older
// nodes would strip what newer ones write.

// replTimeout bounds one entry transfer (push or fetch).
const replTimeout = 2 * time.Second

// replTask is one queued replication push of an entry or a checkpoint
// (both ride the same queue and wire path, under their own key); the
// trace id ties the push spans into the originating job's distributed
// trace.
type replTask struct {
	key     string
	data    []byte
	traceID string
}

// enqueueReplication is the manager's spill hook: called with the
// stored bytes after an entry or a checkpoint hits the local disk.
// Checkpoints replicate exactly like entries, so a node death costs at
// most SnapshotEvery iterations of recompute on the surviving replicas.
// Never blocks the spiller — a full queue drops the push (counted; the
// rebalancer heals the gap later).
func (n *Node) enqueueReplication(key string, data []byte, traceID string) {
	select {
	case n.replq <- replTask{key: key, data: data, traceID: traceID}:
	default:
		n.replDropped.Add(1)
	}
}

func (n *Node) replicateLoop() {
	defer n.wg.Done()
	for {
		select {
		case <-n.stop:
			return
		case t := <-n.replq:
			n.push(t.key, t.data, t.traceID)
		}
	}
}

// replicaTargets returns the non-self members among the first R ring
// replicas of an entry's key — the peers that should hold a copy.
func (n *Node) replicaTargets(hash string) []*member {
	ring, _ := n.snapshot()
	ids := ring.Replicas(core.HashPoint(hash), n.opts.Replicate)
	var out []*member
	for _, id := range ids {
		if m := n.memberByID(id); m != nil && !m.self {
			out = append(out, m)
		}
	}
	return out
}

// push sends one encoded record (entry or snapshot) to every replica
// target of its storage key. The ring routes by the full key, so
// successive snapshots of one prefix spread like any other content —
// what matters is only that R nodes hold each. Counted per target; a
// push to an unreachable peer is dropped (the rebalancer retries after
// the ring reflects the death). Each push is a replicate span in the
// originating job's trace, naming the receiver.
func (n *Node) push(key string, body []byte, traceID string) {
	for _, m := range n.replicaTargets(key) {
		begin := time.Now()
		ok := n.putRemoteEntry(m, key, body, traceID)
		var spanErr error
		if ok {
			n.replPushed.Add(1)
		} else {
			n.replDropped.Add(1)
			spanErr = fmt.Errorf("push to %s failed", m.id)
		}
		n.observeSpan(n.replicateHist, traceID, serve.StageReplicate, m.id, begin, time.Now(), spanErr)
	}
}

// putRemoteEntry PUTs one encoded record to a peer. The receiver
// checks that the bytes decode as the record the key names before it
// stores them (Manager.PutWire), so a corrupt transfer cannot poison a
// remote cache.
func (n *Node) putRemoteEntry(m *member, hash string, body []byte, traceID string) bool {
	ctx, cancel := context.WithTimeout(context.Background(), replTimeout)
	defer cancel()
	_, err := n.call(ctx, peerCall{method: http.MethodPut, url: m.url + "/v1/cluster/entries/" + hash,
		body: body, ctype: "application/octet-stream", traceID: traceID,
		limit: 1 << 16, ok: []int{http.StatusOK, http.StatusNoContent}})
	return err == nil
}

// fetchEntry is the manager's replica tier (ClusterHooks.Fetch): on a
// local miss it walks the entry's replica chain and returns the first
// copy that decodes (CRC + hash verified by store.DecodeEntry plus an
// explicit key check), with the bytes the replica sent, which the
// manager stores as they are. Returns nil when no replica has it — the
// manager then computes, which is the correct fallback, so errors here
// are silent.
func (n *Node) fetchEntry(hash, traceID string) (*store.Entry, []byte) {
	for _, m := range n.replicaTargets(hash) {
		if m.state.Load() == stateDead {
			continue
		}
		begin := time.Now()
		e, wire := n.getRemoteEntry(m, hash, traceID)
		var spanErr error
		if e == nil {
			spanErr = fmt.Errorf("no entry on %s", m.id)
		} else if e.Hash != hash {
			spanErr = fmt.Errorf("entry from %s does not match key", m.id)
			e = nil // content does not match the key it was fetched by
		}
		// Per-peer attempt spans (no histogram: serve times the whole
		// entry-source call as replica_fetch) name which replica answered
		// — the failover chain is visible in the trace.
		n.observeSpan(nil, traceID, serve.StageReplicaFetch, m.id, begin, time.Now(), spanErr)
		if e != nil {
			n.replFetched.Add(1)
			return e, wire
		}
	}
	return nil, nil
}

// getRemoteEntry reads hash's entry from peer m: the decoded entry and
// the bytes it decoded from, or nil.
func (n *Node) getRemoteEntry(m *member, hash, traceID string) (*store.Entry, []byte) {
	ctx, cancel := context.WithTimeout(context.Background(), replTimeout)
	defer cancel()
	wire, err := n.call(ctx, peerCall{method: http.MethodGet, url: m.url + "/v1/cluster/entries/" + hash,
		traceID: traceID, limit: 1 << 30})
	if err != nil {
		return nil, nil
	}
	e, err := store.DecodeEntry(bytes.NewReader(wire))
	if err != nil {
		return nil, nil
	}
	return e, wire
}

// remoteHashes lists a peer's entry set (GET /v1/cluster/entries).
func (n *Node) remoteHashes(m *member) (map[string]bool, error) {
	ctx, cancel := context.WithTimeout(context.Background(), replTimeout)
	defer cancel()
	data, err := n.call(ctx, peerCall{method: http.MethodGet, url: m.url + "/v1/cluster/entries", limit: 1 << 24})
	if err != nil {
		return nil, err
	}
	var body EntryList
	if err := json.Unmarshal(data, &body); err != nil {
		return nil, err
	}
	set := make(map[string]bool, len(body.Hashes))
	for _, h := range body.Hashes {
		set[h] = true
	}
	return set, nil
}

// EntryList is the GET /v1/cluster/entries body.
type EntryList struct {
	Node   string   `json:"node"`
	Hashes []string `json:"hashes"`
}

// --- rebalancer -------------------------------------------------------

// rebalanceLoop waits for ring changes (rebuildRingLocked kicks it),
// debounces briefly so a burst of membership churn triggers one pass,
// then re-replicates the local entry set against the new ring.
func (n *Node) rebalanceLoop() {
	defer n.wg.Done()
	debounce := 4 * n.opts.ProbeInterval
	if debounce > 2*time.Second {
		debounce = 2 * time.Second
	}
	for {
		select {
		case <-n.stop:
			return
		case <-n.rebalanceKick:
		}
		// Let the membership settle: a node death usually also reorders
		// suspicion on others, and two kicks in one debounce window
		// should cost one pass, not two.
		timer := time.NewTimer(debounce)
	settle:
		for {
			select {
			case <-n.stop:
				timer.Stop()
				return
			case <-n.rebalanceKick:
				// fresh churn: restart the settle window
				if !timer.Stop() {
					<-timer.C
				}
				timer.Reset(debounce)
			case <-timer.C:
				break settle
			}
		}
		n.rebalance()
	}
}

// rebalance pushes every local entry to the replicas the current ring
// says should hold it and do not yet. Transfers are throttled to
// RebalanceBPS. The pass is cooperative — every node runs it over its
// own entries — and idempotent: pushing an entry a peer already has is
// avoided by consulting its hash list first, and harmless otherwise
// (content addressing makes duplicate PUTs a no-op overwrite of
// identical bytes).
func (n *Node) rebalance() {
	hashes := n.mgr.EntryHashes()
	if len(hashes) == 0 {
		return
	}
	// One hash-list fetch per distinct target for the whole pass.
	remote := make(map[string]map[string]bool)
	missing := func(m *member, hash string) bool {
		set, ok := remote[m.id]
		if !ok {
			var err error
			set, err = n.remoteHashes(m)
			if err != nil {
				set = nil // unknown: push anyway, receiver dedups by overwrite
			}
			remote[m.id] = set
		}
		return set == nil || !set[hash]
	}
	start := time.Now()
	var moved int64
	for _, hash := range hashes {
		select {
		case <-n.stop:
			return
		default:
		}
		// The wire getter is kind-agnostic: entry and snapshot keys both
		// come out as self-describing CRC'd records, so checkpoints heal
		// to their new replicas exactly like results.
		body, ok := n.mgr.GetEntryWire(hash)
		if !ok {
			continue // evicted since listing
		}
		for _, m := range n.replicaTargets(hash) {
			if m.state.Load() == stateDead || !missing(m, hash) {
				continue
			}
			if n.putRemoteEntry(m, hash, body, "") {
				n.rebalanced.Add(1)
				n.rebalBytes.Add(int64(len(body)))
				moved += int64(len(body))
				if set := remote[m.id]; set != nil {
					set[hash] = true
				}
				// Bandwidth budget: sleep long enough that cumulative
				// bytes/elapsed stays under RebalanceBPS.
				if n.opts.RebalanceBPS > 0 {
					ahead := time.Duration(moved)*time.Second/time.Duration(n.opts.RebalanceBPS) - time.Since(start)
					if ahead > 0 {
						select {
						case <-n.stop:
							return
						case <-time.After(ahead):
						}
					}
				}
			}
		}
	}
}
