package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// SWIM-style gossip membership. Every member is in one of three states
// with an incarnation number attached:
//
//	alive   — reachable, on the ring
//	suspect — missed probes, still on the ring (anti-flap: suspicion
//	          must not move keys), declared dead after SuspectTimeout
//	dead    — off the ring; probed on an exponential backoff so a
//	          recovered node is noticed without hammering a corpse
//
// Views travel piggybacked on the health probe: each probe is a POST
// /v1/cluster/gossip carrying the sender's full view, answered with the
// receiver's view, and both sides merge. Merging follows the SWIM
// precedence rules, with the incarnation number — owned exclusively by
// the member it describes — as the tie-breaker:
//
//	alive{i}   overrides alive{j}/suspect{j}  iff i > j
//	suspect{i} overrides alive{j}             iff i >= j
//	suspect{i} overrides suspect{j}           iff i > j
//	dead{i}    overrides alive{j}/suspect{j}  iff i >= j
//	alive{i}   overrides dead{j}              iff i > j   (rejoin)
//
// Refutation closes the loop: a member that sees itself reported
// suspect or dead at incarnation >= its own bumps its incarnation past
// the claim, and its next gossip round overrides the rumor. A restarted
// node (incarnation reset to 0) therefore rejoins in two rounds: round
// one teaches it the dead{k} rumor about itself, round two spreads
// alive{k+1}. With every member probing every peer each interval, a
// state change reaches the whole fleet in O(log N) rounds.

// Member states. The zero value is alive so a freshly constructed
// member needs no initialization to be routable (optimistic start).
const (
	stateAlive int32 = iota
	stateSuspect
	stateDead
)

func stateName(s int32) string {
	switch s {
	case stateAlive:
		return "alive"
	case stateSuspect:
		return "suspect"
	default:
		return "dead"
	}
}

func stateFromName(s string) (int32, bool) {
	switch s {
	case "alive":
		return stateAlive, true
	case "suspect":
		return stateSuspect, true
	case "dead":
		return stateDead, true
	}
	return 0, false
}

// GossipMember is one member's row in a gossip view.
type GossipMember struct {
	ID          string `json:"id"`
	URL         string `json:"url"`
	State       string `json:"state"` // "alive" | "suspect" | "dead"
	Incarnation uint64 `json:"incarnation"`
	DiskEntries int64  `json:"disk_entries,omitempty"`
}

// GossipView is the POST /v1/cluster/gossip body and response: the
// sender's self-report plus its view of everyone else. From is
// authoritative for the sender (a member reporting on itself is always
// alive, at its current incarnation).
type GossipView struct {
	From        GossipMember   `json:"from"`
	RingVersion uint64         `json:"ring_version"`
	Members     []GossipMember `json:"members"`
}

// view renders this node's current membership view for gossip.
func (n *Node) view() GossipView {
	_, ms := n.snapshot()
	v := GossipView{RingVersion: n.ringVersion.Load()}
	for _, m := range ms {
		gm := GossipMember{
			ID:          m.id,
			URL:         m.url,
			State:       stateName(m.state.Load()),
			Incarnation: m.incarnation.Load(),
			DiskEntries: m.warmDisk.Load(),
		}
		if m.self {
			gm.State = stateName(stateAlive) // self-report is always alive
			_, disk, _ := n.mgr.CacheSizes()
			gm.DiskEntries = int64(disk)
			v.From = gm
		}
		v.Members = append(v.Members, gm)
	}
	return v
}

// mergeView folds a received view into the local membership, applying
// the SWIM precedence rules, and rebuilds the ring when the routable
// (non-dead) member set changed. It returns true when anything about
// the membership changed (used by tests; the ring swap is internal).
func (n *Node) mergeView(v GossipView) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	changed := false
	for _, gm := range v.Members {
		st, ok := stateFromName(gm.State)
		if !ok || gm.ID == "" || gm.URL == "" {
			continue
		}
		// The sender's self-report wins over its row in Members if both
		// appear (they should agree; From is just decoded like any row).
		if n.applyRemoteLocked(gm, st) {
			changed = true
		}
	}
	if changed {
		n.rebuildRingLocked()
	}
	return changed
}

// applyRemoteLocked applies one remote claim about a member. Caller
// holds n.mu. Returns true when local state changed.
func (n *Node) applyRemoteLocked(gm GossipMember, claimed int32) bool {
	m, ok := n.members[gm.ID]
	if !ok {
		// A member we have never heard of: adopt the claim as-is. This is
		// how --join propagates — a joiner's first exchange with its seed
		// carries its self-report, and every later exchange spreads it
		// further.
		url := strings.TrimRight(gm.URL, "/")
		if NodeID(url) != gm.ID {
			return false // id must be derivable from the URL; drop forgeries
		}
		m = &member{id: gm.ID, url: url}
		m.state.Store(claimed)
		m.incarnation.Store(gm.Incarnation)
		if claimed == stateSuspect {
			m.suspectAt.Store(time.Now().UnixNano())
		}
		m.warmDisk.Store(gm.DiskEntries)
		n.members[gm.ID] = m
		return true
	}
	if gm.DiskEntries > 0 {
		m.warmDisk.Store(gm.DiskEntries)
	}
	if m.self {
		// A rumor about us. Alive needs no action; suspect or dead at our
		// incarnation (or higher — a view from a future generation) is
		// refuted by bumping past the claim, so our next self-report
		// overrides it everywhere.
		if claimed != stateAlive && gm.Incarnation >= n.selfIncarnation() {
			n.setIncarnation(gm.Incarnation + 1)
			return true
		}
		return false
	}
	cur, inc := m.state.Load(), m.incarnation.Load()
	override := false
	switch claimed {
	case stateAlive:
		override = gm.Incarnation > inc
	case stateSuspect:
		override = gm.Incarnation > inc || (gm.Incarnation == inc && cur == stateAlive)
	case stateDead:
		override = gm.Incarnation >= inc && cur != stateDead
	}
	if !override {
		return false
	}
	n.transitionLocked(m, claimed, gm.Incarnation)
	return cur != claimed || inc != gm.Incarnation
}

// transitionLocked moves m to (state, incarnation), maintaining the
// suspect clock and probe backoff. Caller holds n.mu (or is inside
// NewNode). The ring is NOT rebuilt here — callers batch transitions
// and rebuild once.
func (n *Node) transitionLocked(m *member, st int32, inc uint64) {
	prev := m.state.Load()
	m.state.Store(st)
	m.incarnation.Store(inc)
	switch st {
	case stateAlive:
		m.suspectAt.Store(0)
		m.probeFails.Store(0)
		m.nextProbe.Store(0)
		m.lastSeen.Store(time.Now().UnixNano())
	case stateSuspect:
		if prev != stateSuspect {
			m.suspectAt.Store(time.Now().UnixNano())
		}
	case stateDead:
		m.suspectAt.Store(0)
	}
}

func (n *Node) selfIncarnation() uint64 {
	return n.members[n.id].incarnation.Load()
}

// setIncarnation bumps self past a refuted claim (monotonic).
func (n *Node) setIncarnation(inc uint64) {
	self := n.members[n.id]
	for {
		cur := self.incarnation.Load()
		if inc <= cur {
			return
		}
		if self.incarnation.CompareAndSwap(cur, inc) {
			return
		}
	}
}

// gossipWith performs one probe: POST our view to m, merge its reply.
// A successful exchange is direct first-hand evidence of liveness, but
// revival of a suspect/dead member still flows through the merge — the
// peer saw our suspicion in the request, refuted it, and its From row
// in the response carries the overriding incarnation.
func (n *Node) gossipWith(m *member) bool {
	begin := time.Now()
	defer func() {
		if n.gossipHist != nil {
			n.gossipHist.Observe(time.Since(begin).Nanoseconds())
		}
	}()
	body, err := json.Marshal(n.view())
	if err != nil {
		return false
	}
	ctx, cancel := context.WithTimeout(context.Background(), n.opts.ProbeTimeout)
	defer cancel()
	data, err := n.call(ctx, peerCall{method: http.MethodPost, url: m.url + "/v1/cluster/gossip",
		body: body, ctype: "application/json", limit: jsonLimit})
	var peer GossipView
	if err != nil || json.Unmarshal(data, &peer) != nil {
		return false
	}
	if peer.From.ID != "" && peer.From.ID != m.id {
		return false // someone else answering on that address is not m being alive
	}
	n.mergeView(peer)
	m.lastSeen.Store(time.Now().UnixNano())
	return true
}

// suspect marks a failed contact: alive members degrade to suspect
// (ring unchanged — flapping must not move keys), suspect members are
// left to the SuspectTimeout sweep, dead members just extend their
// probe backoff. The suspicion spreads on the next gossip rounds. Probe,
// proxy, edge and shard-start failures all land here, so a dead node is
// demoted on first contact rather than on the next probe tick.
func (n *Node) suspect(m *member) {
	if m.self {
		return
	}
	m.failures.Add(1)
	fails := m.probeFails.Add(1)
	// Exponential probe backoff, capped: after k consecutive failures the
	// next probe waits min(interval<<k, cap). A flapping peer therefore
	// costs geometrically less probing, and — because passive failure
	// only ever yields suspect, never dead — cannot oscillate the ring.
	backoff := n.opts.ProbeInterval << min(fails, 10)
	if backoff > n.opts.ProbeBackoffCap {
		backoff = n.opts.ProbeBackoffCap
	}
	m.nextProbe.Store(time.Now().Add(backoff).UnixNano())
	if m.state.Load() != stateAlive {
		return
	}
	n.mu.Lock()
	if m.state.Load() == stateAlive {
		n.transitionLocked(m, stateSuspect, m.incarnation.Load())
	}
	n.mu.Unlock()
}

// sweepSuspects declares dead every member that has been suspect longer
// than SuspectTimeout, rebuilding the ring once if any fell.
func (n *Node) sweepSuspects() {
	deadline := time.Now().Add(-n.opts.SuspectTimeout).UnixNano()
	_, ms := n.snapshot()
	var fallen []*member
	for _, m := range ms {
		if m.self || m.state.Load() != stateSuspect {
			continue
		}
		if at := m.suspectAt.Load(); at != 0 && at < deadline {
			fallen = append(fallen, m)
		}
	}
	if len(fallen) == 0 {
		return
	}
	n.mu.Lock()
	changed := false
	for _, m := range fallen {
		if m.state.Load() == stateSuspect {
			n.transitionLocked(m, stateDead, m.incarnation.Load())
			changed = true
		}
	}
	if changed {
		n.rebuildRingLocked()
	}
	n.mu.Unlock()
}

// HandleGossip is the POST /v1/cluster/gossip exchange: merge the
// sender's view, answer with ours (post-merge, so the response already
// reflects — and refutes, where needed — what the sender just told us).
func (n *Node) HandleGossip(w io.Writer, r io.Reader) error {
	var v GossipView
	if err := json.NewDecoder(io.LimitReader(r, 1<<22)).Decode(&v); err != nil {
		return fmt.Errorf("cluster: decoding gossip view: %w", err)
	}
	n.mergeView(v)
	return json.NewEncoder(w).Encode(n.view())
}
