package cluster_test

// Gossip membership edge cases: join propagation without a fleet
// restart, suspect-then-recover without a ring swap (the anti-flap
// property), dead-then-rejoin through incarnation refutation, and
// replication/rebalance plumbing over the entries endpoints.

import (
	"bytes"
	"context"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"easypap/internal/core"
	"easypap/internal/serve"
	"easypap/internal/serve/chaosnet"
	"easypap/internal/serve/client"
	"easypap/internal/serve/cluster"
	"easypap/internal/serve/store"
)

// TestGossipJoinReachesEveryMember pins the elasticity acceptance
// criterion: a node started with a single --join seed appears in EVERY
// member's view — including members the joiner never contacted — and
// every ring reaches the same size, without restarting anything.
func TestGossipJoinReachesEveryMember(t *testing.T) {
	tc := startCluster(t, 3, serve.Options{Workers: 1, QueueDepth: 8})

	swap := &swapHandler{}
	srv := httptest.NewServer(swap)
	defer srv.Close()
	mgr := serve.NewManager(serve.Options{Workers: 1, QueueDepth: 8})
	defer mgr.Close()
	joiner, err := cluster.NewNode(mgr, cluster.Options{
		Self:          srv.URL,
		Peers:         tc.urls[:1], // --join=<any live peer>
		ProbeInterval: 25 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer joiner.Close()
	swap.set(joiner.Handler())

	all := append([]*cluster.Node{joiner}, tc.nodes...)
	waitFor(t, "join to reach every member", func() bool {
		for _, n := range all {
			mem := n.Membership()
			if len(mem.Members) != 4 {
				return false
			}
			for _, m := range mem.Members {
				if !m.Healthy {
					return false
				}
			}
			if n.Stats().Cluster.RingNodes != 4 {
				return false
			}
		}
		return true
	})
}

// gossipPair is a 2-node cluster with one chaosnet transport per node,
// so the pair can be symmetrically partitioned: neither side can reach
// the other, which is what makes suspicion mature — a node whose
// inbound alone is broken keeps refuting rumors through its outbound
// path (that is SWIM working as designed, not a dead peer).
type gossipPair struct {
	urls  [2]string
	hosts [2]string
	swaps [2]*swapHandler
	mgrs  [2]*serve.Manager
	nodes [2]*cluster.Node
	chaos [2]*chaosnet.Transport
}

func startGossipPair(t *testing.T, suspectTimeout time.Duration) *gossipPair {
	t.Helper()
	p := &gossipPair{}
	srvs := [2]*httptest.Server{}
	for i := 0; i < 2; i++ {
		p.swaps[i] = &swapHandler{}
		srvs[i] = httptest.NewServer(p.swaps[i])
		p.urls[i] = srvs[i].URL
		p.hosts[i] = hostOf(p.urls[i])
		p.chaos[i] = chaosnet.New(uint64(i)+11, nil)
	}
	for i := 0; i < 2; i++ {
		p.mgrs[i] = serve.NewManager(serve.Options{Workers: 1, QueueDepth: 8})
		node, err := cluster.NewNode(p.mgrs[i], cluster.Options{
			Self:           p.urls[i],
			Peers:          p.urls[:],
			ProbeInterval:  20 * time.Millisecond,
			ProbeTimeout:   300 * time.Millisecond,
			SuspectTimeout: suspectTimeout,
			HTTP:           &http.Client{Transport: p.chaos[i]},
		})
		if err != nil {
			t.Fatal(err)
		}
		p.nodes[i] = node
		p.swaps[i].set(node.Handler())
	}
	t.Cleanup(func() {
		for i := 1; i >= 0; i-- {
			srvs[i].Close()
			p.nodes[i].Close()
			p.mgrs[i].Close()
		}
	})
	// Every member must have answered: a member that never has is not
	// suspected on a failed contact (it is dropped after SuspectTimeout).
	waitFor(t, "2-node cluster alive", func() bool {
		for _, n := range p.nodes {
			mem := n.Membership()
			if len(mem.Members) != 2 {
				return false
			}
			for _, m := range mem.Members {
				if !m.Healthy || m.LastSeen.IsZero() {
					return false
				}
			}
		}
		return true
	})
	return p
}

// partition cuts both directions between the pair; heal restores them.
func (p *gossipPair) partition() {
	p.chaos[0].Kill(p.hosts[1])
	p.chaos[1].Kill(p.hosts[0])
}

func (p *gossipPair) heal() {
	p.chaos[0].Revive(p.hosts[1])
	p.chaos[1].Revive(p.hosts[0])
}

// stateOf returns node's view of peer id.
func stateOf(n *cluster.Node, id string) (state string, incarnation uint64) {
	for _, m := range n.Membership().Members {
		if m.ID == id {
			return m.State, m.Incarnation
		}
	}
	return "", 0
}

// TestSuspectRecoverNoRingSwap is the prober edge case the satellite
// demands: a peer that misses probes long enough to go suspect but
// recovers before SuspectTimeout must come back alive WITHOUT the ring
// ever swapping — one flap, zero key movement.
func TestSuspectRecoverNoRingSwap(t *testing.T) {
	p := startGossipPair(t, 5*time.Second) // generous: suspicion never matures
	n0, n1 := p.nodes[0], p.nodes[1]
	v0 := n0.RingVersion()

	p.partition()
	waitFor(t, "node 1 suspect on node 0", func() bool {
		st, _ := stateOf(n0, n1.ID())
		return st == "suspect"
	})

	p.heal() // back before the suspicion matures
	waitFor(t, "node 1 alive again on node 0", func() bool {
		st, _ := stateOf(n0, n1.ID())
		return st == "alive"
	})

	if got := n0.RingVersion(); got != v0 {
		t.Fatalf("ring version moved %d -> %d across an up->suspect->alive flap, want unchanged", v0, got)
	}
	if n0.Stats().Cluster.RingNodes != 2 {
		t.Fatalf("ring lost a member across a flap")
	}
}

// TestDeadRejoinViaIncarnationRefutation: a peer unreachable past
// SuspectTimeout is declared dead and drops off the ring (one swap); on
// recovery it learns the dead{k} rumor about itself, refutes with
// alive{k+1}, and rejoins (second swap) with a higher incarnation —
// no restart of anything, just gossip.
func TestDeadRejoinViaIncarnationRefutation(t *testing.T) {
	p := startGossipPair(t, 150*time.Millisecond)
	n0, n1 := p.nodes[0], p.nodes[1]
	v0 := n0.RingVersion()
	_, incBefore := stateOf(n0, n1.ID())

	p.partition()
	waitFor(t, "node 1 declared dead", func() bool {
		st, _ := stateOf(n0, n1.ID())
		return st == "dead"
	})
	if n0.Stats().Cluster.RingNodes != 1 {
		t.Fatalf("dead member still on the ring")
	}
	if n0.RingVersion() != v0+1 {
		t.Fatalf("death swapped ring %d times, want exactly 1", n0.RingVersion()-v0)
	}

	p.heal()
	waitFor(t, "node 1 rejoined alive", func() bool {
		st, _ := stateOf(n0, n1.ID())
		return st == "alive" && n0.Stats().Cluster.RingNodes == 2
	})
	_, incAfter := stateOf(n0, n1.ID())
	if incAfter <= incBefore {
		t.Fatalf("rejoin did not bump incarnation (%d -> %d): the dead rumor was never refuted",
			incBefore, incAfter)
	}
	if n0.RingVersion() != v0+2 {
		t.Fatalf("death+rejoin swapped ring %d times, want exactly 2", n0.RingVersion()-v0)
	}
}

// TestStartupContactKeepsSeedRoute: a node whose first probe reaches a
// seed that is not listening yet must not route the seed's keys
// elsewhere. The seed stays unreachable through the first node's first
// probe; once the seed answers, a config it owns, submitted at the first
// node, must be computed on the seed. Held as a suspicion until the next
// probe (two intervals later), that failure would make the first node
// compute the config itself, and the seed compute it again when it is
// submitted there — the cache hit CI's cluster sweep then misses.
func TestStartupContactKeepsSeedRoute(t *testing.T) {
	var urls [2]string
	var swaps [2]*swapHandler
	for i := range urls {
		swaps[i] = &swapHandler{}
		srv := httptest.NewServer(swaps[i])
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	chaos := chaosnet.New(29, nil)
	chaos.Kill(hostOf(urls[1])) // the seed is not listening yet
	var mgrs [2]*serve.Manager
	for i := range mgrs {
		mgrs[i] = serve.NewManager(serve.Options{Workers: 1, QueueDepth: 8})
		t.Cleanup(mgrs[i].Close)
	}
	first, err := cluster.NewNode(mgrs[0], cluster.Options{
		Self: urls[0], Peers: urls[:],
		ProbeInterval: time.Second, ProbeTimeout: 300 * time.Millisecond,
		HTTP: &http.Client{Transport: chaos},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(first.Close)
	swaps[0].set(first.Handler())
	seedID := cluster.NodeID(urls[1])
	waitFor(t, "the first probe of the seed to fail", func() bool {
		for _, m := range first.Membership().Members {
			if m.ID == seedID {
				return m.Failures > 0
			}
		}
		return false
	})

	// The seed comes up. It does not probe, so only the first node's
	// own view of it decides where the config goes.
	seed, err := cluster.NewNode(mgrs[1], cluster.Options{Self: urls[1], Peers: urls[:], ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(seed.Close)
	swaps[1].set(seed.Handler())
	chaos.Revive(hostOf(urls[1]))
	waitFor(t, "the seed to answer", func() bool {
		resp, err := http.Get(urls[1] + "/v1/cluster/health")
		if err != nil {
			return false
		}
		resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	})

	ring := cluster.NewRing([]string{first.ID(), seedID}, 0)
	var cfg core.Config
	for grain := 4; ; grain *= 2 {
		cfg = mandelCfg(2, grain)
		_, _, key, err := cluster.RouteKey(cfg, false)
		if err != nil {
			t.Fatal(err)
		}
		if ring.Owner(key) == seedID {
			break
		}
		if grain > 64 {
			t.Fatal("no seed-owned config among the grains tried")
		}
	}
	ctx := context.Background()
	cl := client.New(urls[0])
	st, err := cl.Submit(ctx, cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	if st, err = cl.Wait(ctx, st.ID); err != nil || st.State != serve.JobDone {
		t.Fatalf("job %s ended %v (%v)", st.ID, st.State, err)
	}
	if node, _, _ := cluster.SplitJobID(st.ID); node != seedID {
		t.Errorf("seed-owned job %s ran on %s, want the seed %s", st.ID, node, seedID)
	}
	if a, b := mgrs[0].Stats().Computed, mgrs[1].Stats().Computed; a != 0 || b != 1 {
		t.Errorf("computed: first node %d, seed %d; want 0 and 1", a, b)
	}
}

// TestEntryEndpointsVerifyContent: the replication receiving path must
// re-derive CRC and content hash — corrupt or mislabeled transfers are
// refused, valid ones are admitted and durably stored.
func TestEntryEndpointsVerifyContent(t *testing.T) {
	cc := startChaosCluster(t, 2, 2)
	ctx := context.Background()

	// Compute one entry on its owner.
	cfg := mandelCfg(3, 16)
	cl := client.New(cc.urls[0])
	if _, err := cl.Submit(ctx, cfg, false); err != nil {
		t.Fatal(err)
	}
	hash := hashOf(t, cfg)
	waitFor(t, "entry spilled somewhere", func() bool {
		return cc.replicaCount(hash) >= 1
	})

	// Fetch its wire form from whichever node has it.
	var wire []byte
	for i := range cc.urls {
		resp, err := http.Get(cc.urls[i] + "/v1/cluster/entries/" + hash)
		if err != nil {
			continue
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			wire = body
			break
		}
	}
	if wire == nil {
		t.Fatal("no node served the entry")
	}
	if e, err := store.DecodeEntry(bytes.NewReader(wire)); err != nil || e.Hash != hash {
		t.Fatalf("served entry does not verify: %v", err)
	}

	put := func(url, hash string, body []byte) int {
		req, err := http.NewRequest(http.MethodPut, url+"/v1/cluster/entries/"+hash, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	// A flipped payload byte must be refused (CRC), and a valid body
	// under the wrong key must be refused (hash pinning).
	corrupt := bytes.Clone(wire)
	corrupt[len(corrupt)-1] ^= 0xFF
	if code := put(cc.urls[1], hash, corrupt); code != http.StatusBadRequest {
		t.Fatalf("corrupt entry accepted with status %d", code)
	}
	wrongKey := hashOf(t, mandelCfg(2, 8))
	if code := put(cc.urls[1], wrongKey, wire); code != http.StatusBadRequest {
		t.Fatalf("mislabeled entry accepted with status %d", code)
	}
	// The genuine transfer is accepted and lands durably.
	if code := put(cc.urls[1], hash, wire); code != http.StatusNoContent {
		t.Fatalf("valid entry refused with status %d", code)
	}
	if _, ok := cc.mgrs[1].GetEntry(hash); !ok {
		t.Fatal("accepted entry not in the receiver's store")
	}

	// A record lands as the bytes sent: an entry whose result carries a
	// field this build does not know (as a newer peer would write it),
	// and a checkpoint, come back from the receiver byte for byte.
	crc := func(b []byte) uint32 { return crc32.Checksum(b, crc32.MakeTable(crc32.Castagnoli)) }
	futureHash := hashOf(t, mandelCfg(5, 16))
	res := []byte(`{"config":{"kernel":"mandel","variant":"seq","dim":64,"iterations":5},"iterations":5,"checksum":"c5","added_later":{"note":"kept"}}`)
	future := fmt.Appendf(nil, "EZSTORE1 %s %d 0 %08x\n%s", futureHash, len(res), crc(res), res)
	state := []byte("EZK1 checkpoint state")
	snapKey := store.SnapshotKey(futureHash, 32)
	snap := fmt.Appendf(nil, "EZSNAP1 %s 32 %d %08x\n%s", futureHash, len(state), crc(state), state)
	for key, body := range map[string][]byte{futureHash: future, snapKey: snap} {
		if code := put(cc.urls[1], key, body); code != http.StatusNoContent {
			t.Fatalf("valid record %s refused with status %d", key, code)
		}
		resp, err := http.Get(cc.urls[1] + "/v1/cluster/entries/" + key)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || !bytes.Equal(got, body) {
			t.Fatalf("receiver serves %s as %d %q, want the bytes sent %q", key, resp.StatusCode, got, body)
		}
	}
	// Entry bytes under a snapshot key, and snapshot bytes under an
	// entry key, are refused.
	if code := put(cc.urls[1], store.SnapshotKey(hash, 32), wire); code != http.StatusBadRequest {
		t.Fatalf("entry under a snapshot key accepted with status %d", code)
	}
	if code := put(cc.urls[1], futureHash, snap); code != http.StatusBadRequest {
		t.Fatalf("snapshot under an entry key accepted with status %d", code)
	}
}

// TestRemoteHitKeepsReplicaBytes: an entry the owner fetches from a
// replica on a local miss lands in the owner's disk tier as the bytes
// the replica sent. The replica holds an entry whose result carries a
// field this build does not know (as a newer peer would write it); after
// the owner's remote hit, both nodes serve it byte for byte, the field
// included, where a re-encoding would have dropped it.
func TestRemoteHitKeepsReplicaBytes(t *testing.T) {
	cc := startChaosCluster(t, 2, 2)
	cfg := mandelCfg(7, 16)
	owner := cc.ownerOf(cfg)
	replica := 1 - owner
	hash := hashOf(t, cfg)
	res := []byte(`{"config":{"kernel":"mandel","variant":"seq","dim":64,"iterations":7},"iterations":7,"checksum":"c7","added_later":{"note":"kept"}}`)
	crc := crc32.Checksum(res, crc32.MakeTable(crc32.Castagnoli))
	sent := fmt.Appendf(nil, "EZSTORE1 %s %d 0 %08x\n%s", hash, len(res), crc, res)
	req, err := http.NewRequest(http.MethodPut, cc.urls[replica]+"/v1/cluster/entries/"+hash, bytes.NewReader(sent))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("replica refused the entry with status %d", resp.StatusCode)
	}

	st, err := client.New(cc.urls[owner]).Submit(context.Background(), cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	if !st.RemoteHit || st.Result == nil || st.Result.Checksum != "c7" {
		t.Fatalf("owner's submission should be a remote hit with the replica's result: %+v", st)
	}
	for i, url := range cc.urls {
		resp, err := http.Get(url + "/v1/cluster/entries/" + hash)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || !bytes.Equal(got, sent) {
			t.Errorf("node %d serves the entry as %d %q, want the bytes the replica was sent %q", i, resp.StatusCode, got, sent)
		}
	}
}

// TestRebalancerMigratesToJoiner: entries computed on a 2-node cluster
// flow to a third node after it joins, without any submission traffic —
// the rebalancer notices the ring change and pushes the entries whose
// new replica set includes the joiner.
func TestRebalancerMigratesToJoiner(t *testing.T) {
	cc := startChaosCluster(t, 2, 2)
	cfgs := sweepConfigs()
	multi := client.NewMulti(cc.urls...)
	for _, cfg := range cfgs {
		if _, err := multi.RunConfig(cfg); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "initial replication", func() bool {
		for _, cfg := range cfgs {
			if cc.replicaCount(hashOf(t, cfg)) < 2 {
				return false
			}
		}
		return true
	})

	// A third daemon joins via one seed.
	swap := &swapHandler{}
	srv := httptest.NewServer(swap)
	defer srv.Close()
	s, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mgr := serve.NewManager(serve.Options{Workers: 1, QueueDepth: 16, Store: s})
	defer func() { mgr.Close(); s.Close() }()
	joiner, err := cluster.NewNode(mgr, cluster.Options{
		Self:           srv.URL,
		Peers:          cc.urls[:1],
		ProbeInterval:  25 * time.Millisecond,
		SuspectTimeout: 250 * time.Millisecond,
		Replicate:      2,
		RebalanceBPS:   64 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer joiner.Close()
	swap.set(joiner.Handler())

	// The joiner becomes a first-choice replica for some arc of the key
	// space; the rebalancer must hand it those entries.
	ids := []string{cluster.NodeID(cc.urls[0]), cluster.NodeID(cc.urls[1]), joiner.ID()}
	ring := cluster.NewRing(ids, 0)
	wantOnJoiner := 0
	for _, cfg := range cfgs {
		for _, id := range ring.Replicas(core.HashPoint(hashOf(t, cfg)), 2) {
			if id == joiner.ID() {
				wantOnJoiner++
			}
		}
	}
	if wantOnJoiner == 0 {
		t.Skip("ring assigned the joiner no replicas of this sweep (hash layout)")
	}
	waitFor(t, "rebalancer to migrate entries to the joiner", func() bool {
		have := 0
		for _, cfg := range cfgs {
			if _, ok := mgr.GetEntry(hashOf(t, cfg)); ok {
				have++
			}
		}
		return have >= wantOnJoiner
	})
	// Everything the joiner received decodes and hash-verifies.
	for _, h := range mgr.EntryHashes() {
		e, ok := mgr.GetEntry(h)
		if !ok || e.Hash != h {
			t.Fatalf("migrated entry %s fails verification", h)
		}
	}
}
