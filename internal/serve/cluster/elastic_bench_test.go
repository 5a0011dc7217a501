package cluster_test

// The replicated-read ladder (EXPERIMENTS.md's elastic-replication
// row): what a result costs depending on where it survives — the local
// disk entry (owner or replica answering from its own store), a remote
// replica fetch over HTTP with full CRC+hash verification (the
// owner-miss failover path), and the wire encode/decode alone (what the
// rebalancer pays per migrated entry on top of bandwidth). Recompute,
// the ladder's top rung when no replica survives, is
// BenchmarkServeJobWarmPool in internal/serve (milliseconds for even
// the small reference job).

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"testing"

	"easypap/internal/serve/client"
	"easypap/internal/serve/store"
)

// benchEntry boots a replicated pair, computes one entry, and waits
// until both nodes hold it durably.
func benchEntry(b *testing.B) (cc *chaosCluster, hash string) {
	cc = startChaosCluster(b, 2, 2)
	cfg := mandelCfg(3, 16)
	if _, err := client.New(cc.urls[0]).Submit(context.Background(), cfg, false); err != nil {
		b.Fatal(err)
	}
	hash = hashOf(b, cfg)
	waitFor(b, "entry replicated to both nodes", func() bool {
		return cc.replicaCount(hash) == 2
	})
	return cc, hash
}

func BenchmarkElasticLocalEntry(b *testing.B) {
	cc, hash := benchEntry(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := cc.mgrs[0].GetEntry(hash); !ok {
			b.Fatal("entry vanished")
		}
	}
}

func BenchmarkElasticReplicaFetch(b *testing.B) {
	cc, hash := benchEntry(b)
	url := cc.urls[1] + "/v1/cluster/entries/" + hash
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Get(url)
		if err != nil {
			b.Fatal(err)
		}
		e, err := store.DecodeEntry(resp.Body)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil || e.Hash != hash {
			b.Fatalf("replica fetch failed: %v", err)
		}
	}
}

func BenchmarkElasticEntryWire(b *testing.B) {
	cc, hash := benchEntry(b)
	e, ok := cc.mgrs[0].GetEntry(hash)
	if !ok {
		b.Fatal("entry vanished")
	}
	var buf bytes.Buffer
	if err := store.EncodeEntry(&buf, e); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := store.EncodeEntry(&buf, e); err != nil {
			b.Fatal(err)
		}
		if _, err := store.DecodeEntry(bytes.NewReader(buf.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkElasticGossipExchange prices one probe round-trip — the
// membership protocol's steady-state cost per peer per ProbeInterval.
func BenchmarkElasticGossipExchange(b *testing.B) {
	cc := startChaosCluster(b, 2, 0)
	var view bytes.Buffer
	if err := cc.nodes[0].HandleGossip(&view, bytes.NewReader(nil)); err == nil {
		b.Fatal("empty gossip body unexpectedly accepted")
	}
	view.Reset()
	// A self-contained exchange: node 1's view posted to node 0 over HTTP.
	var peerView bytes.Buffer
	if err := cc.nodes[1].HandleGossip(&peerView, bytes.NewReader([]byte("{}"))); err != nil {
		b.Fatal(err)
	}
	body := peerView.Bytes()
	url := cc.urls[0] + "/v1/cluster/gossip"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatal(fmt.Errorf("gossip returned %d", resp.StatusCode))
		}
	}
}
