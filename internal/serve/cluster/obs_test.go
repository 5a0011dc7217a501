package cluster_test

// Cluster-tier observability acceptance: the merged distributed trace
// behind GET /v1/trace/{job} across proxy hops and replica failover,
// the /metrics exposition on every node, and the JSON-stats contract
// for the cluster counters.

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"easypap/internal/serve"
	"easypap/internal/serve/client"
	"easypap/internal/serve/cluster"
	"easypap/internal/trace"
)

// flatSpans walks a TraceDoc's nested spans into a flat list.
func flatSpans(nodes []*trace.SpanNode) []trace.Span {
	var out []trace.Span
	var walk func(n *trace.SpanNode)
	walk = func(n *trace.SpanNode) {
		out = append(out, n.Span)
		for _, c := range n.Children {
			walk(c)
		}
	}
	for _, n := range nodes {
		walk(n)
	}
	return out
}

// assertConnectedTrace checks the span tree is one connected component:
// starting from the node of the earliest span (the entry node), every
// node in doc.Nodes is reachable over peer edges (span.Node — span.Peer).
func assertConnectedTrace(t *testing.T, doc *serve.TraceDoc) {
	t.Helper()
	spans := flatSpans(doc.Spans)
	if len(spans) == 0 {
		t.Fatalf("trace %s for %s has no spans", doc.TraceID, doc.Job)
	}
	adj := make(map[string]map[string]bool)
	link := func(a, b string) {
		if adj[a] == nil {
			adj[a] = make(map[string]bool)
		}
		adj[a][b] = true
	}
	entry := spans[0].Node
	for _, s := range spans {
		if s.Start < spans[0].Start {
			entry = s.Node
		}
		if s.Peer != "" && s.Peer != s.Node {
			link(s.Node, s.Peer)
			link(s.Peer, s.Node)
		}
	}
	reach := map[string]bool{entry: true}
	frontier := []string{entry}
	for len(frontier) > 0 {
		n := frontier[0]
		frontier = frontier[1:]
		for p := range adj[n] {
			if !reach[p] {
				reach[p] = true
				frontier = append(frontier, p)
			}
		}
	}
	for _, n := range doc.Nodes {
		if !reach[n] {
			t.Errorf("trace %s: node %s is disconnected from entry %s (nodes %v)",
				doc.TraceID, n, entry, doc.Nodes)
		}
	}
}

func stageCount(spans []trace.Span) map[string]int {
	m := make(map[string]int)
	for _, s := range spans {
		m[s.Stage]++
	}
	return m
}

// TestClusterTraceProxyAndReplicaFailover is the observability
// acceptance scenario: a submission entering at a non-owner proxies to
// the remote owner (pass 1), and — once the owner is unreachable from
// the entry node — fails over to the replica (pass 2). Both passes must
// yield ONE connected span tree from GET /v1/trace/{job} naming every
// node the request touched.
func TestClusterTraceProxyAndReplicaFailover(t *testing.T) {
	const R = 2
	cc := startChaosCluster(t, 3, R)
	ctx := context.Background()

	cfg := mandelCfg(2, 16)
	_, _, key, err := cluster.RouteKey(cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]string, len(cc.urls))
	byID := make(map[string]int)
	for i, u := range cc.urls {
		ids[i] = cluster.NodeID(u)
		byID[ids[i]] = i
	}
	chain := cluster.NewRing(ids, 0).Replicas(key, R) // [owner, replica]
	owner, replica := byID[chain[0]], byID[chain[1]]
	entry := 3 - owner - replica // the node on neither role: forced proxy

	// --- pass 1: proxied submission, merged trace ---------------------
	cl := client.New(cc.urls[entry])
	st, err := cl.Submit(ctx, cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	if st, err = cl.Wait(ctx, st.ID); err != nil || st.State != serve.JobDone {
		t.Fatalf("pass 1 ended state=%v err=%v", st.State, err)
	}
	if !strings.HasPrefix(st.ID, ids[owner]+".") {
		t.Fatalf("job %s not owned by %s — ring routing broke", st.ID, ids[owner])
	}

	doc, err := cl.Trace(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	nodes := strings.Join(doc.Nodes, ",")
	for _, want := range []string{ids[entry], ids[owner]} {
		if !strings.Contains(nodes, want) {
			t.Fatalf("pass 1 trace nodes %v missing %s", doc.Nodes, want)
		}
	}
	spans := flatSpans(doc.Spans)
	stages := stageCount(spans)
	for _, want := range []string{serve.StageProxy, serve.StageAdmit, serve.StageQueue, serve.StageCompute} {
		if stages[want] == 0 {
			t.Errorf("pass 1 trace missing a %s span: %v", want, stages)
		}
	}
	assertConnectedTrace(t, doc)

	// Replication settles before the failover pass: the replica holds a
	// durable copy the failover can answer from.
	waitFor(t, "replication to settle", func() bool {
		return cc.replicaCount(hashOf(t, cfg)) >= R
	})

	// --- pass 2: owner unreachable from entry, replica failover -------
	// Only the submission route is cut. A whole-host kill would also
	// fail the entry's gossip probes, and a probe that saw it before the
	// resubmission routed would send it straight to the replica, leaving
	// no failed proxy span to assert on.
	cc.chaos[entry].KillPath(cc.hosts[owner], "/v1/jobs")
	st2, err := cl.Submit(ctx, cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	if st2, err = cl.Wait(ctx, st2.ID); err != nil || st2.State != serve.JobDone {
		t.Fatalf("pass 2 ended state=%v err=%v", st2.State, err)
	}
	if !strings.HasPrefix(st2.ID, ids[replica]+".") {
		t.Fatalf("failover job %s not on replica %s", st2.ID, ids[replica])
	}

	doc2, err := cl.Trace(ctx, st2.ID)
	if err != nil {
		t.Fatal(err)
	}
	spans2 := flatSpans(doc2.Spans)
	var failedProxy, okProxy bool
	for _, s := range spans2 {
		if s.Stage == serve.StageProxy && s.Node == ids[entry] {
			if s.Err != "" && s.Peer == ids[owner] {
				failedProxy = true
			}
			if s.Err == "" && s.Peer == ids[replica] {
				okProxy = true
			}
		}
	}
	if !failedProxy || !okProxy {
		t.Errorf("failover trace should show a failed proxy to the owner and a successful one to the replica:\n%+v", spans2)
	}
	if stageCount(spans2)[serve.StageCacheDisk] == 0 {
		t.Errorf("failover answer should come from the replica's disk tier: %v", stageCount(spans2))
	}
	assertConnectedTrace(t, doc2)
}

// metricValue extracts the value of the first sample line starting with
// prefix, or -1 when absent.
func metricValue(text, prefix string) float64 {
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, prefix) {
			if i := strings.LastIndexByte(line, ' '); i >= 0 {
				if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
					return v
				}
			}
		}
	}
	return -1
}

func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// TestClusterMetricsEveryNode: each member serves /metrics with the
// cluster series present, gossip histogram counts monotone between
// scrapes, and the member gauge agreeing with the ring.
func TestClusterMetricsEveryNode(t *testing.T) {
	tc := startCluster(t, 3, serve.Options{Workers: 1, QueueDepth: 16})
	for i, url := range tc.urls {
		text := scrape(t, url)
		for _, series := range []string{
			"easypapd_ring_version ",
			"easypapd_ring_nodes 3",
			`easypapd_cluster_members{state="alive"} 3`,
			"easypapd_replication_lag ",
			`easypapd_stage_ns_count{stage="gossip"}`,
			"easypapd_jobs_submitted_total ",
		} {
			if !strings.Contains(text, series) {
				t.Errorf("node %d metrics missing %q; views:%s", i, series, tc.views())
			}
		}
		first := metricValue(text, `easypapd_stage_ns_count{stage="gossip"}`)
		if first < 0 {
			t.Fatalf("node %d: no gossip histogram count", i)
		}
		waitFor(t, "gossip histogram to advance", func() bool {
			return metricValue(scrape(t, url), `easypapd_stage_ns_count{stage="gossip"}`) > first
		})
	}
}

// TestClusterStatsCountersAlwaysPresent pins the cluster half of the
// stats JSON contract: replication counters serialize even at zero.
func TestClusterStatsCountersAlwaysPresent(t *testing.T) {
	raw, err := json.Marshal(cluster.ClusterStats{})
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		`"replica_pushed":0`, `"replica_dropped":0`, `"replica_fetched":0`,
		`"rebalanced":0`, `"rebalance_bytes":0`,
		`"jobs_owned":0`, `"jobs_proxied":0`, `"status_proxied":0`, `"failovers":0`,
	} {
		if !strings.Contains(string(raw), key) {
			t.Errorf("zero-valued ClusterStats is missing %s: %s", key, raw)
		}
	}
}
