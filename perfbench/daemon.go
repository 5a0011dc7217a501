package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"easypap/internal/serve"
	"easypap/internal/serve/cluster"
	"easypap/internal/serve/store"
)

// snapshotEvery is the documented `-snapshot-every 64` deployment every
// workload runs with; cache sizes and worker counts keep their defaults.
const snapshotEvery = 64

// daemon is one in-process easypapd: a durable store in its own
// directory, a Manager, and the /v1 API on a loopback listener.
type daemon struct {
	st     *store.Store
	mgr    *serve.Manager
	node   *cluster.Node // cluster_hop only
	srv    *http.Server
	ln     net.Listener
	served chan struct{}
	// openDur is how long store.Open took.
	openDur time.Duration
}

// openDaemon opens the store and the manager and binds the listener.
// The handler is installed by serve, once the caller has built it.
func openDaemon(dir string) (*daemon, error) {
	d := &daemon{served: make(chan struct{})}
	t := time.Now()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return nil, fmt.Errorf("opening store: %w", err)
	}
	d.openDur = time.Since(t)
	d.st = st
	d.mgr = serve.NewManager(serve.Options{Store: st, SnapshotEvery: snapshotEvery})
	d.ln, err = net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.mgr.Close()
		st.Close()
		return nil, fmt.Errorf("listening: %w", err)
	}
	return d, nil
}

func (d *daemon) serve(h http.Handler) {
	d.srv = &http.Server{Handler: h}
	go func() {
		_ = d.srv.Serve(d.ln) // returns ErrServerClosed on close
		close(d.served)
	}()
}

func (d *daemon) addr() string { return d.ln.Addr().String() }

// close stops the server, then the manager (which drains the spills to
// disk), then the store.
func (d *daemon) close() {
	if d.srv != nil {
		d.srv.Close()
		<-d.served
	} else {
		d.ln.Close()
	}
	if d.node != nil {
		d.node.Close()
	}
	d.mgr.Close()
	d.st.Close()
}

// dialer maps the fixed advertised addresses of cluster nodes onto the
// listeners they bind; every other address is dialed as is.
type dialer struct {
	routes map[string]string
}

func (dl *dialer) dial(ctx context.Context, network, addr string) (net.Conn, error) {
	if real, ok := dl.routes[addr]; ok {
		addr = real
	}
	var d net.Dialer
	return d.DialContext(ctx, network, addr)
}

// newConn returns a client that holds exactly one TCP connection: the
// benchmark's connections are these clients.
func newConn(dl *dialer) *http.Client {
	return &http.Client{Transport: &http.Transport{
		DialContext:         dl.dial,
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
}

func closeConn(c *http.Client) { c.Transport.(*http.Transport).CloseIdleConnections() }

// deployment is what a measured phase talks to: one daemon, or the two
// nodes of cluster_hop with the client attached to the first.
type deployment struct {
	daemons []*daemon
	base    string
	dl      *dialer
}

// managerFor returns the manager that owns a job id (cluster ids carry
// their node's id as a prefix) and the id local to it.
func (dp *deployment) managerFor(id string) (*serve.Manager, string) {
	node, local, ok := cluster.SplitJobID(id)
	if !ok {
		return dp.daemons[0].mgr, id
	}
	for _, d := range dp.daemons {
		if d.node != nil && d.node.ID() == node {
			return d.mgr, local
		}
	}
	return dp.daemons[0].mgr, local
}

func (dp *deployment) close() {
	for _, d := range dp.daemons {
		d.close()
	}
}

// startSingle brings up one daemon in dir.
func startSingle(dir string, spans *spanLog) (*deployment, error) {
	d, err := openDaemon(dir)
	if err != nil {
		return nil, err
	}
	d.serve(wrapHandler(serve.NewHandler(d.mgr), spans, "local"))
	return &deployment{daemons: []*daemon{d}, base: "http://" + d.addr(), dl: &dialer{}}, nil
}

// startCluster brings up cluster_hop's two nodes with Replicate 2 and
// waits until each sees the other healthy.
func startCluster(dirs [2]string, spans *spanLog) (*deployment, error) {
	dp := &deployment{dl: &dialer{routes: map[string]string{}}, base: clusterURLs[0]}
	for i := range dirs {
		d, err := openDaemon(dirs[i])
		if err != nil {
			dp.close()
			return nil, err
		}
		dp.daemons = append(dp.daemons, d)
		dp.dl.routes[strings.TrimPrefix(clusterURLs[i], "http://")] = d.addr()
	}
	for i, d := range dp.daemons {
		node, err := cluster.NewNode(d.mgr, cluster.Options{
			Self: clusterURLs[i], Peers: clusterURLs[:], Replicate: 2,
			HTTP: &http.Client{Transport: &http.Transport{DialContext: dp.dl.dial}},
		})
		if err != nil {
			dp.close()
			return nil, err
		}
		d.node = node
		d.serve(wrapHandler(node.Handler(), spans, node.ID()))
	}
	deadline := time.Now().Add(10 * time.Second)
	for !dp.healthy() {
		if time.Now().After(deadline) {
			dp.close()
			return nil, fmt.Errorf("cluster: members not healthy within 10s")
		}
		time.Sleep(5 * time.Millisecond)
	}
	return dp, nil
}

func (dp *deployment) healthy() bool {
	for _, d := range dp.daemons {
		ms := d.node.Membership().Members
		if len(ms) != len(dp.daemons) {
			return false
		}
		for _, m := range ms {
			if !m.Healthy {
				return false
			}
		}
	}
	return true
}

// stageSums reads every easypapd_stage_ns histogram's _sum and _count
// from a manager's registry (node-prefixed in a cluster). The buckets
// are powers of two, so means come from these, not from quantiles.
func (dp *deployment) stageSums() map[string][2]float64 {
	out := map[string][2]float64{}
	for i, d := range dp.daemons {
		var buf bytes.Buffer
		d.mgr.Metrics().WritePrometheus(&buf)
		sc := bufio.NewScanner(&buf)
		for sc.Scan() {
			line := sc.Text()
			var field int
			switch {
			case strings.HasPrefix(line, "easypapd_stage_ns_sum{"):
				field = 0
			case strings.HasPrefix(line, "easypapd_stage_ns_count{"):
				field = 1
			default:
				continue
			}
			i0 := strings.Index(line, `stage="`)
			rest := line[i0+7:]
			stage := rest[:strings.IndexByte(rest, '"')]
			v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
			if err != nil {
				continue
			}
			key := fmt.Sprintf("%d.%s", i, stage)
			cur := out[key]
			cur[field] = v
			out[key] = cur
		}
	}
	return out
}

// span is one timed interval of a traced op: a client call, a handler
// as the server saw it, or the op itself.
type span struct {
	Name  string `json:"name"`
	Trace string `json:"trace"`
	Node  string `json:"node,omitempty"`
	// Parent names the enclosing span of the same trace; "" for the
	// root (the client's operation span).
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory; the benchmark writes them out at exit.
type spanLog struct {
	mu    sync.Mutex
	spans []span
}

func (l *spanLog) add(s span) {
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

func (l *spanLog) all() []span {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]span(nil), l.spans...)
}

// wrapHandler times POST /v1/jobs on the server side for submissions
// the benchmark traces (their trace id carries tracePrefix).
func wrapHandler(h http.Handler, spans *spanLog, node string) http.Handler {
	if spans == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tid := r.Header.Get(serve.TraceHeader)
		if r.Method != http.MethodPost || r.URL.Path != "/v1/jobs" || !strings.HasPrefix(tid, tracePrefix) {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		name := "serve.handler"
		if r.Header.Get(cluster.HopHeader) != "" {
			name = "serve.handler.owner"
		}
		spans.add(span{Name: name, Trace: tid, Node: node, Start: start.UnixNano(), End: time.Now().UnixNano()})
	})
}

const tracePrefix = "pb-"
