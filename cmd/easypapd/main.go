// Command easypapd is the EASYPAP compute daemon: it serves kernel runs
// over HTTP with job queueing, admission control, warm-pool reuse, result
// caching and cancellation (see internal/serve and DESIGN.md §6).
//
//	easypapd -addr :8080
//
//	# submit a job
//	curl -s -X POST localhost:8080/v1/jobs \
//	     -d '{"config":{"kernel":"mandel","dim":512,"iterations":10}}'
//	# poll it
//	curl -s localhost:8080/v1/jobs/j-000001
//	# cancel it
//	curl -s -X DELETE localhost:8080/v1/jobs/j-000001
//	# live frames (gfx stream records: "EZFRAME <win> <iter> <len>\n<png>")
//	curl -s localhost:8080/v1/jobs/j-000002/frames > frames.ezf
//	# service counters
//	curl -s localhost:8080/v1/stats
//
// With -self and -peers the daemon joins a cluster (DESIGN.md §8):
// submissions are routed by consistent hash of their canonical config to
// the node whose result cache owns them, any node answers for any job
// id, and a dead peer's jobs fail over to the next ring replica.
//
//	easypapd -addr :8080 -self http://hostA:8080 \
//	         -peers http://hostB:8080,http://hostC:8080
//
//	curl -s hostA:8080/v1/cluster          # membership + health
//	curl -s hostA:8080/v1/cluster/stats    # cluster-aggregated counters
//
// The daemon binds its port before it opens the data directory,
// recovers journaled jobs or starts probing peers, so a taken port
// fails at once and changes nothing, and a peer's probe reaches a
// listener from this node's first gossip exchange on. Daemons started as
// separate processes can still probe a peer before that peer listens:
// the contact fails and the peer is suspected until the next probe
// round refutes it.
//
// Membership is elastic (DESIGN.md §10): the health prober doubles as a
// SWIM-style gossip exchange, so the fleet does not need matching -peers
// lists. A new node started with -join pointing at ANY live member is
// propagated to every ring within a few probe rounds, an unreachable
// member is suspected (still routable) and only declared dead — and
// removed from the ring — after -suspect-timeout without refutation, and
// a recovering member refutes the rumor with a higher incarnation and
// rejoins on its own. With -replicate R (R >= 2, requires -data-dir)
// every completed result is pushed to the next R-1 ring successors as it
// spills to disk; reads fail over owner -> replica -> recompute, and a
// background rebalancer re-replicates after every ring change under the
// -rebalance-bps bandwidth budget, verifying CRC and content hash on
// every transfer.
//
//	easypapd -addr :8081 -self http://hostD:8081 \
//	         -join http://hostA:8080 -data-dir /var/lib/easypapd -replicate 2
//
// Distributed single-job execution (DESIGN.md §12): in cluster mode a
// submission may carry "shards": N. The entry node routes it to its ring
// owner as usual; the owner becomes the session coordinator and splits
// the grid into N horizontal row bands (clamped to the healthy member
// count and the grid's tile rows), one per node, itself included as rank
// 0. Each shard runs the kernel's mpi variant locally while a
// frontier-aware halo exchange POSTs boundary rows between neighbor
// nodes once per iteration (binary EZMSG1 frames with CRC; bit-packed
// for binary-state kernels like life; edges whose boundary tiles are
// quiet are skipped entirely). The coordinator stitches the shard bands
// into one image, so a sharded run is byte-identical to a single-node
// run and caches under the same config hash. A shard node dying mid-job
// fails the job within -halo-timeout with error_kind "shard_failed";
// clients recognize it (serve/client ShardFailed) and resubmit the same
// config unsharded.
//
//	curl -s -X POST hostA:8080/v1/jobs -d '{"config":{"kernel":"life",
//	     "variant":"mpi_omp","dim":512,"iterations":100},"shards":3}'
//	curl -s hostA:8080/metrics | grep -e halos_sent -e halos_skipped
//
// With -data-dir the daemon is durable (DESIGN.md §9): completed
// results spill to a disk-backed content-addressed cache that survives
// restarts (resubmitting a known config after a crash is a disk hit,
// not a recompute — stats report disk_hits/disk_entries), and a
// write-ahead journal re-enqueues the jobs that were queued or running
// when the process died, under their original ids. -recover interrupt
// marks them with the terminal "interrupted" status instead; sweep
// clients (serve/client) resubmit interrupted jobs automatically.
// -durability fsync upgrades commits from crash-consistent to
// power-fail durable (fsync before every journal commit, and of every
// stored object and then its directory around the rename that commits
// it) at the cost of write latency; the on-disk formats are identical.
//
//	easypapd -addr :8080 -data-dir /var/lib/easypapd \
//	         -cache-max-bytes 268435456 -recover requeue -durability fsync
//
// With -snapshot-every N (DESIGN.md §14) the daemon additionally
// checkpoints every running single-process job of a snapshot-capable
// kernel (life, fire, sandpile, asandpile) every N iterations: the
// kernel's mid-run state lands in the same content-addressed store
// under the config's iteration-free prefix hash. Any later submission
// sharing that prefix — the same config at a deeper iteration count, or
// the same job re-enqueued after a crash — resumes from the deepest
// stored checkpoint instead of recomputing the shared prefix, with
// byte-identical results. Frames jobs whose prefix has a stored
// checkpoint survive a restart too (they resume; the others stay
// interrupted), and
// with -replicate R checkpoints ride the same R-way replication as
// results. stats report snapshots_written/snapshots_resumed.
//
//	easypapd -addr :8080 -data-dir /var/lib/easypapd -snapshot-every 64
//
// Observability (DESIGN.md §11): every daemon exposes Prometheus-text
// metrics at GET /metrics (per-stage latency histograms, queue/cache/
// ring gauges, the /v1/stats counters) — disable with -metrics=false —
// and a per-job distributed trace at GET /v1/trace/{job}: the service
// spans (admit, queue, compute, proxy, replicate, ...) recorded by
// every node the job touched, merged into one tree. -pprof-addr starts
// a net/http/pprof side listener, kept off the service port so
// profiling cannot be reached through the public API.
//
//	easypapd -addr :8080 -pprof-addr 127.0.0.1:6060
//	curl -s localhost:8080/metrics | grep easypapd_stage_ns
//	curl -s localhost:8080/v1/trace/j-000001
//	go tool pprof http://127.0.0.1:6060/debug/pprof/profile
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof" // -pprof-addr side listener (DefaultServeMux)
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"easypap/internal/core"
	_ "easypap/internal/kernels" // register all predefined kernels
	"easypap/internal/serve"
	"easypap/internal/serve/cluster"
	"easypap/internal/serve/store"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "easypapd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("easypapd", flag.ContinueOnError)
	var (
		addr      = fs.String("addr", ":8080", "listen address")
		queue     = fs.Int("queue", 64, "submission queue depth (admission control bound)")
		workers   = fs.Int("workers", 0, "concurrent job runners (default GOMAXPROCS)")
		cacheCap  = fs.Int("cache", 128, "result cache capacity (entries)")
		idlePools = fs.Int("idle-pools", 4, "warm pools kept per thread count (0 keeps the default 4; -cold-pools disables reuse)")
		coldPools = fs.Bool("cold-pools", false, "disable warm-pool reuse (every job builds its own pool)")
		recvTO    = fs.Duration("mpi-recv-timeout", 2*time.Second, "MPI receive watchdog for distributed jobs")
		haloTO    = fs.Duration("halo-timeout", 2*time.Second, "sharded jobs: how long a shard waits for a neighbor's halo, or for a halo send to be answered, before declaring the peer lost")
		self      = fs.String("self", "", "cluster mode: this node's advertised base URL (e.g. http://10.0.0.3:8080)")
		peers     = fs.String("peers", "", "cluster mode: comma-separated peer base URLs")
		join      = fs.String("join", "", "cluster mode: comma-separated seed URLs of any live members; gossip spreads the join to the whole fleet")
		vnodes    = fs.Int("vnodes", 0, "cluster mode: virtual ring points per node (default 64)")
		probe     = fs.Duration("probe", time.Second, "cluster mode: peer health-probe (gossip) interval")
		suspectTO = fs.Duration("suspect-timeout", 0, "cluster mode: how long a suspect member may miss gossip before it is declared dead (default 10x probe)")
		replicate = fs.Int("replicate", 0, "cluster mode: replication factor R for cached results (0 or 1 = owner only; needs -data-dir)")
		rebalBPS  = fs.Int64("rebalance-bps", 0, "cluster mode: rebalancer bandwidth budget in bytes/s (default 8 MiB/s, negative disables)")
		dataDir   = fs.String("data-dir", "", "persistence: directory for the disk result cache and job journal (empty = in-memory only)")
		cacheMax  = fs.Int64("cache-max-bytes", 0, "persistence: disk cache budget in bytes (default 256 MiB)")
		recovery  = fs.String("recover", "requeue", "persistence: fate of journaled in-flight jobs on restart (requeue|interrupt)")
		snapEvery = fs.Int("snapshot-every", 0, "persistence: checkpoint running jobs every N iterations so restarts and shared-prefix submissions resume instead of recomputing (0 = off; needs -data-dir)")
		durable   = fs.String("durability", "async", "persistence: async (crash-consistent, fast) or fsync (power-fail durable) commits")
		metricsOn = fs.Bool("metrics", true, "observability: serve Prometheus-text metrics at GET /metrics")
		pprofAddr = fs.String("pprof-addr", "", "observability: side listener for net/http/pprof (e.g. 127.0.0.1:6060; empty = off)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var fsync bool
	switch *durable {
	case "async":
	case "fsync":
		fsync = true
	default:
		return fmt.Errorf("invalid -durability %q (want async or fsync)", *durable)
	}

	// Bind first: a taken port fails before the store is opened, jobs
	// are recovered or the cluster prober gossips with its seeds, and
	// peers probing this node from now on reach a listener (their
	// requests wait in the accept queue until Serve starts).
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	defer ln.Close()

	var st *store.Store
	var recoverPolicy serve.RecoverPolicy
	if *dataDir != "" {
		switch serve.RecoverPolicy(*recovery) {
		case serve.RecoverRequeue, serve.RecoverInterrupt:
			recoverPolicy = serve.RecoverPolicy(*recovery)
		default:
			return fmt.Errorf("invalid -recover %q (want requeue or interrupt)", *recovery)
		}
		st, err = store.Open(*dataDir, store.Options{MaxBytes: *cacheMax, Fsync: fsync})
		if err != nil {
			return fmt.Errorf("opening data dir: %w", err)
		}
		defer st.Close()
		log.Printf("easypapd: data dir %s (%d cached results, %d bytes; %d journaled jobs to recover)",
			*dataDir, st.Cache.Len(), st.Cache.Bytes(), len(st.Journal.Recovered()))
	}

	mgr := serve.NewManager(serve.Options{
		QueueDepth:       *queue,
		Workers:          *workers,
		CacheCapacity:    *cacheCap,
		MaxIdlePools:     *idlePools,
		DisableWarmPools: *coldPools,
		RecvTimeout:      *recvTO,
		HaloTimeout:      *haloTO,
		Store:            st,
		Recover:          recoverPolicy,
		SnapshotEvery:    *snapEvery,
	})

	handler := serve.NewHandler(mgr)
	var node *cluster.Node
	if *self != "" || *peers != "" || *join != "" {
		var peerList []string
		for _, p := range strings.Split(*peers+","+*join, ",") {
			if p = strings.TrimSpace(p); p != "" {
				peerList = append(peerList, p)
			}
		}
		if *replicate > 1 && st == nil {
			return fmt.Errorf("-replicate %d needs -data-dir (replicas live in the disk cache)", *replicate)
		}
		node, err = cluster.NewNode(mgr, cluster.Options{
			Self:           *self,
			Peers:          peerList,
			VirtualNodes:   *vnodes,
			ProbeInterval:  *probe,
			SuspectTimeout: *suspectTO,
			Replicate:      *replicate,
			RebalanceBPS:   *rebalBPS,
		})
		if err != nil {
			mgr.Close()
			return err
		}
		handler = node.Handler()
		log.Printf("easypapd: cluster node %s (%d seed peers, replicate=%d)", node.ID(), len(peerList), *replicate)
	}

	if !*metricsOn {
		inner := handler
		handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/metrics" {
				http.NotFound(w, r)
				return
			}
			inner.ServeHTTP(w, r)
		})
	}
	if *pprofAddr != "" {
		go func() {
			// net/http/pprof registered its handlers on DefaultServeMux at
			// import; a nil handler serves exactly that, on its own port.
			log.Printf("easypapd: pprof listening on %s", *pprofAddr)
			log.Printf("easypapd: pprof listener: %v", http.ListenAndServe(*pprofAddr, nil))
		}()
	}

	srv := &http.Server{Handler: handler}

	// Graceful shutdown: stop accepting, cancel running jobs, drain.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() {
		log.Printf("easypapd: serving %d kernels on %s", len(core.KernelNames()), *addr)
		errc <- srv.Serve(ln)
	}()

	stopNode := func() {
		if node != nil {
			node.Close()
		}
	}
	select {
	case err := <-errc:
		stopNode()
		mgr.Close()
		return err
	case <-ctx.Done():
		log.Printf("easypapd: shutting down")
		shctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		err := srv.Shutdown(shctx)
		stopNode()
		mgr.Close()
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return nil
	}
}
