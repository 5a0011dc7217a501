// Package easypap is a from-scratch Go reproduction of "EASYPAP: a
// Framework for Learning Parallel Programming" (Lasserre, Namyst,
// Wacrenier; University of Bordeaux, 2020, HAL hal-02469919).
//
// The framework lives under internal/: the core runtime (internal/core),
// the OpenMP-like scheduling pool (internal/sched), the task-dependency
// engine (internal/taskdep), the message-passing runtime (internal/mpi),
// the monitoring and tracing toolchain (internal/monitor, internal/trace,
// internal/ezview), the experiment/plot pipeline (internal/expt,
// internal/plot) and the predefined kernels (internal/kernels).
//
// Executables live under cmd/ (easypap, easypapd, easyview, easyplot,
// easybench) and runnable examples under examples/. The benchmarks in
// bench_test.go regenerate every figure of the paper's evaluation; see
// DESIGN.md and EXPERIMENTS.md.
//
// A run leases its image and board buffers from per-size free lists, and
// core.RunOutput.Final is the run's own final image, not a copy. A
// program that computes many runs and reads only their results (the
// checksum, the timings) calls RunOutput.Release on each output: the next
// run of that size then reuses the image instead of allocating one, as
// the daemon does for every job (DESIGN.md §6).
//
// # The compute daemon
//
// easypapd (cmd/easypapd, backed by internal/serve) serves kernel runs
// over HTTP with job queueing and admission control, warm worker-pool
// reuse across jobs, a result cache keyed by canonical config hash, live
// frame streaming and mid-run cancellation (DESIGN.md §6):
//
//	easypapd -addr :8080 -queue 64 -workers 2 -cache 128
//
//	# submit (429 when the queue is full)
//	curl -s -X POST localhost:8080/v1/jobs \
//	     -d '{"config":{"kernel":"mandel","dim":512,"iterations":10}}'
//	# poll status + result
//	curl -s localhost:8080/v1/jobs/j-000001
//	# cancel mid-run
//	curl -s -X DELETE localhost:8080/v1/jobs/j-000001
//	# queue depth, cache hit/miss, per-kernel throughput
//	curl -s localhost:8080/v1/stats
//
// Jobs submitted with "frames": true stream their per-iteration images
// (DESIGN.md §13): a bounded broadcast hub (ring of records + periodic
// keyframes) fans one encoded stream out to any number of viewers, a
// slow viewer skips ahead to the newest keyframe instead of stalling
// the run, and lazy kernels can ship dirty-tile deltas (~6x smaller at
// steady state) instead of full PNGs:
//
//	curl -s -X POST localhost:8080/v1/jobs -d '{"config":{"kernel":"life",
//	     "variant":"lazy","dim":256,"iterations":100,"arg":"diag"},
//	     "frames":true}'
//	curl -s localhost:8080/v1/jobs/j-000002/frames > full.ezframe
//	curl -s 'localhost:8080/v1/jobs/j-000002/frames?format=delta' > d.ezframe
//
// Both streams decode with gfx.ReadRecord + gfx.Reassembler to
// identical pixels; the default stream stays plain EZFRAME+PNG for
// existing readers.
//
// Parameter sweeps fan out to a daemon by setting expt.Sweep.Remote to a
// serve/client.Client, picking up the daemon's result cache for repeated
// combinations.
//
// # Cluster mode
//
// With -self and -peers, daemons form a ring (internal/serve/cluster,
// DESIGN.md §8): submissions are routed by consistent hash of their
// canonical config to the node whose result cache owns them, any node
// answers for any job id (the "nXXXXXXXX.j-000017" prefix names the
// owner), and a dead peer's arc fails over to the next replica:
//
//	easypapd -addr :8080 -self http://hostA:8080 \
//	         -peers http://hostB:8080,http://hostC:8080
//
//	curl -s hostA:8080/v1/cluster          # membership + health
//	curl -s hostA:8080/v1/cluster/stats    # aggregated cluster counters
//
// serve/client.NewMulti takes every endpoint, learns the ring, and
// submits each config straight to its owner; as an expt.Runner it fans
// a sweep across the whole cluster and survives nodes dying mid-sweep.
// Any node also serves frames for any job: a non-owner proxies ONE
// upstream stream per (job, format) and fans it out to all of its local
// viewers (easypapd_edge_upstream_streams_total counts the dials).
//
// # Distributed single-job execution
//
// A single submission can also be split ACROSS the cluster (DESIGN.md
// §12): adding "shards": N to the submit body makes the owning node the
// coordinator of a row-band decomposition — the grid is cut into N
// horizontal bands (one ghost row each side), one band per healthy
// peer, each running the kernel's mpi_omp variant locally while
// per-iteration halo steps POST boundary rows to band neighbours over
// persistent HTTP connections (EZMSG1 frames, CRC-32C). The exchange is
// frontier-aware — a shard whose boundary tiles are inactive skips the
// round trip entirely, and life ships bit-packed rows (~8x smaller) —
// and the result is byte-identical to the unsharded run, cached under
// the same canonical config hash:
//
//	curl -s -X POST hostA:8080/v1/jobs -d '{"config":{"kernel":"life",
//	     "variant":"mpi_omp","dim":512,"tile_h":8,"iterations":100,
//	     "arg":"random"},"shards":3}'
//	curl -s hostA:8080/metrics | grep -e halos_sent -e halos_skipped
//
// The shard count is advisory (clamped to healthy peers and band rows;
// never part of the cache key). If a shard node dies mid-job the
// coordinator fails the job within the halo timeout with
// error_kind="shard_failed"; client.ShardFailed recognizes such a
// failure, and the same config resubmitted unsharded succeeds.
//
// # Durability
//
// With -data-dir, a daemon survives its own death (internal/serve/store,
// DESIGN.md §9). Completed results spill asynchronously to a
// disk-backed, content-addressed cache (CRC'd entry files, whose
// directory is the index) layered under the in-memory LRU, and a
// write-ahead journal
// records every admitted job, so a restart re-enqueues the jobs that
// were queued or running — under their original ids — and serves every
// previously computed config from disk instead of recomputing it:
//
//	easypapd -addr :8080 -data-dir /var/lib/easypapd \
//	         -cache-max-bytes 268435456 -recover requeue
//
//	# after a crash + restart: same config, no recompute
//	curl -s localhost:8080/v1/stats | jq '{disk_hits, disk_entries, recovered_jobs}'
//
// -recover interrupt marks journaled in-flight jobs with the terminal
// "interrupted" status instead of re-running them; serve/client's
// RunConfig (and therefore expt sweeps) resubmits interrupted jobs
// automatically, so a parameter study rides through a rolling deploy.
//
// # Observability
//
// Every daemon is self-describing (internal/metrics, internal/trace,
// DESIGN.md §11). GET /metrics serves Prometheus text exposition from a
// zero-dependency registry — per-stage latency histograms
// (easypapd_stage_ns{stage=admit|queue|compute|proxy|...}) plus queue,
// ring, membership, disk and replication gauges — at ~13 ns per
// observation, so it is always on (-metrics=false turns the endpoint
// off). Each submission carries a trace id across proxy hops and
// replica fetches via the X-Easypap-Trace header; GET /v1/trace/{job}
// merges every node's spans into one connected tree, and
// ezview.ServiceGanttSVG or client.FormatTrace render it:
//
//	curl -s localhost:8080/metrics | grep 'stage="compute"'
//	curl -s localhost:8080/v1/trace/$JOB | jq '{nodes, spans: (.spans | length)}'
//
//	# live profiling on a side listener, never on the service port
//	easypapd -addr :8080 -pprof-addr 127.0.0.1:6060
//	go tool pprof http://127.0.0.1:6060/debug/pprof/profile?seconds=10
//
// # The lazy tile-activity engine
//
// internal/tilegrid is the shared frontier behind every lazy kernel
// variant (DESIGN.md §7): workers mark changed tiles' neighbourhoods
// with lock-free bitset ORs, and sched.Pool.ParallelForActive dispatches
// the compacted active list — per-iteration cost proportional to active
// tiles, not grid size. life ("lazy", "mpi_omp"), sandpile and asandpile
// ("lazy_omp") and the frontier-native fire kernel ride it; lazy jobs
// report their frontier through Result.Activity, the "frontier" monitor
// window, and the daemon's live status JSON:
//
//	easypap --kernel fire --variant lazy --size 512 --iterations 200 \
//	        --no-display
//	easypap --list-json   # machine-readable kernels, same shape as /v1/kernels
//
// # Adding a stencil kernel
//
// life, fire, sandpile and asandpile are rules for one stencil engine
// (internal/kernels/stencil.go, DESIGN.md §15). A new cellular
// automaton supplies its cell type (uint8 or uint32), its seed patterns,
// a palette and a per-tile rule, and registers from an init function in
// internal/kernels:
//
//	func init() {
//		(&stencil[uint8]{
//			name: "heat", description: "heat diffusion",
//			defaultVariant: "seq", lazyVariant: "lazy",
//			palette: []img2d.Pixel{img2d.Black, img2d.Red}, // v >= 1 paints red
//			seed:    heatSeed, // fills b.cur from cfg.Arg and cfg.Seed
//			rule:    heatStep,
//		}).register()
//	}
//
//	// heatStep computes the cells [x, x+w) × [y, y+h) of b.next from
//	// b.cur and reports whether any of them changed.
//	func heatStep(b *board[uint8], x, y, w, h int) bool { ... }
//
// The rule writes every cell of its tile into b.next (tiles the lazy
// schedule skips rely on it: both buffers stay equal there) and reads
// neighbours straight from b.cur: b.rowOrZero gives the zero row beyond
// the world edge, and under MPI the neighbouring bands' boundary rows are
// already in the board. The engine derives seq, omp_tiled, the lazy
// frontier schedule, mpi_omp with frontier-aware halo exchange, activity
// reporting for delta frames, the band-aware refresh, the EZK1
// checkpoint codec, and the boards' lease from and return to a free list
// per board size; TestRegistryDeterminism covers the new variants
// without further code. A rule that updates b.cur in place sets inPlace:
// its parallel schedules then run the tiles in four parity phases, which
// needs tiles of at least 2x2 cells, and it gets no mpi_omp variant.
package easypap
