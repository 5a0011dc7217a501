package serve

// Observability surface of the Manager: the metrics registry wiring and
// the service-span recorder behind GET /metrics and GET /v1/trace/{job}.
//
// Two rules keep this layer honest:
//
//  1. No double bookkeeping. The Manager already counts everything in
//     atomics for /v1/stats; /metrics exposes those SAME atomics through
//     CounterFunc/GaugeFunc sampled at scrape time. Only latency
//     histograms add new state, because /v1/stats never had
//     distributions.
//  2. Nothing here touches the sched dispatch hot path. Stage timings
//     wrap service operations (admission, cache lookups, compute runs,
//     spills) that already cost µs..ms; one Histogram.Observe (~12ns)
//     and one SpanRing.Record (~100ns, off-path) are noise there, and
//     BenchmarkDispatchOverhead is pinned unchanged because internal/
//     sched is not instrumented at all.

import (
	"sync/atomic"
	"time"

	"easypap/internal/metrics"
	"easypap/internal/trace"
)

// Stage names used across serve and serve/cluster for the per-stage
// latency histograms and the service spans. Keeping them in one place
// means /metrics label values and span Stage fields never drift apart.
const (
	StageAdmit        = "admit"         // Submit entry → enqueued or cache-answered
	StageQueue        = "queue"         // admission → a runner picks the job up
	StageLease        = "lease"         // warm-pool lease
	StageCompute      = "compute"       // core.RunWith
	StageCacheMem     = "cache_mem"     // in-memory LRU lookup
	StageCacheDisk    = "cache_disk"    // disk-tier lookup
	StageReplicaFetch = "replica_fetch" // entry-source (cluster replica) fetch
	StageSpill        = "spill"         // write-behind disk persist
	StageSnapshot     = "snapshot"      // checkpoint write-behind persist
	StageResume       = "resume"        // deepest-checkpoint lookup that hit
	StageProxy        = "proxy"         // cluster: forwarding to the owner/replica
	StageReplicate    = "replicate"     // cluster: pushing an entry to a successor
	StageGossip       = "gossip"        // cluster: one gossip exchange with a peer
	StageShard        = "shard"         // distributed: one rank's whole band run
	StageHalo         = "halo"          // distributed: one boundary-row exchange
)

// stageHistHelp is shared by every easypapd_stage_ns registration (the
// cluster layer registers proxy/replicate/gossip into the same family).
const stageHistHelp = "Per-stage service latency in nanoseconds."

// managerObs bundles the Manager's scrape-facing state.
type managerObs struct {
	reg   *metrics.Registry
	spans *trace.SpanRing

	// stages holds the easypapd_stage_ns histogram of every stage the
	// manager times, by stage name; span feeds them.
	stages map[string]*metrics.Histogram
}

// StageHistogram registers one easypapd_stage_ns histogram in reg —
// exported so the cluster layer adds its stages to the same family.
func StageHistogram(reg *metrics.Registry, stage string) *metrics.Histogram {
	return reg.Histogram("easypapd_stage_ns", stageHistHelp, metrics.Labels{"stage": stage})
}

// newManagerObs builds the registry and wires every existing Manager
// counter into it. Called once from NewManager, before traffic.
func newManagerObs(m *Manager) *managerObs {
	reg := metrics.NewRegistry()
	o := &managerObs{reg: reg, spans: trace.NewSpanRing(0), stages: make(map[string]*metrics.Histogram)}
	for _, st := range []string{StageAdmit, StageQueue, StageLease, StageCompute, StageCacheMem, StageCacheDisk,
		StageReplicaFetch, StageSpill, StageSnapshot, StageResume, StageShard, StageHalo} {
		o.stages[st] = StageHistogram(reg, st)
	}

	ctr := func(name, help string, labels metrics.Labels, v *atomic.Int64) {
		reg.CounterFunc(name, help, labels, func() uint64 { return uint64(v.Load()) })
	}
	ctr("easypapd_jobs_submitted_total", "Jobs admitted (including cache-served).", nil, &m.submitted)
	ctr("easypapd_jobs_completed_total", "Jobs finished successfully.", nil, &m.completed)
	ctr("easypapd_jobs_computed_total", "Jobs that ran a kernel (no cache tier answered).", nil, &m.computed)
	ctr("easypapd_jobs_failed_total", "Jobs that finished with an error.", nil, &m.failed)
	ctr("easypapd_jobs_canceled_total", "Jobs canceled before completion.", nil, &m.canceled)
	ctr("easypapd_jobs_rejected_total", "Submissions rejected by admission control (429).", nil, &m.rejected)
	ctr("easypapd_jobs_recovered_total", "Journaled jobs re-enqueued after a restart.", nil, &m.recovered)
	ctr("easypapd_jobs_interrupted_total", "Journaled jobs marked interrupted after a restart.", nil, &m.interrupted)

	reg.CounterFunc("easypapd_cache_hits_total", "Result-cache hits by tier.",
		metrics.Labels{"tier": "memory"}, func() uint64 { return uint64(m.cache.hits.Load()) })
	reg.CounterFunc("easypapd_cache_misses_total", "Result-cache misses (memory tier).",
		metrics.Labels{"tier": "memory"}, func() uint64 { return uint64(m.cache.misses.Load()) })
	ctr("easypapd_cache_hits_total", "Result-cache hits by tier.", metrics.Labels{"tier": "disk"}, &m.diskHits)
	ctr("easypapd_cache_misses_total", "Result-cache misses (memory tier).", metrics.Labels{"tier": "disk"}, &m.diskMisses)
	ctr("easypapd_cache_hits_total", "Result-cache hits by tier.", metrics.Labels{"tier": "remote"}, &m.remoteHits)

	ctr("easypapd_jobs_coordinated_total", "Sharded jobs this node drove as coordinator (rank 0).", nil, &m.jobsCoordinated)
	ctr("easypapd_shards_executed_total", "Shard ranks of distributed jobs executed on this node.", nil, &m.shardsExecuted)
	ctr("easypapd_halos_sent_total", "Halo boundary-row messages sent by local shard ranks.", nil, &m.halosSent)
	ctr("easypapd_halos_skipped_total", "Halo edges skipped because the frontier proved them quiet.", nil, &m.halosSkipped)

	// Frame-streaming series: the broadcast hub's shared counters (the
	// same atomics /v1/stats samples). Byte counters are labeled by
	// format so the delta savings is a PromQL one-liner.
	reg.GaugeFunc("easypapd_frame_subscribers", "Frame-stream subscribers currently attached.", nil,
		func() float64 { return float64(m.frameStats.Subscribers.Load()) })
	ctr("easypapd_frames_dropped_keyframe_total", "Slow-subscriber catch-ups that skipped ahead to a keyframe.", nil,
		&m.frameStats.DroppedToKey)
	ctr("easypapd_frame_post_close_drops_total", "Frame publishes dropped because the job's hub was already closed.", nil,
		&m.frameStats.PostCloseDrops)
	ctr("easypapd_frame_bytes_total", "Encoded frame bytes published, by stream format.",
		metrics.Labels{"format": "full"}, &m.frameStats.FullBytes)
	ctr("easypapd_frame_bytes_total", "Encoded frame bytes published, by stream format.",
		metrics.Labels{"format": "delta"}, &m.frameStats.DeltaBytes)

	ctr("easypapd_snapshots_written_total", "Kernel-state checkpoints durably persisted.", nil, &m.snapsWritten)
	ctr("easypapd_snapshots_resumed_total", "Jobs resumed from a stored checkpoint instead of iteration zero.", nil, &m.snapsResumed)

	ctr("easypapd_spills_total", "Results written behind to the disk tier.", nil, &m.spills)
	ctr("easypapd_spill_errors_total", "Disk-tier writes that failed.", nil, &m.spillErrs)
	ctr("easypapd_spill_dropped_total", "Spills dropped because the write-behind queue was full.", nil, &m.spillDrops)

	reg.CounterFunc("easypapd_pool_leases_total", "Scheduler-pool leases by kind.",
		metrics.Labels{"kind": "warm"}, func() uint64 { return uint64(m.pools.warm.Load()) })
	reg.CounterFunc("easypapd_pool_leases_total", "Scheduler-pool leases by kind.",
		metrics.Labels{"kind": "cold"}, func() uint64 { return uint64(m.pools.cold.Load()) })

	reg.GaugeFunc("easypapd_queue_depth", "Jobs waiting for a runner.", nil,
		func() float64 { return float64(len(m.queue)) })
	reg.GaugeFunc("easypapd_queue_capacity", "Admission-control queue bound.", nil,
		func() float64 { return float64(cap(m.queue)) })
	reg.GaugeFunc("easypapd_running_jobs", "Jobs currently executing.", nil,
		func() float64 { return float64(m.running.Load()) })
	reg.GaugeFunc("easypapd_cache_entries", "Entries in the in-memory result cache.", nil,
		func() float64 { return float64(m.cache.len()) })
	reg.GaugeFunc("easypapd_disk_entries", "Entries in the disk cache tier.", nil, func() float64 {
		if m.store == nil {
			return 0
		}
		return float64(m.store.Cache.Len())
	})
	reg.GaugeFunc("easypapd_disk_bytes", "Bytes in the disk cache tier.", nil, func() float64 {
		if m.store == nil {
			return 0
		}
		return float64(m.store.Cache.Bytes())
	})
	reg.GaugeFunc("easypapd_spill_queue_depth", "Results waiting for the write-behind spiller.", nil,
		func() float64 { return float64(len(m.spill)) })
	reg.GaugeFunc("easypapd_uptime_seconds", "Seconds since the manager started.", nil,
		func() float64 { return time.Since(m.start).Seconds() })
	return o
}

// Metrics returns the manager's registry, so the HTTP layer mounts
// GET /metrics and the cluster layer registers its own series.
func (m *Manager) Metrics() *metrics.Registry { return m.obs.reg }

// Spans returns the manager's service-span ring.
func (m *Manager) Spans() *trace.SpanRing { return m.obs.spans }

// SetNodeName labels all subsequently recorded spans with the cluster
// node id, so merged span trees name every node involved. Single-node
// daemons keep the default "local".
func (m *Manager) SetNodeName(name string) { m.nodeName.Store(name) }

// NodeName returns the span node label.
func (m *Manager) NodeName() string {
	if v := m.nodeName.Load(); v != nil {
		return v.(string)
	}
	return "local"
}

// RecordSpan files a service span (wall-clock unix-ns timestamps) into
// the ring, stamping the node name. The cluster layer calls this for
// proxy/replicate spans.
func (m *Manager) RecordSpan(s trace.Span) {
	if s.Node == "" {
		s.Node = m.NodeName()
	}
	m.obs.spans.Record(s)
}

// span is the manager-internal convenience: record a stage span for a
// job between two wall-clock instants, and feed the stage's histogram.
func (m *Manager) span(stage, traceID, jobID string, start, end time.Time, err error) {
	if h := m.obs.stages[stage]; h != nil {
		h.Observe(end.Sub(start).Nanoseconds())
	}
	if traceID == "" {
		return
	}
	s := trace.Span{
		TraceID: traceID, Job: jobID, Node: m.NodeName(), Stage: stage,
		Start: start.UnixNano(), End: end.UnixNano(),
	}
	if err != nil {
		s.Err = err.Error()
	}
	m.obs.spans.Record(s)
}

// TraceIDOf resolves a job id to its trace id: from the live job record
// when the job is still in history, falling back to the span ring.
func (m *Manager) TraceIDOf(id string) string {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if ok && j.traceID != "" {
		return j.traceID
	}
	return m.obs.spans.TraceIDOf(id)
}

// TraceDoc is the GET /v1/trace/{job} body: every node's service spans
// for one trace id, nested by containment.
type TraceDoc struct {
	TraceID string            `json:"trace_id"`
	Job     string            `json:"job"`
	Nodes   []string          `json:"nodes"`
	Spans   []*trace.SpanNode `json:"spans"`
}

// BuildTraceDoc assembles a TraceDoc from a flat span set.
func BuildTraceDoc(traceID, job string, spans []trace.Span) *TraceDoc {
	seen := make(map[string]bool)
	var nodes []string
	for _, s := range spans {
		if !seen[s.Node] {
			seen[s.Node] = true
			nodes = append(nodes, s.Node)
		}
	}
	return &TraceDoc{TraceID: traceID, Job: job, Nodes: nodes, Spans: trace.NestSpans(spans)}
}

// Trace returns the local span tree for a job id (ErrUnknownJob when the
// job is not in history and no spans mention it).
func (m *Manager) Trace(id string) (*TraceDoc, error) {
	traceID := m.TraceIDOf(id)
	if traceID == "" {
		return nil, ErrUnknownJob
	}
	return BuildTraceDoc(traceID, id, m.obs.spans.ForTrace(traceID)), nil
}

// SpansForTrace returns the local spans recorded for a trace id — the
// per-node half of the cluster's merged trace endpoint.
func (m *Manager) SpansForTrace(traceID string) []trace.Span {
	return m.obs.spans.ForTrace(traceID)
}
