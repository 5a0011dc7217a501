package serve

import (
	"time"

	"easypap/internal/core"
)

// kernelStats accumulates per-kernel serving throughput.
type kernelStats struct {
	jobs       int64
	iterations int64
	wallNS     int64
	dispatched int64 // lazy frontier tiles actually computed
	skipped    int64 // tiles the frontier let the kernel skip
}

// recordKernel accumulates per-kernel throughput counters.
func (m *Manager) recordKernel(r core.Result) {
	m.kmu.Lock()
	defer m.kmu.Unlock()
	ks := m.kernels[r.Config.Kernel]
	if ks == nil {
		ks = &kernelStats{}
		m.kernels[r.Config.Kernel] = ks
	}
	ks.jobs++
	// Only iterations computed THIS run count toward throughput: a
	// resumed job inherited its prefix from a snapshot, and crediting it
	// with the full depth would let iters_per_sec exceed the hardware.
	ks.iterations += int64(r.Iterations - r.ResumedFrom)
	ks.wallNS += r.WallTime.Nanoseconds()
	for _, a := range r.Activity {
		ks.dispatched += int64(a.Active)
		ks.skipped += int64(a.Total - a.Active)
	}
}

// Stats is the GET /v1/stats body.
type Stats struct {
	UptimeSec     float64 `json:"uptime_sec"`
	QueueDepth    int     `json:"queue_depth"`
	QueueCapacity int     `json:"queue_capacity"`
	Running       int64   `json:"running"`
	Workers       int     `json:"workers"`

	Submitted int64 `json:"submitted"`
	Completed int64 `json:"completed"`
	// Computed counts jobs that actually ran a kernel — no cache tier
	// answered. completed - computed is the number of cache-served jobs.
	Computed int64 `json:"computed"`
	Failed   int64 `json:"failed"`
	Canceled int64 `json:"canceled"`
	Rejected int64 `json:"rejected"`

	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
	CacheSize   int   `json:"cache_size"`

	// Persistence counters (all zero when the daemon runs without
	// --data-dir). DiskHits/DiskMisses count second-tier lookups after a
	// memory miss; Spills counts results written behind to disk;
	// DiskCorrupt counts entries rejected by CRC and dropped.
	// Counters never carry omitempty: a client must be able to tell a
	// true zero ("no spill has ever failed") from a field the daemon
	// did not report. TestStatsCountersAlwaysPresent pins this.
	DiskHits   int64 `json:"disk_hits"`
	DiskMisses int64 `json:"disk_misses"`
	// RemoteHits counts submissions answered by a replica fetch after
	// both local tiers missed (cluster mode with replication).
	RemoteHits      int64 `json:"remote_hits"`
	Spills          int64 `json:"spills"`
	SpillErrors     int64 `json:"spill_errors"`
	SpillDropped    int64 `json:"spill_dropped"`
	DiskEntries     int   `json:"disk_entries"`
	DiskBytes       int64 `json:"disk_bytes"`
	DiskCorrupt     int64 `json:"disk_corrupt"`
	RecoveredJobs   int64 `json:"recovered_jobs"`
	InterruptedJobs int64 `json:"interrupted_jobs"`
	// SnapshotsWritten counts checkpoints durably persisted;
	// SnapshotsResumed counts jobs that started from a stored checkpoint
	// instead of iteration zero (both zero without -snapshot-every and
	// an empty snapshot store).
	SnapshotsWritten int64 `json:"snapshots_written"`
	SnapshotsResumed int64 `json:"snapshots_resumed"`

	// Distributed-execution counters (see shard.go). Like every counter
	// above, no omitempty: zero is a reported value, not an absence.
	JobsCoordinated int64 `json:"jobs_coordinated"`
	ShardsExecuted  int64 `json:"shards_executed"`
	HalosSent       int64 `json:"halos_sent"`
	HalosSkipped    int64 `json:"halos_skipped"`

	PoolWarmLeases int64 `json:"pool_warm_leases"`
	PoolColdLeases int64 `json:"pool_cold_leases"`
	PoolsIdle      int   `json:"pools_idle"`

	// Frame-streaming counters (the broadcast hub; see hub.go). Gauge +
	// counters, no omitempty like every counter above.
	FrameSubscribers    int64 `json:"frame_subscribers"`
	FrameDroppedToKey   int64 `json:"frame_dropped_to_keyframe"`
	FramePostCloseDrops int64 `json:"frame_post_close_drops"`
	// FrameFullBytes is what the job hubs published as full-frame
	// encodings; FrameDeltaBytes is what a delta subscriber receives for
	// the same records — the spread is the delta savings.
	FrameFullBytes  int64 `json:"frame_full_bytes"`
	FrameDeltaBytes int64 `json:"frame_delta_bytes"`

	// Kernels maps kernel name to serving throughput.
	Kernels map[string]KernelThroughput `json:"kernels"`
}

// KernelThroughput is the per-kernel serving record.
type KernelThroughput struct {
	Jobs        int64   `json:"jobs"`
	Iterations  int64   `json:"iterations"`
	WallNS      int64   `json:"wall_ns"`
	ItersPerSec float64 `json:"iters_per_sec"` // computed iterations per compute-second

	// TilesDispatched/TilesSkipped aggregate lazy-variant frontiers: how
	// many tiles sparse dispatch actually computed vs. how many the
	// tile-activity engine proved skippable (both 0 for eager-only load;
	// no omitempty — zero must be reported as zero).
	TilesDispatched int64 `json:"tiles_dispatched"`
	TilesSkipped    int64 `json:"tiles_skipped"`
}

// Stats returns a consistent snapshot of the service counters.
func (m *Manager) Stats() Stats {
	s := Stats{
		UptimeSec:      time.Since(m.start).Seconds(),
		QueueDepth:     len(m.queue),
		QueueCapacity:  cap(m.queue),
		Running:        m.running.Load(),
		Workers:        m.opts.Workers,
		Submitted:      m.submitted.Load(),
		Completed:      m.completed.Load(),
		Computed:       m.computed.Load(),
		Failed:         m.failed.Load(),
		Canceled:       m.canceled.Load(),
		Rejected:       m.rejected.Load(),
		CacheHits:      m.cache.hits.Load(),
		CacheMisses:    m.cache.misses.Load(),
		CacheSize:      m.cache.len(),
		PoolWarmLeases: m.pools.warm.Load(),
		PoolColdLeases: m.pools.cold.Load(),
		PoolsIdle:      m.pools.idleCount(),
		Kernels:        make(map[string]KernelThroughput),

		JobsCoordinated: m.jobsCoordinated.Load(),
		ShardsExecuted:  m.shardsExecuted.Load(),
		HalosSent:       m.halosSent.Load(),
		HalosSkipped:    m.halosSkipped.Load(),

		FrameSubscribers:    m.frameStats.Subscribers.Load(),
		FrameDroppedToKey:   m.frameStats.DroppedToKey.Load(),
		FramePostCloseDrops: m.frameStats.PostCloseDrops.Load(),
		FrameFullBytes:      m.frameStats.FullBytes.Load(),
		FrameDeltaBytes:     m.frameStats.DeltaBytes.Load(),
	}
	s.RemoteHits = m.remoteHits.Load()
	if m.store != nil {
		s.DiskHits = m.diskHits.Load()
		s.DiskMisses = m.diskMisses.Load()
		s.Spills = m.spills.Load()
		s.SpillErrors = m.spillErrs.Load()
		s.SpillDropped = m.spillDrops.Load()
		s.DiskEntries = m.store.Cache.Len()
		s.DiskBytes = m.store.Cache.Bytes()
		s.DiskCorrupt = m.store.Cache.Corrupt()
		s.RecoveredJobs = m.recovered.Load()
		s.InterruptedJobs = m.interrupted.Load()
		s.SnapshotsWritten = m.snapsWritten.Load()
		s.SnapshotsResumed = m.snapsResumed.Load()
	}
	m.kmu.Lock()
	for name, ks := range m.kernels {
		kt := KernelThroughput{Jobs: ks.jobs, Iterations: ks.iterations, WallNS: ks.wallNS,
			TilesDispatched: ks.dispatched, TilesSkipped: ks.skipped}
		if ks.wallNS > 0 {
			kt.ItersPerSec = float64(ks.iterations) / (float64(ks.wallNS) / 1e9)
		}
		s.Kernels[name] = kt
	}
	m.kmu.Unlock()
	return s
}
