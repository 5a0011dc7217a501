package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"easypap/internal/core"
	"easypap/internal/serve"
)

// ref is the seq reference of one config: the checksum and iteration
// count every variant must reproduce, and what the single-thread run
// took.
type ref struct {
	Checksum   string
	Iterations int
	Wall       time.Duration
	Err        error
}

// refConfig is the seq, single-thread, single-process twin of cfg.
func refConfig(cfg core.Config) core.Config {
	cfg.Variant = "seq"
	cfg.Threads = 1
	cfg.MPIRanks = 0
	cfg.NoDisplay = true
	return cfg
}

func refKey(cfg core.Config) string {
	h, err := refConfig(cfg).Hash()
	if err != nil {
		return "invalid:" + err.Error()
	}
	return h
}

// references computes the seq reference of every distinct config among
// the results, two at a time, after the measured phase.
func references(ctx context.Context, sets ...[]result) map[string]*ref {
	refs := map[string]*ref{}
	var todo []core.Config
	for _, results := range sets {
		for _, r := range results {
			k := refKey(*r.Op.Cfg)
			if _, ok := refs[k]; !ok {
				refs[k] = &ref{}
				todo = append(todo, *r.Op.Cfg)
			}
		}
	}
	work := make(chan core.Config)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for cfg := range work {
				out, err := core.RunWith(ctx, refConfig(cfg), core.RunOptions{})
				rf := refs[refKey(cfg)]
				if err != nil {
					rf.Err = err
					continue
				}
				rf.Checksum, rf.Iterations, rf.Wall = out.Result.Checksum, out.Result.Iterations, out.Result.WallTime
			}
		}()
	}
	for _, cfg := range todo {
		work <- cfg
	}
	close(work)
	wg.Wait()
	return refs
}

// verdict is the correctness check of one run.
type verdict struct {
	attempted, failed int
	// drift counts outcomes that differ from what the plan fixed: a tier
	// outcome or a count that depended on timing.
	drift   int
	reasons map[string]int
	// exact are the counts that must repeat exactly across runs of a
	// seed (see repeatCheck).
	exact map[string]int64
	// herds holds the tiers that answered each herd pair.
	herds map[*core.Config][]class
}

func (v *verdict) correct() bool { return v.failed == 0 && v.drift == 0 }

func (v *verdict) driftf(format string, args ...any) {
	v.drift++
	v.reasons["drift "+fmt.Sprintf(format, args...)]++
}

// verify checks every op: a done state, the checksum and iteration count
// of the seq reference, the tier the plan fixed, and for frames jobs both
// streams reassembled to that checksum, one record per iteration.
// Failures are counted, never dropped.
func verify(refs map[string]*ref, sets ...[]result) *verdict {
	v := &verdict{reasons: map[string]int{}, exact: map[string]int64{}, herds: map[*core.Config][]class{}}
	for _, results := range sets {
		for i := range results {
			v.add(&results[i], refs)
		}
	}
	// Both submissions of a herd pair must match the reference (checked
	// per op); the pair may compute once or twice: today it computes
	// twice, and a compute-level singleflight would answer the second
	// submission from the first run.
	for _, tiers := range v.herds {
		computes := 0
		for _, t := range tiers {
			switch t {
			case clsCompute:
				computes++
			case clsMem:
			default:
				v.driftf("herd answered by %s", t)
			}
		}
		if len(tiers) == 2 && (computes < 1 || computes > 2) {
			v.driftf("herd pair computed %d times", computes)
		}
	}
	return v
}

func (v *verdict) add(r *result, refs map[string]*ref) {
	v.attempted++
	var streamErr error
	if r.Op.Class == clsFrames && r.Err == "" {
		for _, s := range []*stream{r.Full, r.Delta} {
			if err := s.reassemble(); err != nil && streamErr == nil {
				streamErr = err
			}
		}
	}
	if reason := check(r, refs[refKey(*r.Op.Cfg)], streamErr); reason != "" {
		v.failed++
		v.reasons[reason]++
	}
	if r.Err != "" {
		return
	}
	if r.Op.Class == clsHerd {
		v.herds[r.Op.Cfg] = append(v.herds[r.Op.Cfg], r.Observed)
	} else {
		if r.Observed != expected(r.Op.Class) {
			v.driftf("%s->%s", r.Op.Class, r.Observed)
		}
		v.exact["answered."+string(r.Observed)]++
	}
	st := r.Status
	if st == nil || st.Result == nil {
		return
	}
	res := st.Result
	if want := plannedResume(r.Op); !st.Cached && res.ResumedFrom != want {
		v.driftf("%s resumed from %d, plan says %d", r.Op.Class, res.ResumedFrom, want)
	}
	if st.Cached {
		return
	}
	v.exact["computed_iters"] += int64(res.Iterations - res.ResumedFrom)
	v.exact["halos_sent"] += res.HalosSent
	v.exact["halos_skipped"] += res.HalosSkipped
	v.exact["halo_bytes"] += res.HaloBytes
	for _, a := range res.Activity {
		v.exact["active_tiles"] += int64(a.Active)
	}
	if r.frames() {
		v.exact["frames.full_records"] += int64(r.Full.Records)
		v.exact["frames.full_bytes"] += r.Full.Bytes
		v.exact["frames.delta_records"] += int64(r.Delta.Records)
		v.exact["frames.delta_keyframes"] += int64(r.Delta.Keyframes)
		v.exact["frames.delta_bytes"] += r.Delta.Bytes
	}
}

// plannedResume is the iteration a computed op must resume from: the
// first session's snapshot for resume ops, none otherwise.
func plannedResume(o *op) int {
	if o.Class == clsResume {
		return snapshotEvery
	}
	return 0
}

// counts checks the daemon's own counters over the phase against the
// plan: every tier must answer as often as planned, and no spill,
// snapshot or frame may be dropped. Herd pairs widen two ranges: a pair
// computes once or twice (see verify). Outside its range a count is
// drift: some outcome depended on timing.
func (v *verdict) counts(p *plan, before, after snap) {
	planned := map[class]int64{}
	var remote int64
	for c := range p.Clients {
		for _, o := range p.Clients[c] {
			planned[o.Class]++
			if o.Remote {
				remote++
			}
		}
	}
	pairs := planned[clsHerd] / 2
	computed := planned[clsCompute] + planned[clsHerd] + planned[clsShard] + planned[clsFrames] + planned[clsResume]
	stat := func(f func(serve.Stats) int64) int64 { return delta(before, after, f) }
	for _, c := range []struct {
		name        string
		got, lo, hi int64
	}{
		{"serve.hits_mem", stat(func(s serve.Stats) int64 { return s.CacheHits }), planned[clsMem], planned[clsMem] + pairs},
		{"serve.hits_disk", stat(func(s serve.Stats) int64 { return s.DiskHits }), planned[clsDisk], planned[clsDisk]},
		{"serve.resumed", stat(func(s serve.Stats) int64 { return s.SnapshotsResumed }), planned[clsResume], planned[clsResume]},
		{"serve.computed", stat(func(s serve.Stats) int64 { return s.Computed }), computed - pairs, computed},
		{"store.spill_drops", stat(func(s serve.Stats) int64 { return s.SpillDropped }), 0, 0},
		{"serve.frames_resynced", stat(func(s serve.Stats) int64 { return s.FrameDroppedToKey }), 0, 0},
		{"cluster.proxied", after.proxied - before.proxied, remote, remote},
	} {
		if c.got < c.lo || c.got > c.hi {
			v.driftf("%s=%d, plan says %d..%d", c.name, c.got, c.lo, c.hi)
		}
	}
}

// repeatCheck compares the exact counts with those of an earlier run of
// the same binary, workload, seed and length, kept in dir, and records
// them when there is none: counts the plan alone cannot predict (active
// tiles, halos, frame bytes) must still repeat exactly, and a difference
// is drift. An empty dir skips the check.
func (v *verdict) repeatCheck(dir string, p *plan, seed int64, seconds int) error {
	if dir == "" {
		return nil
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	bin, err := os.ReadFile(exe)
	if err != nil {
		return err
	}
	sum := sha256.Sum256(bin)
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-%ds-%x.json", p.Workload, seed, seconds, sum[:6]))
	if data, err := os.ReadFile(path); err == nil {
		var earlier map[string]int64
		if err := json.Unmarshal(data, &earlier); err != nil {
			return err
		}
		for _, k := range sortedKeys(v.exact, earlier) {
			if v.exact[k] != earlier[k] {
				v.driftf("%s=%d, an earlier run of this seed counted %d", k, v.exact[k], earlier[k])
			}
		}
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(v.exact)
	if err != nil {
		return err
	}
	tmp := fmt.Sprintf("%s.%d", path, os.Getpid())
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

func sortedKeys[K ~string, V any](ms ...map[K]V) []K {
	seen := map[K]bool{}
	var keys []K
	for _, m := range ms {
		for k := range m {
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// check returns why an op failed, or "".
func check(r *result, rf *ref, streamErr error) string {
	switch {
	case r.Err != "":
		return "error: " + firstWords(r.Err)
	case rf == nil || rf.Err != nil:
		return "no seq reference"
	case r.Status.Result == nil:
		return "done without a result"
	case r.Status.Result.Checksum != rf.Checksum:
		return fmt.Sprintf("checksum mismatch vs seq: %s/%s", r.Op.Cfg.Kernel, r.Op.Cfg.Variant)
	case !r.frames() && r.Status.Result.Iterations != rf.Iterations:
		// Frames jobs run in display mode, which runs every requested
		// iteration where performance mode stops at convergence; their
		// count is checked against their streams below.
		return fmt.Sprintf("%s/%s ran %d iterations, seq %d", r.Op.Cfg.Kernel, r.Op.Cfg.Variant, r.Status.Result.Iterations, rf.Iterations)
	case r.Op.Class == clsShard && r.Status.Shards != r.Op.Shards:
		return fmt.Sprintf("ran on %d shards, not %d", r.Status.Shards, r.Op.Shards)
	}
	if r.frames() {
		if streamErr != nil {
			return "frames: " + firstWords(streamErr.Error())
		}
		if r.Full.Checksum != rf.Checksum || r.Delta.Checksum != rf.Checksum {
			return "frames: reassembled stream differs from the seq reference"
		}
		// One record per computed iteration in either format.
		if n := r.Status.Result.Iterations - r.Status.Result.ResumedFrom; r.Full.Records != n || r.Delta.Records != n {
			return fmt.Sprintf("frames: %d full and %d delta records for %d iterations", r.Full.Records, r.Delta.Records, n)
		}
	}
	return ""
}

func firstWords(s string) string {
	if len(s) > 60 {
		return s[:60]
	}
	return s
}

// print writes the verdict to standard error: failures by reason, any
// drift loudly, and the exact counts.
func (v *verdict) print(workload string, seed int64) {
	for _, k := range sortedKeys(v.reasons) {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d× %s\n", workload, v.reasons[k], k)
	}
	if v.drift > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: DRIFT: %d outcomes of %s seed %d differ from the plan or an earlier run of the seed; an outcome depended on timing\n",
			v.drift, workload, seed)
	}
	fmt.Fprintf(os.Stderr, "perfbench: exact")
	for _, k := range sortedKeys(v.exact) {
		fmt.Fprintf(os.Stderr, " %s=%d", k, v.exact[k])
	}
	fmt.Fprintln(os.Stderr)
}
