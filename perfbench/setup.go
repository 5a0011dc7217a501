package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"easypap/internal/core"
	"easypap/internal/serve/client"
)

// setup brings the workload's deployment up in a fresh directory and
// does the workload's set-up work: warm-up jobs, and for warm_sweep the
// first session, a drained shutdown and a restart on the same store.
// The first set-up is timed from process start.
func (b *bench) setup(ctx context.Context, i int) (*deployment, time.Duration, error) {
	t0 := time.Now()
	if i == 0 {
		t0 = processStart
	}
	dir := b.setupDir(i)
	if err := os.RemoveAll(dir); err != nil {
		return nil, 0, err
	}
	var dp *deployment
	var err error
	switch b.p.Workload {
	case "cluster_hop":
		dp, err = startCluster([2]string{filepath.Join(dir, "a"), filepath.Join(dir, "b")}, b.spans)
	case "warm_sweep":
		dp, err = startSingle(dir, nil)
		if err == nil {
			err = firstSession(ctx, dp, b.p.FirstPass)
			dp.close()
		}
		if err == nil {
			dp, err = startSingle(dir, b.spans)
		}
	default:
		dp, err = startSingle(dir, b.spans)
	}
	if err != nil {
		return nil, 0, err
	}
	if err := runAll(ctx, dp, b.p.Warmup); err != nil {
		dp.close()
		return nil, 0, err
	}
	return dp, time.Since(t0), nil
}

func (b *bench) setupDir(i int) string { return filepath.Join(b.work, fmt.Sprintf("setup%d", i)) }

func asOps(cfgs []core.Config) []op {
	out := make([]op, len(cfgs))
	for i := range cfgs {
		out[i] = op{Cfg: &cfgs[i], Class: clsCompute, Gate: -1}
	}
	return out
}

// firstSession computes warm_sweep's first session in batches that the
// manager's 256-deep spill queue can hold (each config queues a result
// and at most one snapshot), waiting after each batch until the spiller
// has written every result, and with them the snapshots queued before:
// a full queue drops writes, and a dropped write would turn a planned
// disk hit or resume into a compute.
func firstSession(ctx context.Context, dp *deployment, cfgs []core.Config) error {
	const batch = 100
	mgr := dp.daemons[0].mgr
	for i := 0; i < len(cfgs); i += batch {
		if err := runAll(ctx, dp, asOps(cfgs[i:min(i+batch, len(cfgs))])); err != nil {
			return err
		}
		deadline := time.Now().Add(10 * time.Second)
		for {
			s := mgr.Stats()
			if s.SpillDropped+s.SpillErrors > 0 {
				return fmt.Errorf("first session: %d spills dropped, %d failed", s.SpillDropped, s.SpillErrors)
			}
			if s.Spills >= s.Computed {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("first session: %d of %d results written after 10s", s.Spills, s.Computed)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}

// settle waits, at most timeout, until the spiller of every daemon of dp
// has dealt with every result it computed, then collects the heap, so
// the viewer probe starts from the same state on every run. Dropped or
// failed spills are the counters' business (verdict.counts), not its.
func settle(dp *deployment, timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	for _, d := range dp.daemons {
		for time.Now().Before(deadline) {
			s := d.mgr.Stats()
			if s.Spills+s.SpillDropped+s.SpillErrors >= s.Computed {
				break
			}
			time.Sleep(time.Millisecond)
		}
	}
	runtime.GC()
}

// runAll runs set-up ops closed-loop over both connections, frames
// jobs (which use both) last, and requires each to finish.
func runAll(ctx context.Context, dp *deployment, ops []op) error {
	var plain, frames []op
	for _, o := range ops {
		if o.Class == clsFrames {
			frames = append(frames, o)
		} else {
			plain = append(plain, o)
		}
	}
	rn := newRunner(dp)
	defer rn.close()
	for _, lists := range [][2][]op{split(plain), {frames, nil}} {
		res, _ := rn.phase(ctx, lists, false)
		for _, r := range res {
			if r.Err != "" {
				return fmt.Errorf("set-up job %s/%s: %s", r.Op.Cfg.Kernel, r.Op.Cfg.Variant, r.Err)
			}
		}
	}
	return nil
}

// warmProcess is the throwaway process run.py starts after a fresh
// build: the first process on a new binary runs markedly slower, so
// that run is taken here and reported instead of measured.
func warmProcess(work string) error {
	p, err := makePlan("cold_sweep", 0, 1)
	if err != nil {
		return err
	}
	dp, err := startSingle(filepath.Join(work, "warm"), nil)
	if err != nil {
		return err
	}
	defer dp.close()
	return runAll(context.Background(), dp, p.Warmup)
}

// pollProbe measures what a polling client loses: for fresh jobs it
// races client.Wait (20 ms ticker) against Manager.Wait and returns the
// difference of their return times, in ms. It runs after the measured
// phase and feeds only client.poll_wait_ms.
func pollProbe(ctx context.Context, rn *runner, p *plan) []float64 {
	g := newGen(p.Workload+"/poll", -1)
	cl := &client.Client{Base: rn.dp.base, HTTP: rn.conns[0]}
	var out []float64
	for i := 0; i < 8; i++ {
		cfg := g.config(shape{"mandel", "omp_tiled", "", 128, 16, 3})
		st, err := cl.Submit(ctx, cfg, false)
		if err != nil || st.State.Terminal() {
			continue
		}
		mgr, local := rn.dp.managerFor(st.ID)
		done := make(chan time.Time, 1)
		go func() {
			_, _ = mgr.Wait(ctx, local)
			done <- time.Now()
		}()
		if _, err := cl.Wait(ctx, st.ID); err != nil {
			<-done
			continue
		}
		polled := time.Now()
		out = append(out, ms(polled.Sub(<-done)))
	}
	return out
}
