package main

import (
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"easypap/internal/core"
	"easypap/internal/serve"
)

func TestPlanDeterministicPerSeed(t *testing.T) {
	for _, w := range workloadNames {
		a, err := makePlan(w, 7, 2)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := makePlan(w, 7, 2)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two plans of seed 7 differ", w)
		}
		c, _ := makePlan(w, 8, 2)
		if reflect.DeepEqual(a.Clients, c.Clients) {
			t.Errorf("%s: seeds 7 and 8 give the same measured list", w)
		}
	}
}

// Every seed submits the same mix: only kernel seeds, the order, and
// which finished config a repeat re-reads differ.
func TestPlanMixIndependentOfSeed(t *testing.T) {
	mix := func(p *plan) map[string]int {
		m := map[string]int{}
		for c := range p.Clients {
			for _, o := range p.Clients[c] {
				k := fmt.Sprintf("%s remote=%v", o.Class, o.Remote)
				if o.Class != clsMem {
					k += fmt.Sprintf(" %s/%s/%s %d %d %d", o.Cfg.Kernel, o.Cfg.Variant, o.Cfg.Arg,
						o.Cfg.Dim, o.Cfg.Iterations, o.Shards)
				}
				m[k]++
			}
		}
		return m
	}
	for _, w := range workloadNames {
		a, _ := makePlan(w, 1, 2)
		b, _ := makePlan(w, 2, 2)
		if !reflect.DeepEqual(mix(a), mix(b)) {
			t.Errorf("%s: seeds 1 and 2 submit different mixes", w)
		}
	}
}

// No tier answer of warm_sweep depends on how the two connections
// interleave. A memory repeat re-reads the config its own connection
// submitted just before, so at most a few configs enter the 128-entry
// memory tier in between. A disk hit after the first round comes after
// its own connection alone has touched at least 128 other configs, so
// the entry has left the memory tier. A resume is a config never
// submitted before whose 64-iteration prefix the first session
// computed. Only herd configs are sent on both connections.
func TestWarmTiersIndependentOfInterleaving(t *testing.T) {
	p, err := makePlan("warm_sweep", 3, 6)
	if err != nil {
		t.Fatal(err)
	}
	hash := func(cfg core.Config) string {
		h, err := cfg.Hash()
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	firstPass := map[string]bool{}
	for _, cfg := range p.FirstPass {
		firstPass[hash(cfg)] = true
	}
	conn := map[string]int{}
	for c := range p.Clients {
		last := map[string]int{} // position of each config's latest submission
		var news []int           // news[i]: submissions before position i that were not repeats
		n := 0
		for i, o := range p.Clients[c] {
			news = append(news, n)
			if o.Class != clsMem {
				n++
			}
			h := hash(*o.Cfg)
			if prev, ok := conn[h]; ok && prev != c && o.Class != clsHerd {
				t.Fatalf("connection %d op %d: %s config also sent on connection %d", c, i, o.Class, prev)
			}
			conn[h] = c
			prev, seen := last[h]
			last[h] = i
			switch o.Class {
			case clsMem:
				if !seen || prev != i-1 {
					t.Fatalf("connection %d op %d: repeat does not follow its config's previous submission", c, i)
				}
			case clsDisk:
				if !firstPass[h] {
					t.Fatalf("connection %d op %d: disk op not computed by the first session", c, i)
				}
				// Every non-repeat between two submissions of a config is a
				// distinct other config.
				if seen && news[i]-news[prev]-1 < 128 {
					t.Fatalf("connection %d op %d: only %d other configs since the last submission", c, i, news[i]-news[prev]-1)
				}
			case clsResume:
				base := *o.Cfg
				base.Iterations = snapshotEvery
				if seen || !firstPass[hash(base)] {
					t.Fatalf("connection %d op %d: resume op is not a fresh deepening of a first-session config", c, i)
				}
			}
		}
	}
}

// The daemon receives only generated configs: every job it holds after
// a run hashes to a config of the plan.
func TestDaemonReceivesOnlyGeneratedConfigs(t *testing.T) {
	p, err := makePlan("live_frames", 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	planned := map[string]bool{}
	for _, o := range append(append([]op(nil), p.Warmup...), p.Clients[0]...) {
		_, h, err := serve.NormalizeSubmission(*o.Cfg, o.Class == clsFrames)
		if err != nil {
			t.Fatal(err)
		}
		planned[h] = true
	}
	dp, err := startSingle(filepath.Join(t.TempDir(), "d"), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer dp.close()
	if err := runAll(context.Background(), dp, p.Warmup); err != nil {
		t.Fatal(err)
	}
	rn := newRunner(dp)
	defer rn.close()
	res, _ := rn.phase(context.Background(), p.Clients, false)
	for _, r := range res {
		if r.Err != "" {
			t.Fatalf("op failed: %s", r.Err)
		}
	}
	n := 0
	for id := 1; ; id++ {
		st, err := dp.daemons[0].mgr.Get(fmt.Sprintf("j-%06d", id))
		if err != nil {
			break
		}
		n++
		if !planned[st.Hash] {
			t.Errorf("job %s ran a config the generator did not make: %+v", st.ID, st.Config)
		}
	}
	if want := len(p.Warmup) + len(p.Clients[0]); n != want {
		t.Errorf("daemon holds %d jobs, plan has %d", n, want)
	}
}
