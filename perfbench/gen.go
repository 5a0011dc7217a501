package main

import (
	"fmt"
	"math"
	"math/rand/v2"

	"easypap/internal/core"
	"easypap/internal/serve/cluster"
)

// class is the tier that must answer an operation. The generator fixes
// it from the seed; the benchmark checks that the daemon answered from that
// tier, so a tier outcome that depends on timing shows as drift instead
// of as noise.
type class string

const (
	clsCompute class = "compute" // new config: every cache tier misses
	clsMem     class = "mem"     // repeat of a config this connection already finished
	clsDisk    class = "disk"    // first touch of a config computed before the restart
	clsResume  class = "resume"  // deeper resubmission: prefix snapshot plus a short suffix
	clsHerd    class = "herd"    // one new config sent on both connections at once
	clsFrames  class = "frames"  // frames job watched by a full and a delta viewer
	clsShard   class = "shard"   // shards:2 mpi_omp job split across the cluster
)

// op is one submission of the measured phase.
type op struct {
	Cfg    *core.Config `json:"config"`
	Class  class        `json:"class"`
	Shards int          `json:"shards,omitempty"`
	// Gate numbers the rendezvous both connections pass before this op
	// (-1 for none): a herd pair submits right after its gate, and
	// cluster_hop's rounds start at one.
	Gate int `json:"gate"`
	// Remote is set on cluster_hop ops whose ring owner is the node the
	// client does not talk to, so the entry node proxies them.
	Remote bool `json:"remote,omitempty"`
}

// plan is everything a workload submits, fixed by (workload, seed,
// seconds) alone.
type plan struct {
	Workload string
	// Warmup runs during set-up, before the measured phase, and is not
	// on the measured list.
	Warmup []op
	// FirstPass is warm_sweep's first session, computed during set-up
	// before the daemon restarts.
	FirstPass []core.Config
	// Clients holds the op list of each connection. live_frames uses
	// only Clients[0]: each of its jobs occupies both connections.
	Clients [2][]op
	// Probe holds the frames jobs that give the frame metrics on
	// workloads whose measured phase has none; they run after the phase
	// and count in no other metric.
	Probe []op
}

// family is one kernel of the study with its parameter ranges.
type family struct {
	kernel   string
	variants []string
	args     []string
	// msPerIter is the measured wall time of one iteration at 128², two
	// threads, on a 2-vCPU Xeon; it sizes iteration counts so that jobs
	// cost about the same.
	msPerIter float64
	// maxIters caps those iteration counts.
	maxIters int
}

var families = []family{
	{"life", []string{"seq", "omp_tiled", "lazy", "bitpack", "mpi_omp"}, []string{"random", "diag"}, 1.0, 200},
	// fire asks for at most one snapshot interval. Its forest boards burn
	// out between iterations 128 and 260 at 128², and a board whose first
	// unchanged iteration falls on a snapshot boundary before the last
	// requested one reports one iteration more under SnapshotEvery than
	// seq does without it (the chunked run loop counts a second unchanged
	// iteration; see README, Correctness).
	{"fire", []string{"seq", "omp_tiled", "lazy", "mpi_omp"}, []string{"forest", "sparse"}, 0.27, snapshotEvery},
	{"sandpile", []string{"seq", "omp_tiled", "lazy_omp", "mpi_omp"}, []string{""}, 0.3, 200},
	// asandpile runs seq only. Its omp_tiled and lazy_omp variants topple
	// in place with atomics, so a board that has not converged depends on
	// thread interleaving and differs from seq's (ROADMAP, first open
	// item); every op a workload submits must succeed, so they join the
	// mix once they are deterministic.
	{"asandpile", []string{"seq"}, []string{""}, 0.75, 200},
	{"mandel", []string{"seq", "omp_tiled", "omp"}, []string{""}, 7.3, 200},
	{"blur", []string{"seq", "omp_tiled", "omp_tiled_opt"}, []string{""}, 0.9, 200},
}

func familyOf(kernel string) family {
	for _, f := range families {
		if f.kernel == kernel {
			return f
		}
	}
	panic("perfbench: no family " + kernel)
}

// shape is a config without its seed: what a workload's mix is made of.
type shape struct {
	kernel, variant, arg string
	dim, tile, iters     int
}

// shapes lists every kernel × variant × argument × size of the study at
// the given sizes (tile 16 up to 128², 32 at 256²), sized to cost about
// targetMs.
func shapes(dims []int, targetMs float64) []shape {
	var out []shape
	for _, f := range families {
		for _, v := range f.variants {
			for _, a := range f.args {
				for _, d := range dims {
					tile := 16
					if d >= 256 {
						tile = 32
					}
					out = append(out, shape{f.kernel, v, a, d, tile, iters(f, d, targetMs, 1, f.maxIters)})
				}
			}
		}
	}
	return out
}

// frameShapes are the lazy kernels whose variants report dirty tiles,
// so their delta streams shrink, at the given iteration counts.
func frameShapes(iterations ...int) []shape {
	var out []shape
	for _, it := range iterations {
		out = append(out,
			shape{"life", "lazy", "diag", 128, 16, it},
			shape{"life", "lazy", "random", 128, 16, it},
			shape{"fire", "lazy", "forest", 128, 16, it},
			shape{"sandpile", "lazy_omp", "", 128, 16, it})
	}
	return out
}

// Workload names, in the order BENCHMARK.json lists them.
var workloadNames = []string{"cold_sweep", "warm_sweep", "live_frames", "cluster_hop"}

// gen draws configs for one plan. Every config it returns has a seed
// no other config of the plan has, so no two share an iteration prefix
// unless the plan makes them (resume ops).
type gen struct {
	rng      *rand.Rand
	nextSeed int64
}

func newGen(workload string, seed int64) *gen {
	salt := uint64(0)
	for _, c := range workload {
		salt = salt*131 + uint64(c)
	}
	return &gen{rng: rand.New(rand.NewPCG(uint64(seed), salt)), nextSeed: seed*100000 + 1}
}

func (g *gen) pick(n int) int { return g.rng.IntN(n) }

// balanced returns n copies of the shapes in an order shuffled by the
// seed: every seed submits the same mix, only the kernels' seeds and
// the order change, so the mix itself adds no run-to-run spread.
func (g *gen) balanced(ss []shape, n int) []shape {
	var out []shape
	for i := 0; i < n; i++ {
		out = append(out, ss...)
	}
	g.rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// copies is how many copies of a mix of n shapes come closest to total.
func copies(total float64, n int) int {
	return max(1, int(math.Round(total/float64(n))))
}

// config turns a shape into a config with a fresh seed: parallel
// variants use two threads, seq one, and mpi_omp two ranks of one
// thread, so no job uses more than two threads.
func (g *gen) config(s shape) core.Config {
	cfg := core.Config{
		Kernel: s.kernel, Variant: s.variant, Arg: s.arg, Dim: s.dim, TileW: s.tile, TileH: s.tile,
		Iterations: s.iters, Threads: 2, Seed: g.nextSeed, Label: "perfbench",
	}
	g.nextSeed++
	switch s.variant {
	case "seq":
		cfg.Threads = 1
	case "mpi_omp":
		cfg.Threads = 1
		cfg.MPIRanks = 2
	}
	return cfg
}

// iters sizes a job to cost about targetMs.
func iters(f family, dim int, targetMs float64, lo, hi int) int {
	scale := float64(dim*dim) / (128 * 128)
	n := int(math.Round(targetMs / (f.msPerIter * scale)))
	return max(lo, min(hi, n))
}

func (g *gen) ops(ss []shape, c class) []op {
	out := make([]op, len(ss))
	for i, s := range ss {
		cfg := g.config(s)
		out[i] = op{Cfg: &cfg, Class: c, Gate: -1}
	}
	return out
}

// split deals items alternately to the two connections.
func split[T any](xs []T) [2][]T {
	var out [2][]T
	for i, x := range xs {
		out[i%2] = append(out[i%2], x)
	}
	return out
}

// makePlan builds the plan of a workload. seconds scales the measured
// list so the phase lasts about that long on a 2-vCPU box; the same
// (workload, seed, seconds) always yields the same plan.
func makePlan(workload string, seed int64, seconds int) (*plan, error) {
	g := newGen(workload, seed)
	p := &plan{Workload: workload}
	s := float64(seconds)
	// One job of every shape at 128² and 256²: set-up is real work, and
	// the measured phase starts on warm code paths.
	warmup := func() []op { return g.ops(shapes([]int{128, 256}, 30), clsCompute) }
	// The viewer probe is one shape, so its frame metrics do not depend
	// on which kernel's jobs land in the middle of a mix; at 256² the
	// first frame is mostly rendering and encoding, not scheduling jitter.
	probe := func() []op {
		return g.ops(g.balanced([]shape{{"life", "lazy", "random", 256, 32, 6}}, 16), clsFrames)
	}
	switch workload {
	case "cold_sweep":
		p.Warmup = warmup()
		mix := shapes([]int{128, 256}, 80)
		p.Clients = split(g.ops(g.balanced(mix, copies(62*s, len(mix))), clsCompute))
		p.Probe = probe()
	case "warm_sweep":
		warmPlan(g, p, s)
		p.Probe = probe()
	case "live_frames":
		p.Warmup = append(warmup(), g.ops(frameShapes(16), clsFrames)...)
		mix := frameShapes(8, 12, 16, 20)
		p.Clients[0] = g.ops(g.balanced(mix, copies(34*s, len(mix))), clsFrames)
	case "cluster_hop":
		if err := clusterPlan(g, p, s); err != nil {
			return nil, err
		}
		p.Warmup = warmup()
		p.Probe = probe()
	default:
		return nil, fmt.Errorf("unknown workload %q (have %v)", workload, workloadNames)
	}
	return p, nil
}

// The shape of warm_sweep's study. expt.Sweep runs every combination
// Runs times in a row (its innermost loop) so that plot-time min/mean
// aggregation has several rows per point; the study uses Runs = 3.
const (
	warmRuns = 3
	// warmCombos is each connection's half of the study's plain
	// combinations: far more than the memory tier's 128 entries, so a
	// combination's first run in each round is a disk hit whatever the
	// other connection does.
	warmCombos = 1000
	// warmChains is each connection's number of deepening chains: codec
	// kernel combinations whose iteration count grows by warmStep per
	// round, starting from the 64 iterations of the first session.
	warmChains = 60
	warmStep   = 2
	// warmRoundsPerSecond sizes the phase: one round of one connection
	// (3,156 submissions) takes about half a second on a 2-vCPU Xeon.
	warmRoundsPerSecond = 2
	herds               = 24
)

// warmPlan builds warm_sweep, the study's second session after a
// restart. Set-up computes the first session: every plain combination
// once and every chain at 64 iterations, which leaves a snapshot at 64.
// The measured phase executes the sweep once per round, as a deepening
// study re-runs its script with one more iteration count each time; per
// connection and round it submits, warmRuns times in a row each:
//   - every plain combination of the connection's half: the first run is
//     a disk hit (after the restart, and in later rounds because the
//     connection has touched more than 128 other configs since), the
//     others are memory hits;
//   - every chain, warmStep iterations deeper than in the previous round:
//     the first run resumes from the snapshot at 64 and computes only the
//     suffix, the others are memory hits.
//
// Herd pairs, one new config sent on both connections at once, are
// spread over the phase. Repeats only ever re-read the config their own
// connection submitted just before, so no answer depends on how the two
// connections interleave.
func warmPlan(g *gen, p *plan, s float64) {
	// Chains stay below the next snapshot at 128, so every deeper run
	// resumes from 64.
	rounds := max(1, min(int(math.Round(warmRoundsPerSecond*s)), (snapshotEvery-1)/warmStep))

	// Plain combinations: every shape at 32² and 64², a fraction of a
	// millisecond of compute each.
	mix := shapes([]int{32, 64}, 0.5)
	plain := split(g.ops(g.balanced(mix, copies(2*warmCombos, len(mix))), clsDisk))
	// Chains are boards still active at iteration 64 (a run that
	// converges earlier writes no snapshot), run single-process so they
	// snapshot: sandpile and asandpile at 32² topple for 342 and 187
	// iterations; random life boards die early at 32² (2 seeds in 300
	// before 64) but not at 64² (none in 300).
	bases := []shape{{"asandpile", "seq", "", 32, 16, snapshotEvery}}
	for _, v := range []string{"seq", "omp_tiled"} {
		bases = append(bases,
			shape{"life", v, "random", 64, 16, snapshotEvery},
			shape{"sandpile", v, "", 32, 16, snapshotEvery})
	}
	chains := split(g.ops(g.balanced(bases, copies(2*warmChains, len(bases))), clsResume))
	for c := range p.Clients {
		for _, ops := range [][]op{plain[c], chains[c]} {
			for _, o := range ops {
				p.FirstPass = append(p.FirstPass, *o.Cfg)
			}
		}
	}
	// Herd jobs compute for about 40 ms, far longer than the gap between
	// the two submits. They are all one shape, so the tail percentile,
	// which falls among them, does not depend on which kernels a seed
	// puts there.
	herdShape := shape{"mandel", "omp_tiled", "", 128, 16, iters(familyOf("mandel"), 128, 40, 1, 63)}
	herd := g.ops(g.balanced([]shape{herdShape}, herds), clsHerd)

	for c := range p.Clients {
		// The connection's sweep order is fixed for the session, as a
		// script's nested loops are.
		order := append(append([]op(nil), plain[c]...), chains[c]...)
		g.rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		var list []op
		for round := 1; round <= rounds; round++ {
			for _, o := range order {
				if o.Class == clsResume {
					deeper := *o.Cfg
					deeper.Iterations += warmStep * round
					o.Cfg = &deeper
				}
				list = append(list, o)
				for r := 1; r < warmRuns; r++ {
					list = append(list, op{Cfg: o.Cfg, Class: clsMem, Gate: -1})
				}
			}
		}
		// Herd h goes after the (h+1)/(herds+1) share of the list, at the
		// end of a combination's runs, on both connections.
		var out []op
		next := 0
		for h := 0; h < herds; h++ {
			at := len(list) * (h + 1) / (herds + 1)
			for at < len(list) && list[at].Class == clsMem {
				at++
			}
			out = append(out, list[next:at]...)
			o := herd[h]
			o.Gate = h
			out = append(out, o)
			next = at
		}
		p.Clients[c] = append(out, list[next:]...)
	}
}

// clusterPlan builds cluster_hop in rounds. In each round both
// connections first compute new configs, one owned by the entry node and
// one by the remote node (plus a sharded life job every third round),
// then, after a rendezvous, re-read configs they finished recently:
// eight of the entry's, two of the remote's. Repeats therefore never
// share the CPUs with a compute, so the median, which falls among
// them, measures the cache path rather than CPU contention. Node ids
// are fixed (see clusterURLs), so the ring is known here: a shape draws
// seeds until the required node owns it, which fixes how many
// submissions the entry node proxies.
func clusterPlan(g *gen, p *plan, s float64) error {
	ring := cluster.NewRing([]string{cluster.NodeID(clusterURLs[0]), cluster.NodeID(clusterURLs[1])}, cluster.DefaultVirtualNodes)
	remoteID := cluster.NodeID(clusterURLs[1])
	owned := func(sh shape, remote bool) (core.Config, error) {
		for try := 0; try < 64; try++ {
			cfg := g.config(sh)
			_, _, key, err := cluster.RouteKey(cfg, false)
			if err != nil {
				return cfg, err
			}
			if (ring.Owner(key) == remoteID) == remote {
				return cfg, nil
			}
		}
		return core.Config{}, fmt.Errorf("cluster_hop: no %s/%s config owned by the wanted node in 64 draws", sh.kernel, sh.variant)
	}
	const (
		shardEvery = 3
		// Repeats draw from this connection's last few configs: far
		// fewer than the 128-entry memory tier, so no repeat can find its
		// entry evicted however the two connections interleave.
		window = 8
	)
	// Every shape is owned as often by the entry node as by the remote
	// one, so the proxied share of each kernel is the same for every seed.
	mix := shapes([]int{128}, 60)
	half := copies(32*s, len(mix))
	news := [2][]shape{g.balanced(mix, half), g.balanced(mix, half)} // entry-owned, remote-owned
	shard := shape{"life", "mpi_omp", "random", 128, 16, 32}
	var local, remote [2][]*core.Config
	recent := func(cs []*core.Config) *core.Config {
		return cs[max(0, len(cs)-window)+g.pick(min(window, len(cs)))]
	}
	gate := 0
	for round := 0; len(news[0]) >= 2; round++ {
		for c := 0; c < 2; c++ {
			for k, isRemote := range []bool{false, true} {
				cfg, err := owned(news[k][0], isRemote)
				if err != nil {
					return err
				}
				news[k] = news[k][1:]
				o := op{Cfg: &cfg, Class: clsCompute, Gate: -1, Remote: isRemote}
				if k == 0 {
					o.Gate = gate
				}
				p.Clients[c] = append(p.Clients[c], o)
				if isRemote {
					remote[c] = append(remote[c], &cfg)
				} else {
					local[c] = append(local[c], &cfg)
				}
			}
			if round%shardEvery == shardEvery-1 {
				isRemote := (round/shardEvery+c)%2 == 1
				cfg, err := owned(shard, isRemote)
				if err != nil {
					return err
				}
				p.Clients[c] = append(p.Clients[c], op{Cfg: &cfg, Class: clsShard, Shards: 2, Gate: -1, Remote: isRemote})
			}
		}
		gate++
		for c := 0; c < 2; c++ {
			for j := 0; j < 10; j++ {
				o := op{Cfg: recent(local[c]), Class: clsMem, Gate: -1}
				if j >= 8 {
					o = op{Cfg: recent(remote[c]), Class: clsMem, Gate: -1, Remote: true}
				}
				if j == 0 {
					o.Gate = gate
				}
				p.Clients[c] = append(p.Clients[c], o)
			}
		}
		gate++
	}
	return nil
}

// clusterURLs are the advertised base URLs of cluster_hop's two nodes.
// They are fixed so that node ids, and with them ring ownership, are
// the same on every run; the benchmark's dialer maps them onto the
// loopback listeners the nodes actually bind.
var clusterURLs = [2]string{"http://127.0.0.1:1", "http://127.0.0.1:2"}
