package kernels

// Golden regression for the stencil kernels: for every life, fire and
// sandpile variant and for asandpile seq, at two seeds, plus uneven
// 3-rank band decompositions, it pins the final checksum, the iteration
// count, the frontier activity series, the halo counters and the SHA-256
// of every EZK1 snapshot. Anything that reorganizes the stencil plumbing
// must reproduce the file byte for byte.
//
// Regenerate only after an intentional behaviour change:
//
//	go test ./internal/kernels/ -run TestStencilGolden -update

import (
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"easypap/internal/core"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

const stencilGoldenPath = "testdata/stencil.golden"

// goldenEvery is the snapshot cadence of the checkpointed runs.
const goldenEvery = 8

// goldenCase is one pinned configuration.
type goldenCase struct {
	kernel, variant, arg string
	ranks                int
	seed                 int64
}

func (c goldenCase) name() string {
	return fmt.Sprintf("%s/%s/%s/np%d/seed%d", c.kernel, c.variant, c.arg, c.ranks, c.seed)
}

func (c goldenCase) config() core.Config {
	return core.Config{Kernel: c.kernel, Variant: c.variant, Arg: c.arg, Dim: 64, TileW: 8, TileH: 8,
		Iterations: 24, Threads: 2, Seed: c.seed, MPIRanks: c.ranks, NoDisplay: true}
}

func goldenCases() []goldenCase {
	var cases []goldenCase
	for _, kv := range []struct {
		kernel   string
		variants []string
		args     []string // the default pattern first, then a sparse one
	}{
		{"life", []string{"seq", "omp_tiled", "lazy", "bitpack", "mpi_omp"}, []string{"random", "diag"}},
		{"fire", []string{"seq", "omp_tiled", "lazy", "mpi_omp"}, []string{"forest", "sparse"}},
		{"sandpile", []string{"seq", "omp_tiled", "lazy_omp", "mpi_omp"}, []string{""}},
		{"asandpile", []string{"seq"}, []string{""}},
	} {
		for _, v := range kv.variants {
			ranks := 1
			if v == "mpi_omp" {
				ranks = 2
			}
			for _, seed := range []int64{3, 11} {
				cases = append(cases, goldenCase{kv.kernel, v, kv.args[0], ranks, seed})
			}
			if len(kv.args) > 1 {
				cases = append(cases, goldenCase{kv.kernel, v, kv.args[1], ranks, 3})
			}
		}
	}
	// 64/8 = 8 tile rows over 3 ranks: bands of 3, 3 and 2 tile rows.
	for _, k := range []string{"life", "fire", "sandpile"} {
		cases = append(cases, goldenCase{k, "mpi_omp", "", 3, 3})
	}
	cases = append(cases, goldenCase{"life", "mpi_omp", "diag", 3, 3})
	return cases
}

// snapshotRun runs cfg with SnapshotEvery set and returns the output and
// every snapshot, keyed by iteration.
func snapshotRun(t *testing.T, cfg core.Config, every int) (*core.RunOutput, map[int][]byte) {
	t.Helper()
	snaps := make(map[int][]byte)
	out, err := core.RunWith(context.Background(), cfg, core.RunOptions{
		SnapshotEvery: every,
		OnSnapshot: func(iter int, state []byte) {
			snaps[iter] = append([]byte(nil), state...)
		},
	})
	if err != nil {
		t.Fatalf("running %s/%s: %v", cfg.Kernel, cfg.Variant, err)
	}
	return out, snaps
}

// goldenBlock renders one case: the straight run's observables, then the
// hash of each snapshot of the checkpointed run (which must agree with
// the straight run on checksum and iteration count).
func goldenBlock(t *testing.T, c goldenCase) string {
	t.Helper()
	cfg := c.config()
	out := runWith(t, cfg, core.RunOptions{})
	r := out.Result
	var b strings.Builder
	fmt.Fprintf(&b, "case %s\n", c.name())
	fmt.Fprintf(&b, "  iterations %d\n", r.Iterations)
	fmt.Fprintf(&b, "  checksum %s\n", r.Checksum)
	fmt.Fprintf(&b, "  halos sent=%d skipped=%d bytes=%d\n", r.HalosSent, r.HalosSkipped, r.HaloBytes)
	b.WriteString("  activity")
	for _, a := range r.Activity {
		fmt.Fprintf(&b, " %d:%d/%d", a.Iter, a.Active, a.Total)
	}
	b.WriteString("\n")

	ck, snaps := snapshotRun(t, cfg, goldenEvery)
	if ck.Result.Checksum != r.Checksum || ck.Result.Iterations != r.Iterations {
		t.Errorf("%s: checkpointed run gave %d iterations / %.12s, straight run %d / %.12s",
			c.name(), ck.Result.Iterations, ck.Result.Checksum, r.Iterations, r.Checksum)
	}
	for it := goldenEvery; it <= cfg.Iterations; it += goldenEvery {
		if s, ok := snaps[it]; ok {
			fmt.Fprintf(&b, "  snapshot %d %x\n", it, sha256.Sum256(s))
		}
	}
	return b.String()
}

func TestStencilGolden(t *testing.T) {
	cases := goldenCases()
	names := make([]string, len(cases))
	got := make([]string, len(cases))
	for i, c := range cases {
		names[i], got[i] = c.name(), goldenBlock(t, c)
	}
	checkGolden(t, stencilGoldenPath, names, got)
}

// checkGolden compares each case's block with the one stored under its
// name in path (blocks open with a "case <name>" line), or rewrites the
// file from got under -update.
func checkGolden(t *testing.T, path string, names, got []string) {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(strings.Join(got, "")), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	want := make(map[string]string)
	name := ""
	for _, line := range strings.SplitAfter(string(raw), "\n") {
		if n, ok := strings.CutPrefix(line, "case "); ok {
			name = strings.TrimSuffix(n, "\n")
		}
		want[name] += line
	}
	if len(want) != len(names) {
		t.Errorf("%s has %d cases, the test runs %d", path, len(want), len(names))
	}
	for i, n := range names {
		if want[n] != got[i] {
			t.Errorf("%s differs from %s:\n got:\n%s want:\n%s", n, path, got[i], want[n])
		}
	}
}
