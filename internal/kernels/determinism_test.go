package kernels

// Registry-wide determinism: for every registered kernel × variant, the
// result must be a function of the configuration alone. The
// content-addressed cache, prefix snapshots, sharding and delta streams
// all rely on that, so it is checked here once for everything instead of
// per feature.

import (
	"bytes"
	"fmt"
	"testing"

	"easypap/internal/core"
	"easypap/internal/sched"
)

// determinismEvery is the snapshot cadence of the checkpointed runs.
const determinismEvery = 8

// runPrint is what one run must reproduce exactly.
type runPrint struct {
	checksum   string
	iterations int
	snapshots  map[int][]byte // checkpointed runs (empty without a codec or under MPI)
}

// TestRegistryDeterminism runs every kernel × variant (mpi_omp on 2
// ranks) with 1 and 4 threads — the 4-thread runs under every policy of
// testSchedules —, straight and checkpointed every 8 iterations, twice
// each. Every run must give the same checksum and iteration count, and
// every checkpointed run of a codec kernel the same snapshot bytes at
// every snapshot point.
func TestRegistryDeterminism(t *testing.T) {
	type setting struct {
		threads int
		pol     sched.Policy
	}
	settings := []setting{{1, sched.StaticPolicy}}
	for _, pol := range testSchedules {
		settings = append(settings, setting{4, pol})
	}
	for _, info := range core.KernelList() {
		for _, variant := range info.Variants {
			t.Run(info.Name+"/"+variant, func(t *testing.T) {
				cfg := core.Config{Kernel: info.Name, Variant: variant, Dim: 64,
					TileW: 8, TileH: 8, Iterations: 20, Seed: 11, NoDisplay: true}
				var ref, refCk *runPrint
				for _, s := range settings {
					for _, every := range []int{0, determinismEvery} {
						for rep := 0; rep < 2; rep++ {
							c := cfg
							c.Threads, c.Schedule = s.threads, s.pol
							name := fmt.Sprintf("threads=%d schedule=%v every=%d repeat=%d",
								s.threads, s.pol, every, rep)
							got := fingerprintRun(t, c, every)
							if ref == nil {
								ref = &got
							}
							if got.checksum != ref.checksum || got.iterations != ref.iterations {
								t.Fatalf("%s: %d iterations / %.12s, first run %d / %.12s",
									name, got.iterations, got.checksum, ref.iterations, ref.checksum)
							}
							if every == 0 {
								continue
							}
							if refCk == nil {
								refCk = &got
							}
							assertSameSnapshots(t, name, refCk.snapshots, got.snapshots)
						}
					}
				}
			})
		}
	}
}

// fingerprintRun runs cfg, checkpointing every `every` iterations when
// every > 0.
func fingerprintRun(t *testing.T, cfg core.Config, every int) runPrint {
	t.Helper()
	if every == 0 {
		out := runWith(t, cfg, core.RunOptions{})
		return runPrint{checksum: out.Result.Checksum, iterations: out.Result.Iterations}
	}
	out, snaps := snapshotRun(t, cfg, every)
	return runPrint{checksum: out.Result.Checksum, iterations: out.Result.Iterations, snapshots: snaps}
}

func assertSameSnapshots(t *testing.T, name string, want, got map[int][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d snapshots, first checkpointed run took %d", name, len(got), len(want))
	}
	for iter, w := range want {
		if !bytes.Equal(got[iter], w) {
			t.Fatalf("%s: snapshot at iteration %d differs from the first checkpointed run", name, iter)
		}
	}
}
