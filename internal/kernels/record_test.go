package kernels

import (
	"fmt"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"easypap/internal/core"
	"easypap/internal/trace"
)

// TestMonitorAndTraceShareTileRecords runs configs with both Monitoring
// and TracePath set and requires, per rank, the EZPT trace's events to be
// the monitor's iterations' events, in order: start, end, rectangle, CPU,
// rank, kind and work, ordered by start time, then CPU. The kernels' tile
// hooks record once, on the monitor's lanes, and the trace is those
// records, so the two instruments cannot disagree. The cases cover work
// counters (mandel omp_tiled), task spans (mandel task) and per-rank
// records of an MPI run (life mpi_omp on 2 ranks).
func TestMonitorAndTraceShareTileRecords(t *testing.T) {
	cases := []struct {
		kernel, variant, arg string
		ranks                int
		kind                 trace.EventKind
		work                 bool
	}{
		{"mandel", "omp_tiled", "", 1, trace.KindTile, true},
		{"mandel", "task", "", 1, trace.KindTask, true},
		{"life", "mpi_omp", "random", 2, trace.KindTile, false},
	}
	for _, c := range cases {
		t.Run(c.kernel+"/"+c.variant, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "run.evt")
			cfg := core.Config{Kernel: c.kernel, Variant: c.variant, Dim: 64, TileW: 16, TileH: 16,
				Iterations: 3, Threads: 2, MPIRanks: c.ranks, NoDisplay: true, Arg: c.arg,
				Monitoring: true, TracePath: path}
			out := runWith(t, cfg, core.RunOptions{})
			if len(out.Monitors) != c.ranks {
				t.Fatalf("%d monitors, want %d", len(out.Monitors), c.ranks)
			}

			for rank, mon := range out.Monitors {
				var monitored []trace.Event
				for _, it := range mon.Iterations() {
					for _, e := range it.Tiles {
						if int(e.Iter) != it.Iter || int(e.Rank) != rank || e.Kind != c.kind || (e.Work > 0) != c.work {
							t.Fatalf("rank %d iteration %d: record %+v", rank, it.Iter, e)
						}
					}
					monitored = append(monitored, it.Tiles...)
				}
				var traced []trace.Event
				for _, e := range out.Trace.Events {
					if int(e.Rank) == rank {
						traced = append(traced, e)
					}
				}
				if len(monitored) == 0 {
					t.Fatalf("rank %d: no records", rank)
				}
				if !slices.Equal(monitored, traced) {
					t.Fatalf("rank %d: monitor and trace disagree: %s", rank, firstDiff(monitored, traced))
				}
				for i := 1; i < len(traced); i++ {
					a, b := traced[i-1], traced[i]
					if b.Start < a.Start || b.Start == a.Start && b.CPU < a.CPU {
						t.Fatalf("rank %d: events %d and %d out of (start, CPU) order: %+v, %+v", rank, i-1, i, a, b)
					}
				}
			}

			meta := out.Trace.Meta
			if meta.Threads != 2 || meta.Ranks != c.ranks || meta.Recorded.IsZero() {
				t.Errorf("trace meta = %+v", meta)
			}
			if err := out.Trace.Save(path); err != nil {
				t.Fatal(err)
			}
			back, err := trace.Load(path)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(back.Events, out.Trace.Events) {
				t.Error("the saved trace does not load back as recorded")
			}
		})
	}
}

// firstDiff names the first position where the two event sequences differ.
func firstDiff(monitored, traced []trace.Event) string {
	for i := range min(len(monitored), len(traced)) {
		if monitored[i] != traced[i] {
			return fmt.Sprintf("event %d: monitored %+v, traced %+v", i, monitored[i], traced[i])
		}
	}
	return fmt.Sprintf("%d monitored events, %d traced", len(monitored), len(traced))
}
