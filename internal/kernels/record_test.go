package kernels

import (
	"fmt"
	"maps"
	"path/filepath"
	"reflect"
	"testing"

	"easypap/internal/core"
	"easypap/internal/monitor"
	"easypap/internal/trace"
)

// TestMonitorAndTraceShareTileRecords runs configs with both Monitoring
// and TracePath set and requires the monitoring windows' records and the
// EZPT trace to be the same spans, per iteration: start, end, rectangle,
// worker, rank, kind and work. The kernels' tile hooks record once, on
// the monitor's lanes, and the trace is exported from those records, so
// the two instruments cannot disagree. The cases cover work counters
// (mandel omp_tiled), task spans (mandel task) and per-rank records of an
// MPI run (life mpi_omp on 2 ranks).
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
	type span struct {
		iter int
		rec  monitor.TileRec
	}
	for _, c := range cases {
		t.Run(c.kernel+"/"+c.variant, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "run.evt")
			cfg := core.Config{Kernel: c.kernel, Variant: c.variant, Dim: 64, TileW: 16, TileH: 16,
				Iterations: 3, Threads: 2, MPIRanks: c.ranks, NoDisplay: true, Arg: c.arg,
				Monitoring: true, TracePath: path}
			out := runWith(t, cfg, core.RunOptions{})

			monitored := map[span]int{}
			for rank, mon := range out.Monitors {
				for _, it := range mon.Iterations() {
					for _, r := range it.Tiles {
						if r.Rank != rank || r.Kind != c.kind || (r.Work > 0) != c.work {
							t.Fatalf("rank %d iteration %d: record %+v", rank, it.Iter, r)
						}
						monitored[span{it.Iter, r}]++
					}
				}
			}
			traced := map[span]int{}
			for _, e := range out.Trace.Events {
				traced[span{int(e.Iter), monitor.TileRec{
					X: int(e.X), Y: int(e.Y), W: int(e.W), H: int(e.H), Worker: int(e.CPU),
					Rank: int(e.Rank), Start: e.Start, End: e.End, Kind: e.Kind, Work: e.Work,
				}}]++
			}
			if len(out.Monitors) != c.ranks || len(monitored) == 0 {
				t.Fatalf("%d monitors with %d records, want %d monitors", len(out.Monitors), len(monitored), c.ranks)
			}
			if !maps.Equal(monitored, traced) {
				t.Fatalf("monitor and trace disagree: %s", firstDiff(monitored, traced))
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

// firstDiff names one span whose count differs between the two sets.
func firstDiff[K comparable](a, b map[K]int) string {
	for k, n := range a {
		if b[k] != n {
			return fmt.Sprintf("%+v: %d monitored, %d traced", k, n, b[k])
		}
	}
	for k, n := range b {
		if a[k] != n {
			return fmt.Sprintf("%+v: %d monitored, %d traced", k, a[k], n)
		}
	}
	return "none"
}
