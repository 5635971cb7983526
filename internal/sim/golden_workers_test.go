package sim_test

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gridgather/internal/chain"
	"gridgather/internal/core"
	"gridgather/internal/sim"
	"gridgather/internal/trace"
)

// The tests in this file pin that the retired Options.Workers is ignored.
// The field stays settable, because benchmark harnesses and older callers
// still set it, but every round runs on the goroutine that steps
// (DESIGN.md §9): no value of it may select a second code path through a
// round or change a byte of observable behaviour.

// workerCounts is the battery's sweep of the retired field.
var workerCounts = []int{1, 2, 4, 8}

// TestGoldenTracesWorkers replays every golden workload with Workers set
// to 2, 4 and 8 and byte-compares the serialised Result against the
// committed fixture that TestGoldenTraces checks without it.
func TestGoldenTracesWorkers(t *testing.T) {
	for _, w := range goldenWorkloads() {
		for _, workers := range workerCounts[1:] {
			t.Run(fmt.Sprintf("%s/workers=%d", w.name, workers), func(t *testing.T) {
				ch, err := w.build()
				if err != nil {
					t.Fatal(err)
				}
				res, err := sim.Gather(ch, sim.Options{CheckInvariants: true, Workers: workers, Strategy: w.strategy})
				if err != nil {
					t.Fatal(err)
				}
				got, err := json.MarshalIndent(res, "", "  ")
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, '\n')
				path := filepath.Join("testdata", "golden", w.name+".json")
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("missing fixture (run TestGoldenTraces with -update first): %v", err)
				}
				if string(got) != string(want) {
					t.Errorf("Workers=%d Result diverged from fixture %s", workers, path)
				}
			})
		}
	}
}

// traceWorkloads is the subset whose full position history is compared
// frame by frame — heavier than the Result comparison, so a representative
// mix rather than all sixteen: the smallest ring, a merge-heavy doubled
// path, a run-driven square, a random tangle, and one lintime workload
// (the field must be ignored under every registered strategy).
var traceWorkloads = []string{"ring_8", "doubled_40_seed3", "rectangle_48x48", "walk_256_seed11",
	"lintime_walk_512_seed42"}

// TestWorkersTraceBytesIdentical renders the complete ASCII trace (every
// round's positions) at each value of the retired field and compares the
// bytes against the Workers=1 rendering, covering intermediate
// configurations the Result JSON summarises away.
func TestWorkersTraceBytesIdentical(t *testing.T) {
	byName := map[string]goldenWorkload{}
	for _, w := range goldenWorkloads() {
		byName[w.name] = w
	}
	for _, name := range traceWorkloads {
		w, ok := byName[name]
		if !ok {
			t.Fatalf("trace workload %s missing from goldenWorkloads", name)
		}
		t.Run(name, func(t *testing.T) {
			render := func(workers int) string {
				ch, err := w.build()
				if err != nil {
					t.Fatal(err)
				}
				rec := trace.NewRecorder()
				rec.InitialFrame(ch)
				if _, err := sim.Gather(ch, sim.Options{Observer: rec, Workers: workers, Strategy: w.strategy}); err != nil {
					t.Fatal(err)
				}
				return trace.RenderAll(rec.Frames())
			}
			want := render(1)
			for _, workers := range workerCounts[1:] {
				if got := render(workers); got != want {
					t.Errorf("Workers=%d trace bytes diverged from Workers=1", workers)
				}
			}
		})
	}
}

// TestWorkersRoundReportsIdentical compares the full per-round report
// stream — every RoundReport field including event slices, not just the
// final Result — across values of the retired field, catching divergence
// in rounds whose differences cancel out by the end.
func TestWorkersRoundReportsIdentical(t *testing.T) {
	for _, name := range traceWorkloads {
		var w goldenWorkload
		for _, cand := range goldenWorkloads() {
			if cand.name == name {
				w = cand
			}
		}
		t.Run(name, func(t *testing.T) {
			history := func(workers int) string {
				ch, err := w.build()
				if err != nil {
					t.Fatal(err)
				}
				var b strings.Builder
				obs := sim.ObserverFunc(func(ch *chain.Chain, rep core.RoundReport) {
					fmt.Fprintf(&b, "%+v\n", rep)
				})
				if _, err := sim.Gather(ch, sim.Options{Observer: obs, Workers: workers, Strategy: w.strategy}); err != nil {
					t.Fatal(err)
				}
				return b.String()
			}
			want := history(1)
			for _, workers := range workerCounts[1:] {
				if got := history(workers); got != want {
					t.Errorf("Workers=%d round-report stream diverged from Workers=1", workers)
				}
			}
		})
	}
}
