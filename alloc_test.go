// Allocation regression tests for the per-round simulation hot path: the
// scratch-state reuse in internal/core and internal/sim (DESIGN.md §5)
// must keep the steady-state round loop nearly allocation-free. The bench
// trajectory (BENCH_*.json: the BenchmarkTrajectory entries of
// internal/core and internal/sim, among others) records the same numbers
// across PRs; this test is the cheap tripwire that runs with the ordinary
// suite.
package gridgather_test

import (
	"math/rand"
	"runtime"
	"testing"

	gridgather "gridgather"
	"gridgather/internal/core"
	"gridgather/internal/generate"
	"gridgather/internal/sim"
)

// TestStepAllocsRegression pins the average per-round allocation count of
// core.Algorithm.StepActivated(nil) on a mid-size square (n = 512). Rounds that start
// runs allocate the new Run objects (real state, every L-th round) and the
// reusable buffers may still grow early on; everything else — merge
// planning, decisions, hop tables, registry rebuild, report slices — must
// come from reused scratch. The bound is ~4x the measured steady-state
// average (≈2 allocs/round), far below the ~69 allocs/round of the
// allocate-per-round implementation it guards against.
func TestStepAllocsRegression(t *testing.T) {
	ch, err := gridgather.Rectangle(128, 128) // n = 512; gathers in ~773 rounds
	if err != nil {
		t.Fatal(err)
	}
	alg, err := core.New(ch, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Warm up: first rounds grow the reusable buffers to working size.
	for i := 0; i < 60; i++ {
		if _, err := alg.StepActivated(nil); err != nil {
			t.Fatal(err)
		}
	}
	const rounds = 200 // well before gathering at ~773
	avg := testing.AllocsPerRun(rounds, func() {
		if alg.Gathered() {
			t.Fatal("chain gathered mid-measurement; enlarge the workload")
		}
		if _, err := alg.StepActivated(nil); err != nil {
			t.Fatal(err)
		}
	})
	const maxAllocsPerRound = 8.0
	if avg > maxAllocsPerRound {
		t.Errorf("Algorithm.StepActivated(nil) allocates %.1f objects/round on average, want <= %.1f (scratch reuse regressed)", avg, maxAllocsPerRound)
	}
}

// TestStartRoundBytesRegression bounds the bytes a run-start round
// allocates, measured with runtime.MemStats.TotalAlloc around sim's
// Engine.Step on the seeded n ≈ 4100 polyomino the gather benchmark runs
// (dense in run starts and merges). Every L-th round scans for starts and
// walks each new run's quasi line to pair it (Lemma 1/2 accounting) over
// an unbounded view; that walk once buffered every edge of the chain ahead
// and allocated ~6.8 MB per start round in the measured window (start
// rounds 10-21). With the streaming quasi-line parser a start round there
// allocates ~30-36 KB: the new Run objects and the pair tracker's records,
// which are real state. The bound leaves ~3.5x headroom over that and sits
// ~50x below the old cost.
func TestStartRoundBytesRegression(t *testing.T) {
	ch, err := generate.Named("polyomino", 4100, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	e, err := sim.NewEngine(ch, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	alg := e.Algorithm()
	period := alg.Config().RunPeriod
	const warmStarts, measuredStarts = 10, 12
	var ms0, ms1 runtime.MemStats
	var total uint64
	for starts := 0; starts < warmStarts+measuredStarts; {
		startRound := alg.Round()%period == 0
		if startRound {
			runtime.ReadMemStats(&ms0)
		}
		cont, err := e.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !cont {
			t.Fatalf("chain gathered after %d start rounds; enlarge the workload", starts)
		}
		if startRound {
			runtime.ReadMemStats(&ms1)
			if starts >= warmStarts {
				total += ms1.TotalAlloc - ms0.TotalAlloc
			}
			starts++
		}
	}
	perStart := total / measuredStarts
	t.Logf("%d B allocated per start round (mean of %d)", perStart, measuredStarts)
	const maxBytesPerStartRound = 128 << 10
	if perStart > maxBytesPerStartRound {
		t.Errorf("a run-start round allocates %d B on average, want <= %d (the pair walk or start scan allocates again)", perStart, maxBytesPerStartRound)
	}
}
