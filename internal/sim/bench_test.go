package sim_test

import (
	"testing"

	"gridgather/internal/core"
	"gridgather/internal/generate"
	"gridgather/internal/sim"
)

// BenchmarkTrajectory runs this package's entries of the pinned benchmark
// trajectory (BENCH_*.json, internal/benchio): whole gathers of a square
// ring, each sub-benchmark named by its entry. n=512 is the acceptance
// benchmark of the allocation-free round (DESIGN.md §5); n=4096 joined
// with the handle/SoA chain core (§6); n=65536 is the large-n headline,
// every round on one goroutine like every other engine run. The lintime
// gather of the 4096 square is the strategy arena's wall-clock axis
// (§10): ~diameter/2 rounds instead of ~n, under the same per-round
// allocation bar.
func BenchmarkTrajectory(b *testing.B) {
	for _, c := range []struct {
		name  string
		side  int
		strat core.StrategyName
	}{
		{"Theorem1GatherSquare/n=512", 128, core.StrategyPaper},
		{"Theorem1GatherSquare/n=4096", 1024, core.StrategyPaper},
		{"Theorem1GatherSquare/n=65536", 16384, core.StrategyPaper},
		{"LinTimeGatherSquare/n=4096", 1024, core.StrategyLinTime},
	} {
		b.Run(c.name, func(b *testing.B) { gatherSquare(b, c.side, c.strat) })
	}
}

// gatherSquare runs the strategy on the boundary of a side x side square
// (4*side robots) to gathering once per iteration, cloning the reference
// chain each time, and reports the gathering rounds as a metric.
func gatherSquare(b *testing.B, side int, strat core.StrategyName) {
	ref, err := generate.Rectangle(side, side)
	if err != nil {
		b.Fatal(err)
	}
	var rounds int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sim.Gather(ref.Clone(), sim.Options{Strategy: strat})
		if err != nil {
			b.Fatal(err)
		}
		rounds = res.Rounds
	}
	b.StopTimer()
	b.ReportMetric(float64(rounds), "rounds")
}
