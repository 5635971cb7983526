// Benchmarks regenerating the paper's evaluation artefacts (see DESIGN.md
// §4 for the experiment index and EXPERIMENTS.md for recorded outputs).
// Rounds-to-gathering is reported as a custom metric alongside wall-clock
// time, since the paper's Theorem 1 is a statement about rounds. The pinned
// trajectory (BENCH_*.json) is not here: each package it measures runs its
// entries in its own BenchmarkTrajectory.
package gridgather_test

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	gridgather "gridgather"
	"gridgather/internal/baseline"
	"gridgather/internal/core"
	"gridgather/internal/experiments"
	"gridgather/internal/generate"
	"gridgather/internal/grid"
	"gridgather/internal/sim"
	"gridgather/internal/view"
)

// gatherBench runs the gathering simulation once per iteration on fresh
// clones and reports rounds and rounds-per-robot metrics.
func gatherBench(b *testing.B, mk func() *gridgather.Chain, opts gridgather.Options) {
	b.Helper()
	ref := mk()
	n := ref.Len()
	var rounds int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := gridgather.Gather(ref.Clone(), opts)
		if err != nil {
			b.Fatal(err)
		}
		rounds = res.Rounds
	}
	b.StopTimer()
	b.ReportMetric(float64(rounds), "rounds")
	b.ReportMetric(float64(rounds)/float64(n), "rounds/robot")
	b.ReportMetric(float64(n), "robots")
}

// BenchmarkTheorem1GatherSquare — experiment E1 on square rings (the
// run-driven workload): rounds grow linearly with n. The pinned
// trajectory gathers the n=512, 4096 and 65536 squares in internal/sim's
// BenchmarkTrajectory.
func BenchmarkTheorem1GatherSquare(b *testing.B) {
	for _, side := range []int{32, 64, 128, 256} {
		b.Run(fmt.Sprintf("n=%d", 4*side), func(b *testing.B) {
			gatherBench(b, func() *gridgather.Chain {
				ch, err := gridgather.Rectangle(side, side)
				if err != nil {
					b.Fatal(err)
				}
				return ch
			}, gridgather.Options{})
		})
	}
}

// BenchmarkLinTimeGatherSquare — the strategy arena's wall-clock axis
// (experiment E-strat): the linear-time contraction strategy on the same
// square rings as BenchmarkTheorem1GatherSquare. Rounds track the
// diameter (side/2, i.e. n/8 on these rings) instead of ~n, so the rounds
// metric separates sharply from the paper columns. The pinned trajectory
// gathers the n=4096 square in internal/sim's BenchmarkTrajectory.
func BenchmarkLinTimeGatherSquare(b *testing.B) {
	for _, side := range []int{32, 64, 128, 256} {
		b.Run(fmt.Sprintf("n=%d", 4*side), func(b *testing.B) {
			gatherBench(b, func() *gridgather.Chain {
				ch, err := gridgather.Rectangle(side, side)
				if err != nil {
					b.Fatal(err)
				}
				return ch
			}, gridgather.Options{Strategy: gridgather.StrategyLinTime})
		})
	}
}

// BenchmarkTheorem1GatherSpiral — experiment E1 on spirals (the classic
// diameter-vs-length worst case).
func BenchmarkTheorem1GatherSpiral(b *testing.B) {
	for _, w := range []int{4, 8, 16, 32} {
		ch, err := gridgather.Spiral(w)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("n=%d", ch.Len()), func(b *testing.B) {
			gatherBench(b, func() *gridgather.Chain {
				c, err := gridgather.Spiral(w)
				if err != nil {
					b.Fatal(err)
				}
				return c
			}, gridgather.Options{})
		})
	}
}

// BenchmarkTheorem1GatherWalk — experiment E1 on random closed walks
// (tangled chains; rounds stay far below the linear bound).
func BenchmarkTheorem1GatherWalk(b *testing.B) {
	for _, n := range []int{128, 512, 2048} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(42))
			gatherBench(b, func() *gridgather.Chain {
				ch, err := gridgather.RandomClosedWalk(n, rng)
				if err != nil {
					b.Fatal(err)
				}
				return ch
			}, gridgather.Options{})
		})
	}
}

// BenchmarkLemma1Windows / BenchmarkLemma2Progress — experiments E2/E3:
// the progress-pair accounting over a full gathering run.
func BenchmarkLemma1Windows(b *testing.B) {
	gatherBench(b, func() *gridgather.Chain {
		ch, err := gridgather.Rectangle(64, 64)
		if err != nil {
			b.Fatal(err)
		}
		return ch
	}, gridgather.Options{})
}

func BenchmarkLemma2Progress(b *testing.B) {
	ref, err := gridgather.Rectangle(64, 64)
	if err != nil {
		b.Fatal(err)
	}
	var stats gridgather.PairStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := gridgather.Gather(ref.Clone(), gridgather.Options{})
		if err != nil {
			b.Fatal(err)
		}
		stats = res.Pairs
	}
	b.StopTimer()
	b.ReportMetric(float64(stats.ProgressPairs), "progress-pairs")
	b.ReportMetric(float64(stats.ProgressMerged), "progress-merged")
	b.ReportMetric(float64(stats.CreditConflicts), "credit-conflicts")
	b.ReportMetric(float64(stats.Lemma1Violations), "lemma1-violations")
}

// BenchmarkLemma3Invariants — experiment E4: a full run with every
// per-round safety check enabled (the overhead of validating Lemma 3's
// side conditions).
func BenchmarkLemma3Invariants(b *testing.B) {
	gatherBench(b, func() *gridgather.Chain {
		ch, err := gridgather.Rectangle(48, 48)
		if err != nil {
			b.Fatal(err)
		}
		return ch
	}, gridgather.Options{CheckInvariants: true})
}

// BenchmarkStartDetection — the per-robot cost of the Fig 5 run-start
// patterns (runs every L-th round over all robots).
func BenchmarkStartDetection(b *testing.B) {
	ch, err := gridgather.Rectangle(256, 256)
	if err != nil {
		b.Fatal(err)
	}
	var s view.Snapshot
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		view.At(&s, ch, i%ch.Len(), core.DefaultViewingPathLength, nil)
		core.DetectStart(&s)
	}
}

// BenchmarkPipelining — experiment E8 (Fig 9): gathering with deep run
// pipelines.
func BenchmarkPipelining(b *testing.B) {
	gatherBench(b, func() *gridgather.Chain {
		ch, err := gridgather.Rectangle(192, 192)
		if err != nil {
			b.Fatal(err)
		}
		return ch
	}, gridgather.Options{})
}

// BenchmarkAblationL — experiment E10: run period sweep.
func BenchmarkAblationL(b *testing.B) {
	for _, L := range []int{9, 13, 21} {
		b.Run(fmt.Sprintf("L=%d", L), func(b *testing.B) {
			gatherBench(b, func() *gridgather.Chain {
				ch, err := gridgather.Rectangle(64, 64)
				if err != nil {
					b.Fatal(err)
				}
				return ch
			}, baseline.RunPeriodOptions(L))
		})
	}
}

// BenchmarkAblationMergeLen — experiment E11: merge detection length sweep
// (k = 2, the paper's analysis minimum, live-locks and is excluded here;
// see the experiment table).
func BenchmarkAblationMergeLen(b *testing.B) {
	for _, k := range []int{3, 6, 10} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			gatherBench(b, func() *gridgather.Chain {
				ch, err := gridgather.Rectangle(64, 64)
				if err != nil {
					b.Fatal(err)
				}
				return ch
			}, baseline.MergeLenOptions(k))
		})
	}
}

// BenchmarkAblationView — experiment E13: viewing path length sweep.
func BenchmarkAblationView(b *testing.B) {
	for _, v := range []int{11, 15, 21} {
		b.Run(fmt.Sprintf("V=%d", v), func(b *testing.B) {
			gatherBench(b, func() *gridgather.Chain {
				ch, err := gridgather.Rectangle(64, 64)
				if err != nil {
					b.Fatal(err)
				}
				return ch
			}, baseline.ViewOptions(v))
		})
	}
}

// BenchmarkBaselines — experiment E12: the paper's algorithm against the
// no-pipelining ablation and global-vision contraction (the lintime
// strategy) on one workload.
func BenchmarkBaselines(b *testing.B) {
	mkRef := func() *gridgather.Chain {
		ch, err := gridgather.Rectangle(64, 64)
		if err != nil {
			b.Fatal(err)
		}
		return ch
	}
	b.Run("paper", func(b *testing.B) {
		gatherBench(b, mkRef, baseline.PaperOptions())
	})
	b.Run("sequential-runs", func(b *testing.B) {
		gatherBench(b, mkRef, baseline.SequentialRunsOptions())
	})
	b.Run("merge-only-DNF", func(b *testing.B) {
		// Merge-only live-locks on squares; measure the watchdog round
		// budget it burns before detection.
		opts := baseline.MergeOnlyOptions()
		opts.MaxRounds = 200
		for i := 0; i < b.N; i++ {
			_, err := sim.Gather(mkRef(), opts)
			if !errors.Is(err, sim.ErrWatchdog) {
				b.Fatalf("expected watchdog, got %v", err)
			}
		}
	})
	b.Run("global-contraction", func(b *testing.B) {
		gatherBench(b, mkRef, sim.Options{Strategy: core.StrategyLinTime})
	})
	b.Run("manhattan-hopper-open", func(b *testing.B) {
		rng := rand.New(rand.NewSource(9))
		pts := []grid.Vec{grid.Zero}
		p := grid.Zero
		for len(pts) < 256 {
			d := grid.AxisDirs[rng.Intn(4)]
			p = p.Add(d)
			pts = append(pts, p)
		}
		var rounds int
		for i := 0; i < b.N; i++ {
			h, err := baseline.NewManhattanHopper(pts)
			if err != nil {
				b.Fatal(err)
			}
			res, err := h.Run()
			if err != nil {
				b.Fatal(err)
			}
			rounds = res.Rounds
		}
		b.ReportMetric(float64(rounds), "rounds")
	})
}

// BenchmarkParallelHarness — the experiment harness's worker pool
// (DESIGN.md §5) on the E1 grid at increasing worker counts, reporting
// task throughput. On a multi-core machine tasks/s should scale with the
// worker count up to GOMAXPROCS; tables stay bit-identical throughout
// (the pool's determinism contract, tested in internal/experiments).
func BenchmarkParallelHarness(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 0} {
		name := fmt.Sprintf("workers=%d", workers)
		if workers == 0 {
			name = "workers=GOMAXPROCS"
		}
		b.Run(name, func(b *testing.B) {
			p := experiments.Params{Seed: 1, Trials: 2, Sizes: []int{64, 128}, Parallel: workers}
			var tasks int
			for i := 0; i < b.N; i++ {
				o, err := experiments.E1Theorem1(p)
				if err != nil {
					b.Fatal(err)
				}
				tasks = o.Tasks
			}
			b.ReportMetric(float64(tasks)*float64(b.N)/b.Elapsed().Seconds(), "tasks/s")
		})
	}
}

// BenchmarkSnapshot — the substrate cost of building local views.
func BenchmarkSnapshot(b *testing.B) {
	ch, err := gridgather.Rectangle(256, 256)
	if err != nil {
		b.Fatal(err)
	}
	var s view.Snapshot
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		view.At(&s, ch, i%ch.Len(), core.DefaultViewingPathLength, nil)
		_ = s.AlignedAhead(+1)
	}
}

// BenchmarkGeneratorSpiral — workload generation cost (boundary tracing).
func BenchmarkGeneratorSpiral(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := generate.Spiral(16); err != nil {
			b.Fatal(err)
		}
	}
}
