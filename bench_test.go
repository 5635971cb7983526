// Benchmarks regenerating the paper's evaluation artefacts (see DESIGN.md
// §4 for the experiment index and EXPERIMENTS.md for recorded outputs).
// Rounds-to-gathering is reported as a custom metric alongside wall-clock
// time, since the paper's Theorem 1 is a statement about rounds.
package gridgather_test

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	gridgather "gridgather"
	"gridgather/internal/baseline"
	"gridgather/internal/benchdefs"
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
// run-driven workload): rounds grow linearly with n. The n=4096 size
// (pinned in the bench trajectory via internal/benchdefs) became practical
// with the handle/SoA chain core; see DESIGN.md §6.
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
	b.Run("n=4096", benchdefs.GatherSquare4096)
	// The chunked phase-kernel driver (DESIGN.md §9) at pinned worker
	// counts: the observable run is byte-identical across them (the golden
	// Workers battery asserts it), so only the timing columns may move.
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("n=4096/workers=%d", workers), benchdefs.GatherSquareWorkers4096(workers))
	}
	b.Run("n=65536", benchdefs.GatherSquare65536)
}

// BenchmarkLinTimeGatherSquare — the strategy arena's wall-clock axis
// (experiment E-strat): the linear-time contraction strategy on the same
// square rings as BenchmarkTheorem1GatherSquare. Rounds track the
// diameter (side/2, i.e. n/8 on these rings) instead of ~n, so the rounds
// metric separates sharply from the paper columns. The n=4096 size is
// pinned in the bench trajectory via internal/benchdefs.
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
	b.Run("n=4096", benchdefs.LinTimeGatherSquare4096)
}

// BenchmarkKernelMergeScan / BenchmarkKernelDecide /
// BenchmarkKernelStartScan — the look-phase kernels of the chunked driver
// (DESIGN.md §9) in isolation, full-range, on 4096-robot workloads; the
// bench trajectory pins the same bodies (internal/benchdefs).
func BenchmarkKernelMergeScan(b *testing.B) {
	b.Run("n=4096", benchdefs.KernelMergeScan4096)
}

func BenchmarkKernelDecide(b *testing.B) {
	b.Run("n=4096", benchdefs.KernelDecide4096)
}

func BenchmarkKernelStartScan(b *testing.B) {
	b.Run("n=4096", benchdefs.KernelStartScan4096)
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

// BenchmarkMergeDetectionReuse — experiment E5 (Fig 2/3 mechanics): the
// merge pattern scan plus the plan tail through a reused MergePlan (zero
// steady-state allocations; the bench trajectory pins the same body as
// "PlanMergesReuse/n=4096").
func BenchmarkMergeDetectionReuse(b *testing.B) {
	benchdefs.PlanMergesReuse4096(b)
}

// BenchmarkMergeResolutionSeeded — large-n merge resolution through the
// seeded O(#moved + #merges) path of the handle-linked ring (O(1) splices,
// no slice shifting; the bench trajectory pins the same body as
// "ResolveMergesSeeded/n=4096").
func BenchmarkMergeResolutionSeeded(b *testing.B) {
	benchdefs.ResolveMergesSeeded4096(b)
}

// BenchmarkRunReshape — experiment E6 (Fig 6/7/11 mechanics): stepping a
// large square where all work is runner reshaping. This is the per-round
// hot path the scratch-state reuse (DESIGN.md §5) keeps allocation-free;
// the bench trajectory pins the same body (internal/benchdefs) as
// "StepSquare/n=512".
func BenchmarkRunReshape(b *testing.B) {
	benchdefs.StepSquare512(b)
}

// BenchmarkStartDetection — the per-robot cost of the Fig 5 run-start
// patterns (runs every L-th round over all robots).
func BenchmarkStartDetection(b *testing.B) {
	ch, err := gridgather.Rectangle(256, 256)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := view.At(ch, i%ch.Len(), core.DefaultViewingPathLength, nil)
		core.DetectStart(s)
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
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := view.At(ch, i%ch.Len(), core.DefaultViewingPathLength, nil)
		_ = s.AlignedAhead(+1)
	}
}

// BenchmarkServeCacheHit — the serving layer's content-addressed cache:
// the per-request cost of answering a re-submission without stepping the
// engine (internal/serve, DESIGN.md §12), for the byte-identical body the
// digest index answers and for a re-spelled one that takes the decode +
// build + content-key path. Shared bodies with the pinned trajectory via
// benchdefs.
func BenchmarkServeCacheHit(b *testing.B) {
	b.Run("body=identical", benchdefs.ServeCacheHit)
	b.Run("body=respelled", benchdefs.ServeCacheHitRespelled)
}

// BenchmarkGeneratorSpiral — workload generation cost (boundary tracing).
func BenchmarkGeneratorSpiral(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := generate.Spiral(16); err != nil {
			b.Fatal(err)
		}
	}
}
