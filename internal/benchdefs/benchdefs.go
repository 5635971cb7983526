package benchdefs

import (
	"math/rand"
	"testing"

	"gridgather/internal/chain"
	"gridgather/internal/core"
	"gridgather/internal/experiments"
	"gridgather/internal/generate"
	"gridgather/internal/sim"
)

// PinnedHarnessWorkers is the fixed worker count of the pinned harness
// benchmark: allocation counts must be comparable across machines and
// committed reports, so the pool size does not float with GOMAXPROCS.
const PinnedHarnessWorkers = 4

// GatherSquare512 is the acceptance benchmark of the allocation work: a
// full gathering run on the 512-robot square, cloning the reference chain
// per iteration. Reports the gathering rounds as a metric.
func GatherSquare512(b *testing.B) {
	gatherSquare(b, 128, core.StrategyPaper)
}

// StepSquare512 measures the steady-state per-round cost of
// core.Algorithm.Step — the hot path the scratch-state reuse (DESIGN.md
// §5) keeps allocation-free. Rebuilds (off-timer) restart the workload
// whenever it gathers.
func StepSquare512(b *testing.B) {
	mk := func() (*core.Algorithm, *chain.Chain) {
		ch, err := generate.Rectangle(128, 128)
		if err != nil {
			b.Fatal(err)
		}
		alg, err := core.New(ch, core.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		return alg, ch
	}
	alg, _ := mk()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if alg.Gathered() {
			b.StopTimer()
			alg, _ = mk()
			b.StartTimer()
		}
		if _, err := alg.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// GatherSquare4096 is the large-n scaling benchmark added with the
// handle/SoA chain core (DESIGN.md §6): the full gathering run on a
// 4096-robot square. Pointer-chasing representations made this workload
// impractically slow to pin; with flat handle storage, O(1) splices and
// the incremental bounding box it joins the committed trajectory.
func GatherSquare4096(b *testing.B) {
	gatherSquare(b, 1024, core.StrategyPaper)
}

// GatherSquare65536 is the large-n headline: the full gathering run on a
// 65536-robot square, every round on one goroutine like every other
// engine run.
func GatherSquare65536(b *testing.B) {
	gatherSquare(b, 16384, core.StrategyPaper)
}

// LinTimeGatherSquare4096 is the strategy arena's wall-clock axis
// (DESIGN.md §10): the full lintime contraction run on the same
// 4096-robot square as GatherSquare4096. The round count is ~diameter/2
// instead of ~n, so the interesting trajectory columns are ns/op against
// its paper counterpart and the per-round allocation discipline (the
// contraction's scratch reuse must hold the same zero-steady-state bar).
func LinTimeGatherSquare4096(b *testing.B) {
	gatherSquare(b, 1024, core.StrategyLinTime)
}

// gatherSquare is the shared body of the square-gather benchmarks: a full
// run of the strategy on the boundary of a side x side square (4*side
// robots), cloning the reference chain per iteration. Reports the
// gathering rounds as a metric.
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

// KernelMergeScan4096 measures the merge-scan phase kernel alone
// (core.Algorithm.KernelMergeScan, DESIGN.md §9) over the full [0, n)
// range of a 4096-robot tangled walk — the same workload as
// PlanMergesReuse, minus the sequential plan tail. Steady state allocates
// nothing.
func KernelMergeScan4096(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	ch, err := generate.RandomClosedWalk(4096, rng)
	if err != nil {
		b.Fatal(err)
	}
	alg, err := core.New(ch, core.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	n := alg.Chain().Len()
	alg.Chain().Handles() // build the ring caches outside the timed loop
	alg.Chain().EdgeCodes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		alg.KernelMergeScan(0, 0, n)
	}
}

// KernelMergeScanMidGather4096 is the merge-scan kernel on the 4096
// square at round 2000 of its gather (steppedSquare4096): a chain of long
// straight sides and short staircases, the shape the scan meets through
// most of a gather, where it skips straight stretches eight edges per
// compare. KernelMergeScan4096's tangled walk changes direction at most
// edges and shows the scan's other end.
func KernelMergeScanMidGather4096(b *testing.B) {
	alg := steppedSquare4096(b, 2000)
	n := alg.Chain().Len()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		alg.KernelMergeScan(0, 0, n)
	}
}

// KernelDecide4096 measures the run-decision kernel over the live run
// registry of a 4096-robot square that has stepped past its first
// run-start round: each op recomputes every run's Table 1 decision against
// the frozen look-phase state.
func KernelDecide4096(b *testing.B) { kernelDecide(b, 15) }

// KernelDecideMidGather4096 is KernelDecide4096 at round 2000 of the same
// gather. Round 15 holds only the first run generation (16 live runs); by
// round 2000 the pipelines have filled (232 live runs, against a mean of
// about 157 over the whole gather), so this is the load a decide phase
// carries through most of a gather.
func KernelDecideMidGather4096(b *testing.B) { kernelDecide(b, 2000) }

// kernelDecide times KernelDecide over every live run of the 4096 square
// stepped for the given number of rounds, and reports the run count.
func kernelDecide(b *testing.B, rounds int) {
	alg := steppedSquare4096(b, rounds)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		alg.KernelDecide(0, 0, len(alg.Runs()))
	}
	b.StopTimer()
	b.ReportMetric(float64(len(alg.Runs())), "runs")
}

// KernelStartScan4096 measures the Fig 5 run-start scan kernel over all
// 4096 chain indices of a fresh square (the L-th-round full sweep).
func KernelStartScan4096(b *testing.B) {
	ch, err := generate.Rectangle(1024, 1024)
	if err != nil {
		b.Fatal(err)
	}
	alg, err := core.New(ch, core.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	n := alg.Chain().Len()
	alg.Chain().Handles()
	alg.Chain().EdgeCodes()
	alg.KernelMergeScan(0, 0, n)
	if err := alg.CombineMergePlan(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		alg.KernelStartScan(0, 0, n)
	}
}

// KernelStartScanMidGather4096 is KernelStartScan4096 at round 2000 of
// the same gather (steppedSquare4096), with its live runs in the run mask
// and counts: where the fresh square has four corners, the mid-gather
// chain has its staircases, and the scan skips the straight stretches
// between them.
func KernelStartScanMidGather4096(b *testing.B) {
	alg := steppedSquare4096(b, 2000)
	n := alg.Chain().Len()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		alg.KernelStartScan(0, 0, n)
	}
}

// steppedSquare4096 builds the mid-gather kernel workloads: the 4096 square
// stepped for the given number of rounds, with the look-phase state (ring
// caches, merge plan) refreshed so the kernel reads a consistent round.
// The rounds must end past a run-start round with one quiet round after
// it, so no run still carries its just-started flag into the kernel calls.
func steppedSquare4096(b *testing.B, rounds int) *core.Algorithm {
	b.Helper()
	ch, err := generate.Rectangle(1024, 1024)
	if err != nil {
		b.Fatal(err)
	}
	alg, err := core.New(ch, core.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	for r := 0; r < rounds; r++ {
		if _, err := alg.Step(); err != nil {
			b.Fatal(err)
		}
	}
	if len(alg.Runs()) == 0 {
		b.Fatal("stepped square has no live runs to decide")
	}
	n := alg.Chain().Len()
	alg.Chain().Handles()
	alg.Chain().EdgeCodes()
	alg.KernelMergeScan(0, 0, n)
	if err := alg.CombineMergePlan(); err != nil {
		b.Fatal(err)
	}
	return alg
}

// ResolveMergesSeeded4096 measures large-n merge resolution through the
// seeded O(#moved + #merges) path Algorithm.Step uses every round: each
// iteration co-locates a batch of robots with a chain neighbour and
// resolves around exactly those movers. The chain shrinks as merges
// execute and is rebuilt off-timer, like StepSquare512 rebuilds its
// workload. Steady state allocates nothing.
func ResolveMergesSeeded4096(b *testing.B) {
	const n, batch = 4096, 64
	mk := func() *chain.Chain {
		rng := rand.New(rand.NewSource(7))
		ch, err := generate.RandomClosedWalk(n, rng)
		if err != nil {
			b.Fatal(err)
		}
		return ch
	}
	ch := mk()
	rng := rand.New(rand.NewSource(99))
	seeds := make([]chain.Handle, 0, batch)
	var events []chain.MergeEvent
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ch.Len() < n/2 {
			b.StopTimer()
			ch = mk()
			rng = rand.New(rand.NewSource(99))
			b.StartTimer()
		}
		seeds = seeds[:0]
		for j := 0; j < batch; j++ {
			idx := rng.Intn(ch.Len())
			h := ch.At(idx)
			ch.SetPos(h, ch.Pos(idx+1))
			seeds = append(seeds, h)
		}
		events = ch.AppendResolveMergesAround(events[:0], seeds)
	}
}

// PlanMergesReuse4096 measures MergePlan.Plan on a large tangled chain:
// the merge scan KernelMergeScan runs every round, here over the whole
// ring, plus the sequential plan tail (steady state: zero allocations).
func PlanMergesReuse4096(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	ch, err := generate.RandomClosedWalk(4096, rng)
	if err != nil {
		b.Fatal(err)
	}
	plan := core.NewMergePlan()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := plan.Plan(ch, core.DefaultMaxMergeLen); err != nil {
			b.Fatal(err)
		}
	}
}

// ParallelHarnessQuickE1 pushes the quick E1 grid through the worker pool
// at the pinned worker count and reports task throughput (the denominator
// of the harness's scaling story, DESIGN.md §5).
func ParallelHarnessQuickE1(b *testing.B) {
	p := experiments.Params{Seed: 1, Trials: 2, Sizes: []int{64, 128}, Parallel: PinnedHarnessWorkers}
	var tasks int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o, err := experiments.E1Theorem1(p)
		if err != nil {
			b.Fatal(err)
		}
		tasks = o.Tasks
	}
	b.ReportMetric(float64(tasks)*float64(b.N)/b.Elapsed().Seconds(), "tasks_per_sec")
}
