package core

import (
	"math/rand"
	"testing"

	"gridgather/internal/generate"
)

// BenchmarkTrajectory runs this package's entries of the pinned benchmark
// trajectory (BENCH_*.json, internal/benchio); each sub-benchmark's name
// is its entry name. `go test -run '^$' -bench '^BenchmarkTrajectory$'
// -benchmem ./...` piped into `gatherbench -bench-out` or `-bench-against`
// records or gates the whole trajectory.
func BenchmarkTrajectory(b *testing.B) {
	b.Run("StepSquare/n=512", benchStepSquare512)
	b.Run("PlanMergesReuse/n=4096", benchPlanMergesReuse4096)
	b.Run("KernelMergeScan/n=4096", benchKernelMergeScan4096)
	b.Run("KernelMergeScan/n=4096/round=2000", benchKernelMergeScanMidGather4096)
	b.Run("KernelDecide/n=4096", func(b *testing.B) { benchKernelDecide(b, 15) })
	b.Run("KernelDecide/n=4096/round=2000", func(b *testing.B) { benchKernelDecide(b, 2000) })
	b.Run("KernelStartScan/n=4096", benchKernelStartScan4096)
	b.Run("KernelStartScan/n=4096/round=2000", benchKernelStartScanMidGather4096)
}

// benchStepSquare512 measures the steady-state per-round cost of an FSYNC
// Algorithm.StepActivated(nil) — the hot path the scratch-state reuse
// (DESIGN.md §5) keeps allocation-free. Rebuilds (off-timer) restart the
// workload whenever it gathers.
func benchStepSquare512(b *testing.B) {
	mk := func() *Algorithm {
		ch, err := generate.Rectangle(128, 128)
		if err != nil {
			b.Fatal(err)
		}
		alg, err := New(ch, DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		return alg
	}
	alg := mk()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if alg.Gathered() {
			b.StopTimer()
			alg = mk()
			b.StartTimer()
		}
		if _, err := alg.StepActivated(nil); err != nil {
			b.Fatal(err)
		}
	}
}

// benchPlanMergesReuse4096 measures MergePlan.Plan on a large tangled
// chain: the merge scan KernelMergeScan runs every round, here over the
// whole ring, plus the sequential plan tail (steady state: zero
// allocations).
func benchPlanMergesReuse4096(b *testing.B) {
	ch, err := generate.RandomClosedWalk(4096, rand.New(rand.NewSource(7)))
	if err != nil {
		b.Fatal(err)
	}
	plan := NewMergePlan()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := plan.Plan(ch, DefaultMaxMergeLen); err != nil {
			b.Fatal(err)
		}
	}
}

// benchKernelMergeScan4096 measures the merge-scan phase kernel alone
// (DESIGN.md §9) over the full [0, n) range of a 4096-robot tangled walk —
// the same workload as PlanMergesReuse, minus the sequential plan tail.
// Steady state allocates nothing.
func benchKernelMergeScan4096(b *testing.B) {
	ch, err := generate.RandomClosedWalk(4096, rand.New(rand.NewSource(7)))
	if err != nil {
		b.Fatal(err)
	}
	alg, err := New(ch, DefaultConfig())
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

// benchKernelMergeScanMidGather4096 is the merge-scan kernel on the 4096
// square at round 2000 of its gather (steppedSquare4096): a chain of long
// straight sides and short staircases, the shape the scan meets through
// most of a gather, where it skips straight stretches eight edges per
// compare. The tangled walk of KernelMergeScan/n=4096 changes direction at
// most edges and shows the scan's other end.
func benchKernelMergeScanMidGather4096(b *testing.B) {
	alg := steppedSquare4096(b, 2000)
	n := alg.Chain().Len()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		alg.KernelMergeScan(0, 0, n)
	}
}

// benchKernelDecide times KernelDecide over every live run of the 4096
// square stepped for the given number of rounds, and reports the run
// count: each op recomputes every run's Table 1 decision against the
// frozen look-phase state. Round 15 holds only the first run generation
// (16 live runs); by round 2000 the pipelines have filled (232 live runs,
// against a mean of about 157 over the whole gather), the load a decide
// phase carries through most of a gather.
func benchKernelDecide(b *testing.B, rounds int) {
	alg := steppedSquare4096(b, rounds)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		alg.KernelDecide(0, 0, len(alg.Runs()))
	}
	b.StopTimer()
	b.ReportMetric(float64(len(alg.Runs())), "runs")
}

// benchKernelStartScan4096 measures the Fig 5 run-start scan kernel over
// all 4096 chain indices of a fresh square (the L-th-round full sweep).
func benchKernelStartScan4096(b *testing.B) {
	ch, err := generate.Rectangle(1024, 1024)
	if err != nil {
		b.Fatal(err)
	}
	alg, err := New(ch, DefaultConfig())
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

// benchKernelStartScanMidGather4096 is the start scan at round 2000 of
// the same gather (steppedSquare4096), with its live runs in the run mask
// and counts: where the fresh square has four corners, the mid-gather
// chain has its staircases, and the scan skips the straight stretches
// between them.
func benchKernelStartScanMidGather4096(b *testing.B) {
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
func steppedSquare4096(b *testing.B, rounds int) *Algorithm {
	b.Helper()
	ch, err := generate.Rectangle(1024, 1024)
	if err != nil {
		b.Fatal(err)
	}
	alg, err := New(ch, DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	for r := 0; r < rounds; r++ {
		if _, err := alg.StepActivated(nil); err != nil {
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
