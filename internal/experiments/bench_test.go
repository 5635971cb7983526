package experiments

import "testing"

// pinnedHarnessWorkers is the fixed worker count of the pinned harness
// benchmark: allocation counts must be comparable across machines and
// committed reports, so the pool size does not float with GOMAXPROCS.
const pinnedHarnessWorkers = 4

// BenchmarkTrajectory runs this package's entry of the pinned benchmark
// trajectory (BENCH_*.json, internal/benchio): the quick E1 grid pushed
// through the worker pool at the pinned worker count, reporting task
// throughput (the denominator of the harness's scaling story, DESIGN.md
// §5).
func BenchmarkTrajectory(b *testing.B) {
	b.Run("ParallelHarness/quickE1", func(b *testing.B) {
		p := Params{Seed: 1, Trials: 2, Sizes: []int{64, 128}, Parallel: pinnedHarnessWorkers}
		var tasks int
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			o, err := E1Theorem1(p)
			if err != nil {
				b.Fatal(err)
			}
			tasks = o.Tasks
		}
		b.ReportMetric(float64(tasks)*float64(b.N)/b.Elapsed().Seconds(), "tasks_per_sec")
	})
}
