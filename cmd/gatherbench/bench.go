package main

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"gridgather/internal/benchdefs"
	"gridgather/internal/benchio"
)

// pinnedBenchmarks measures the pinned subset recorded in the repo's
// BENCH_*.json trajectory (one snapshot per perf-relevant PR) and returns
// the report. The benchmark bodies live in internal/benchdefs and are
// shared with the `go test -bench` suite, so the committed trajectory and
// local benchmark runs measure identical workloads; the subset is
// deliberately small so the CI bench-smoke step stays fast.
func pinnedBenchmarks(label string) (*benchio.Report, error) {
	rep := &benchio.Report{
		Schema:     benchio.Schema,
		Label:      label,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
	}
	for _, bench := range []struct {
		name string
		fn   func(b *testing.B)
	}{
		{"Theorem1GatherSquare/n=512", benchdefs.GatherSquare512},
		{"Theorem1GatherSquare/n=4096", benchdefs.GatherSquare4096},
		{"Theorem1GatherSquare/n=65536", benchdefs.GatherSquare65536},
		{"LinTimeGatherSquare/n=4096", benchdefs.LinTimeGatherSquare4096},
		{"StepSquare/n=512", benchdefs.StepSquare512},
		{"PlanMergesReuse/n=4096", benchdefs.PlanMergesReuse4096},
		{"ResolveMergesSeeded/n=4096", benchdefs.ResolveMergesSeeded4096},
		{"KernelMergeScan/n=4096", benchdefs.KernelMergeScan4096},
		{"KernelMergeScan/n=4096/round=2000", benchdefs.KernelMergeScanMidGather4096},
		{"KernelDecide/n=4096", benchdefs.KernelDecide4096},
		{"KernelDecide/n=4096/round=2000", benchdefs.KernelDecideMidGather4096},
		{"KernelStartScan/n=4096", benchdefs.KernelStartScan4096},
		{"KernelStartScan/n=4096/round=2000", benchdefs.KernelStartScanMidGather4096},
		{"ParallelHarness/quickE1", benchdefs.ParallelHarnessQuickE1},
		{"ServeCacheHit/body=identical", benchdefs.ServeCacheHit},
		{"ServeCacheHit/body=respelled", benchdefs.ServeCacheHitRespelled},
	} {
		r := testing.Benchmark(bench.fn)
		if r.N == 0 {
			return nil, fmt.Errorf("benchmark %s failed (zero iterations)", bench.name)
		}
		rep.Entries = append(rep.Entries, entryFrom(bench.name, r))
	}
	return rep, nil
}

// entryFrom converts a testing result into a trajectory entry. Timing
// fields are rounded to whole units: sub-nanosecond digits are noise and
// would churn the committed JSON.
func entryFrom(name string, r testing.BenchmarkResult) benchio.Entry {
	e := benchio.Entry{
		Name:        name,
		Iterations:  r.N,
		NsPerOp:     math.Round(float64(r.T.Nanoseconds()) / float64(r.N)),
		BytesPerOp:  float64(r.AllocedBytesPerOp()),
		AllocsPerOp: float64(r.AllocsPerOp()),
	}
	if len(r.Extra) > 0 {
		e.Metrics = make(map[string]float64, len(r.Extra))
		for k, v := range r.Extra {
			e.Metrics[k] = math.Round(v)
		}
	}
	return e
}
