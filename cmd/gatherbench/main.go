// Command gatherbench runs the reproduction's experiment suite (DESIGN.md
// §4) and prints the tables recorded in EXPERIMENTS.md.
//
// Experiments fan their (configuration × trial) grids out across a worker
// pool (-parallel). Tables are bit-identical for every worker count; the
// wall-clock/throughput summary goes to stderr so that stdout and -out
// files stay byte-for-byte reproducible.
//
// Usage:
//
//	gatherbench                  # full suite, markdown to stdout
//	gatherbench -experiment E1   # one experiment
//	gatherbench -quick -csv      # fast smoke run, CSV output
//	gatherbench -out results.md  # write to a file
//	gatherbench -parallel 8      # eight pool workers (0 = GOMAXPROCS)
//
// Besides the experiment suite, gatherbench maintains the repo's
// performance trajectory (BENCH_*.json, see internal/benchio). Each
// package it measures runs its pinned entries as sub-benchmarks of one
// BenchmarkTrajectory, and gatherbench reads the `go test -bench
// -benchmem` output of those from stdin: -bench-out writes the JSON
// snapshot; -bench-against compares the measurement with a committed
// snapshot and exits non-zero on staleness or an allocs/op or bytes/op
// regression (> 20%).
//
//	go test -run '^$' -bench '^BenchmarkTrajectory$' -benchmem -timeout 30m ./... |
//		gatherbench -bench-out BENCH_PRn.json -bench-label PRn
//	go test ... | gatherbench -bench-against BENCH_PR20.json   # the CI gate
//
// Perf investigations start from a profile, not a guess: -cpuprofile and
// -memprofile capture pprof profiles of the experiment suite or a spec
// campaign; a benchmark's profile comes from `go test -cpuprofile` on one
// package's BenchmarkTrajectory (EXPERIMENTS.md §"Profiling workflow").
//
//	gatherbench -quick -cpuprofile /tmp/cpu.prof
//	go tool pprof -top /tmp/cpu.prof
//
// A third mode runs declarative workload campaigns (internal/workload):
// -spec expands a YAML workload spec (an embedded preset name or a file
// path) into its deterministic item stream, runs every item through the
// engine, and prints a per-family aggregate table plus the campaign
// digest — the SHA-256 of the canonical item stream, so two machines can
// compare campaigns by one line. -spec-trace records the campaign as an
// NDJSON trace; -spec-replay re-runs a recorded trace and verifies every
// result byte-for-byte.
//
//	gatherbench -spec quick                          # embedded preset
//	gatherbench -spec camp.yaml -spec-trace out.ndjson
//	gatherbench -spec-replay out.ndjson              # re-verify a trace
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"gridgather/internal/benchio"
	"gridgather/internal/core"
	"gridgather/internal/experiments"
	"gridgather/internal/parallel"
	"gridgather/internal/sched"
)

// exitInterrupted is the conventional exit status of a SIGINT-terminated
// process (128+2); scripts can tell an interrupted suite from a failed one.
const exitInterrupted = 130

func main() { os.Exit(gatherbenchMain()) }

// gatherbenchMain is main with an exit code, so the profiling defers
// (-cpuprofile/-memprofile) flush on every path, including failures.
func gatherbenchMain() int {
	var (
		which     = flag.String("experiment", "all", "experiment to run: all, E1, E2/E3, E4, E8, E9, E10, E11, E12, E13, E-sched, E-strat")
		seed      = flag.Int64("seed", 1, "random seed")
		trials    = flag.Int("trials", 5, "trials per randomized configuration")
		sizes     = flag.String("sizes", "128,256,512,1024,2048", "comma-separated target sizes")
		quick     = flag.Bool("quick", false, "small sizes and trials")
		csv       = flag.Bool("csv", false, "emit CSV instead of markdown")
		out       = flag.String("out", "", "output file (default stdout)")
		workers   = flag.Int("parallel", 0, "worker-pool size; 0 = GOMAXPROCS (results identical for any value)")
		quiet     = flag.Bool("quiet", false, "suppress the timing summary on stderr")
		schedFlag = flag.String("sched", "fsync", "activation scheduler the suite's round simulations run under: fsync, rr:K, bounded:K[:p=P][:seed=S], random[:p=P][:seed=S]; E9's structural probe and E12's global-vision baselines are scheduler-free, and E-sched sweeps its own axis regardless")
		stratFlag = flag.String("strategy", "paper", "gathering strategy the suite's round simulations drive: paper or lintime; paper-specific accounting columns read zero under lintime, and E-strat sweeps its own axis regardless")

		benchOut     = flag.String("bench-out", "", "read go test -bench '^BenchmarkTrajectory$' -benchmem output from stdin and write the JSON trajectory snapshot to this file (skips the experiment suite)")
		benchAgainst = flag.String("bench-against", "", "read go test -bench '^BenchmarkTrajectory$' -benchmem output from stdin and compare it against this committed snapshot; exit non-zero on staleness or a >20% allocs/op or bytes/op regression")
		benchLabel   = flag.String("bench-label", "dev", "label recorded in the -bench-out snapshot (e.g. PR2)")
		benchNote    = flag.String("bench-note", "", "semicolon-separated notes recorded in the -bench-out snapshot (context for the trajectory, e.g. the before/after of a perf PR)")

		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the experiment suite or spec campaign to this file; inspect it with go tool pprof (see EXPERIMENTS.md)")
		memProfile = flag.String("memprofile", "", "write an allocation profile taken at the end of the experiment suite or spec campaign to this file")

		specFlag   = flag.String("spec", "", "run a declarative workload campaign instead of the experiment suite: a preset name (internal/workload) or a spec file path; prints the per-family aggregate table and the campaign digest")
		specTrace  = flag.String("spec-trace", "", "with -spec: also record the campaign as an NDJSON trace to this file (replayable with -spec-replay)")
		specReplay = flag.String("spec-replay", "", "re-verify a recorded campaign trace: every item re-runs and must match the recorded result byte-for-byte (skips the experiment suite)")
	)
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gatherbench:", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "gatherbench:", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "gatherbench:", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialise the final live-heap statistics
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintln(os.Stderr, "gatherbench:", err)
			}
		}()
	}

	if *specReplay != "" {
		return specReplayMain(*specReplay, *workers)
	}
	if *specFlag != "" {
		return specModeMain(*specFlag, *specTrace, *workers, *csv, *out, *quiet)
	}
	if *benchOut != "" || *benchAgainst != "" {
		fmt.Fprintln(os.Stderr, "gatherbench: reading go test -bench -benchmem output from stdin ...")
		// Echo the benchmark output, so a log of the pipe shows what ran.
		in := io.TeeReader(os.Stdin, os.Stderr)
		if err := runBenchMode(in, *benchOut, *benchAgainst, *benchLabel, *benchNote); err != nil {
			fmt.Fprintln(os.Stderr, "gatherbench:", err)
			return 1
		}
		return 0
	}

	schedCfg, err := sched.Parse(*schedFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gatherbench:", err)
		return 1
	}
	strategy, err := core.ParseStrategy(*stratFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gatherbench:", err)
		return 1
	}
	// SIGINT/SIGTERM cancel the experiment grids at a cell boundary:
	// in-flight simulations finish, the experiments already completed are
	// still rendered (partial-results flush), and the process exits with
	// the interrupt status.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	params := experiments.Params{Seed: *seed, Trials: *trials, Quick: *quick, Parallel: *workers,
		Sched: schedCfg, Strategy: strategy, Context: ctx}
	for _, tok := range strings.Split(*sizes, ",") {
		var v int
		if _, err := fmt.Sscanf(strings.TrimSpace(tok), "%d", &v); err == nil && v > 0 {
			params.Sizes = append(params.Sizes, v)
		}
	}

	start := time.Now()
	outs, err := run(*which, params)
	elapsed := time.Since(start)
	interrupted := err != nil && errors.Is(err, context.Canceled)
	if err != nil && !interrupted {
		fmt.Fprintln(os.Stderr, "gatherbench:", err)
		return 1
	}
	if interrupted {
		stopSignals()
		fmt.Fprintf(os.Stderr, "gatherbench: interrupted — flushing the %d completed experiment(s)\n", len(outs))
	}

	if !*quiet {
		reportTiming(outs, elapsed, parallel.Workers(*workers))
	}

	text := experiments.Render(outs, *csv)
	exit := 0
	if interrupted {
		exit = exitInterrupted
	}
	if *out == "" {
		fmt.Print(text)
		return exit
	}
	if err := os.WriteFile(*out, []byte(text), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "gatherbench:", err)
		return 1
	}
	fmt.Printf("wrote %s\n", *out)
	return exit
}

// runBenchMode reads the trajectory from `go test -bench -benchmem`
// output, optionally writes the snapshot, and optionally gates it against
// a committed one.
func runBenchMode(in io.Reader, outPath, againstPath, label, notes string) error {
	rep, err := benchio.ParseGoTest(in)
	if err != nil {
		return err
	}
	rep.Label, rep.NumCPU, rep.GoVersion = label, runtime.NumCPU(), runtime.Version()
	for _, n := range strings.Split(notes, ";") {
		if n = strings.TrimSpace(n); n != "" {
			rep.Notes = append(rep.Notes, n)
		}
	}
	if outPath != "" {
		if err := benchio.Write(outPath, rep); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "gatherbench: wrote %s\n", outPath)
	}
	if againstPath != "" {
		committed, err := benchio.Read(againstPath)
		if err != nil {
			return err
		}
		if violations := benchio.Compare(committed, rep, 0.20); len(violations) > 0 {
			for _, v := range violations {
				fmt.Fprintln(os.Stderr, "gatherbench: FAIL:", v)
			}
			return fmt.Errorf("%d violation(s) against %s — if intentional, regenerate it with -bench-out", len(violations), againstPath)
		}
		fmt.Fprintf(os.Stderr, "gatherbench: OK against %s (%s)\n", againstPath, committed.Label)
	}
	return nil
}

// reportTiming prints the wall-clock/throughput summary to stderr, keeping
// stdout (and -out files) a pure function of the experiment parameters.
func reportTiming(outs []experiments.Outcome, elapsed time.Duration, workers int) {
	tasks := 0
	for _, o := range outs {
		tasks += o.Tasks
	}
	throughput := float64(tasks) / elapsed.Seconds()
	fmt.Fprintf(os.Stderr, "gatherbench: %d experiments, %d tasks in %s (%.1f tasks/s, %d workers)\n",
		len(outs), tasks, elapsed.Round(time.Millisecond), throughput, workers)
}

func run(which string, params experiments.Params) ([]experiments.Outcome, error) {
	if which == "all" {
		return experiments.All(params)
	}
	table := map[string]func(experiments.Params) (experiments.Outcome, error){
		"E1":      experiments.E1Theorem1,
		"E2":      experiments.E2E3Lemmas,
		"E3":      experiments.E2E3Lemmas,
		"E2/E3":   experiments.E2E3Lemmas,
		"E4":      experiments.E4RunHealth,
		"E8":      experiments.E8Pipelining,
		"E9":      experiments.E9MergelessStructure,
		"E10":     experiments.E10AblationRunPeriod,
		"E11":     experiments.E11AblationMergeLen,
		"E12":     experiments.E12Baselines,
		"E13":     experiments.E13AblationView,
		"E-SCHED": experiments.ESched,
		"ESCHED":  experiments.ESched,
		"SCHED":   experiments.ESched,
		"E-STRAT": experiments.EStrat,
		"ESTRAT":  experiments.EStrat,
		"STRAT":   experiments.EStrat,
	}
	f, ok := table[strings.ToUpper(which)]
	if !ok {
		return nil, fmt.Errorf("unknown experiment %q (E5–E7 are scenario tests in internal/core)", which)
	}
	o, err := f(params)
	if err != nil {
		return nil, err
	}
	return []experiments.Outcome{o}, nil
}
