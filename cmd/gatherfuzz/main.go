// Command gatherfuzz is the conformance stress harness: it fans large
// numbers of randomized (family × size × configuration × seed) scenarios
// through the worker pool, running every one through the conformance check
// of internal/oracle — the engine-vs-model lockstep for the paper strategy
// (positions, merges, run registry, round reports, termination, invariant
// battery — every round), the battery-plus-watchdog path for strategies
// without a model mirror.
//
// Scenario randomness derives from the per-task seed alone
// (parallel.TaskSeed), so a campaign is reproducible from its -seed and
// any failing scenario is re-runnable in isolation via -only.
//
// Scenarios additionally cross an activation scheduler (internal/sched)
// into every cell: -sched mix (the default) draws from the same scheduler
// space the native fuzz targets use, -sched fsync restores the pure
// synchronous campaign, and any explicit config (e.g. -sched rr:3) pins
// one model for a whole run. Under non-FSYNC schedulers liveness is not
// asserted (Theorem 1 is FSYNC-only): scenarios that exhaust the scaled
// watchdog without divergence count as DNF in the summary, not as
// failures.
//
// The gathering strategy (DESIGN.md §10) is the fourth axis: -strategy mix
// (the default) draws from the registered strategies per scenario,
// -strategy paper or -strategy lintime pins one for a whole run. The paper
// strategy runs the full engine-vs-model lockstep; strategies without a
// model mirror run the invariant battery plus the liveness watchdog
// (FSYNC non-gathering is a divergence, non-FSYNC watchdog expiry a DNF).
//
// Usage:
//
//	gatherfuzz                          # 100k scenarios, all families, mixed schedulers and strategies
//	gatherfuzz -scenarios 1000000       # the million-chain campaign
//	gatherfuzz -max-size 256 -seed 7    # smaller chains, different stream
//	gatherfuzz -sched bounded:3         # one activation model for the whole run
//	gatherfuzz -strategy lintime        # conformance-slice the contraction strategy
//	gatherfuzz -only 123456             # re-run one scenario index
//	gatherfuzz -resume failure.bundle   # replay a recorded failure
//	gatherfuzz -spec stress             # declarative campaign from the embedded stress preset
//	gatherfuzz -spec camp.yaml -only 7  # re-run item 7 of a spec campaign
//
// -spec replaces the flag-built config space with a declarative workload
// spec (internal/workload): the YAML file declares the scenario families,
// size distributions, scheduler and strategy mixes, and the campaign seed;
// every expanded item runs through the same conformance oracle. The
// campaign is a pure function of the spec bytes, so -scenarios trims or
// extends the item count and -only reproduces a single item. Flags that
// shape the raw config space (-seed, -min-size, -max-size, -sched,
// -strategy) conflict with -spec and are rejected.
//
// Both kinds of campaign run one loop over cells and fail the same way:
// the lowest-indexed failing cell is reported with the command that
// reruns it, written as a diagnostic bundle (-bundle, default
// gatherfuzz-failure.bundle: the exact failing chain plus its
// configuration, scheduler and strategy in one checksummed file,
// replayable anywhere via -resume), and shrunk to a minimal witness
// printed as a ready-to-paste seed; the exit status is 1.
// SIGINT/SIGTERM stop the campaign at a cell boundary: in-flight cells
// drain, the progress reached is reported, and the process exits with
// status 130.
//
// The summary on stdout is deterministic for a given flag set; timing and
// throughput (scenarios/s) go to stderr, following the repo convention
// that stdout is byte-reproducible.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"gridgather/internal/chain"
	"gridgather/internal/core"
	"gridgather/internal/oracle"
	"gridgather/internal/parallel"
	"gridgather/internal/sched"
	"gridgather/internal/sim"
	"gridgather/internal/workload"
)

// exitInterrupted is the conventional exit status of a SIGINT-terminated
// process (128+2); scripts can tell an interrupted campaign from a failed
// one.
const exitInterrupted = 130

func main() { os.Exit(gatherfuzzMain()) }

func gatherfuzzMain() int {
	var (
		scenarios = flag.Int("scenarios", 100_000, "number of randomized scenarios to check")
		seed      = flag.Int64("seed", 1, "base seed; per-scenario seeds derive from it")
		minSize   = flag.Int("min-size", 8, "minimum target chain size")
		maxSize   = flag.Int("max-size", 1024, "maximum target chain size (log-uniform between min and max)")
		workers   = flag.Int("parallel", 0, "worker-pool size; 0 = GOMAXPROCS")
		only      = flag.Int("only", -1, "run only this scenario index (reproduce a failure)")
		schedFlag = flag.String("sched", "mix", "activation scheduler: mix (draw per scenario from the fuzzing space), or one config (fsync, rr:K, bounded:K[:p=P][:seed=S], random[:p=P][:seed=S])")
		stratFlag = flag.String("strategy", "mix", "gathering strategy: mix (draw per scenario from the registry), paper, or lintime")
		progress  = flag.Duration("progress", 10*time.Second, "progress interval on stderr (0 = off)")
		quiet     = flag.Bool("quiet", false, "suppress the timing summary on stderr")
		bundle    = flag.String("bundle", "gatherfuzz-failure.bundle", "write the failing scenario (chain, config, scheduler, strategy) to this diagnostic bundle on a divergence; replay with -resume (empty = off)")
		resume    = flag.String("resume", "", "replay a diagnostic bundle written by -bundle and report whether the divergence reproduces")
		spec      = flag.String("spec", "", "run a declarative workload campaign instead of the flag-built space: a preset name ("+presetList()+") or a spec file path; -scenarios overrides the item count, -only reruns one item")
	)
	flag.Parse()
	if *resume != "" {
		return resumeBundle(*resume)
	}
	var (
		sp  space
		err error
	)
	if *spec != "" {
		set := map[string]bool{}
		flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
		sp, err = specSpace(*spec, *scenarios, set)
	} else {
		sp, err = flagSpace(*scenarios, *seed, *minSize, *maxSize, *schedFlag, *stratFlag)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "gatherfuzz:", err)
		return 2
	}
	if *only >= 0 {
		return runOnly(os.Stdout, sp, *only)
	}
	return run(os.Stdout, sp, *workers, *progress, *quiet, *bundle)
}

// cell is one conformance check of a campaign: a start configuration and
// what it runs under, plus what a failure report and its bundle record.
type cell struct {
	name   string // "scenario 17" or "item 5"
	desc   string // the cell's axes; -only prints "name: desc"
	repro  string // the command line that reruns the cell alone
	family int    // index into workload.ShapeNames()
	seed   int64  // the seed the bundle records
	ch     *chain.Chain
	cfg    core.Config
	opts   oracle.Options
}

// space is a campaign's stream of cells: the flag-built scenario space
// (flagSpace) or the items of a workload spec (specSpace).
type space struct {
	n      int    // cells in the campaign
	unit   string // what stderr calls the cells: "scenarios" or "items"
	header string // the summary's first line
	// allFamilies lists undrawn families in the summary too: the flag
	// space draws from every family, a spec only from those it declares.
	allFamilies bool
	cell        func(i int) (cell, error)
}

// cellFailure is a built cell whose conformance check failed.
type cellFailure struct {
	cell
	err error
}

func (f *cellFailure) Error() string { return fmt.Sprintf("%s (%s): %v", f.name, f.desc, f.err) }

// flagSpace is the campaign the flags build. Scenario i draws its family,
// size, configuration, scheduler and strategy from TaskSeed(seed, 0, i)
// alone, so the campaign is a pure function of its flags and any scenario
// reruns alone with -only. Every draw happens whatever -sched and
// -strategy pin, so pinning one axis never moves the others.
func flagSpace(scenarios int, seed int64, minSize, maxSize int, schedArg, stratArg string) (space, error) {
	if minSize < 4 || maxSize < minSize {
		return space{}, errors.New("need 4 <= min-size <= max-size")
	}
	var forced *sched.Config
	schedDesc := fmt.Sprintf("mix(%d)", oracle.NumScheds())
	if schedArg != "mix" {
		cfg, err := sched.Parse(schedArg)
		if err != nil {
			return space{}, err
		}
		forced, schedDesc = &cfg, cfg.String()
	}
	var forcedStrat *core.StrategyName
	stratDesc := fmt.Sprintf("mix(%d)", oracle.NumStrategies())
	if stratArg != "mix" {
		name, err := core.ParseStrategy(stratArg)
		if err != nil {
			return space{}, err
		}
		forcedStrat, stratDesc = &name, name.String()
	}
	families := workload.ShapeNames()
	return space{
		n:    scenarios,
		unit: "scenarios",
		header: fmt.Sprintf("gatherfuzz: %d scenarios, %d families x %d configs x sched %s x strategy %s, sizes %d..%d, seed %d",
			scenarios, len(families), oracle.NumConfigs(), schedDesc, stratDesc, minSize, maxSize, seed),
		allFamilies: true,
		cell: func(i int) (cell, error) {
			taskSeed := parallel.TaskSeed(seed, 0, i)
			rng := rand.New(rand.NewSource(taskSeed))
			family := rng.Intn(len(families))
			cfgSel := rng.Intn(oracle.NumConfigs())
			sc := oracle.SchedFromByte(uint8(rng.Intn(oracle.NumScheds())))
			// The retired engine worker count was drawn here. The draw
			// stays so scenario i is the same scenario as before: it comes
			// before the chain seed and the size in the stream.
			_ = rng.Intn(8)
			strat := oracle.StrategyFromByte(uint8(rng.Intn(oracle.NumStrategies())))
			chainSeed := rng.Int63()
			// Log-uniform size: most scenarios small (where shapes are
			// degenerate and bugs shrink nicely), a steady tail up to
			// max-size.
			lo, hi := float64(minSize), float64(maxSize)
			size := int(lo * math.Pow(hi/lo, rng.Float64()))
			if forced != nil {
				sc = *forced
			}
			if forcedStrat != nil {
				strat = *forcedStrat
			}
			desc := fmt.Sprintf("family=%s size=%d cfg=%d sched=%s strategy=%s seed=%d",
				families[family], size, cfgSel, sc, strat, chainSeed)
			ch, err := workload.BuildChain(families[family], size, chainSeed)
			if err != nil {
				return cell{}, fmt.Errorf("scenario %d (%s): generator failed: %w", i, desc, err)
			}
			return cell{
				name: fmt.Sprintf("scenario %d", i),
				desc: fmt.Sprintf("%s n=%d", desc, ch.Len()),
				repro: fmt.Sprintf("gatherfuzz -seed %d -min-size %d -max-size %d -sched %s -strategy %s -only %d",
					seed, minSize, maxSize, schedArg, stratArg, i),
				family: family,
				seed:   taskSeed,
				ch:     ch,
				cfg:    oracle.ConfigFromByte(uint8(cfgSel)),
				opts:   oracle.Options{Sched: sc, Strategy: strat},
			}, nil
		},
	}, nil
}

// run checks every cell of sp on the worker pool and prints the
// deterministic summary. ForEachContext dispatches in index order, lets
// in-flight cells finish after a failure and returns the lowest-indexed
// error, so a failing campaign reports, bundles and shrinks that one cell
// whichever worker failed first. SIGINT/SIGTERM stop dispatch at a cell
// boundary; the progress reached goes to stderr and the exit status is
// 130.
func run(stdout io.Writer, sp space, workers int, progress time.Duration, quiet bool, bundlePath string) int {
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	var (
		done, dnf, robots, rounds, merges, maxN atomic.Int64
		familyCount                             = make([]atomic.Int64, len(workload.ShapeNames()))
	)
	start := time.Now()
	stopProgress := make(chan struct{})
	var ticker sync.WaitGroup
	if progress > 0 {
		ticker.Add(1)
		go func() {
			defer ticker.Done()
			tick := time.NewTicker(progress)
			defer tick.Stop()
			for {
				select {
				case <-stopProgress:
					return
				case <-tick.C:
					d := done.Load()
					fmt.Fprintf(os.Stderr, "gatherfuzz: %d/%d %s, %.0f/s\n", d, sp.n, sp.unit, float64(d)/time.Since(start).Seconds())
				}
			}
		}()
	}

	err := parallel.ForEachContext(ctx, workers, sp.n, func(i int) error {
		c, err := sp.cell(i)
		if err != nil {
			return err
		}
		res, err := check(c.cfg, c.ch, c.opts)
		if err != nil {
			return &cellFailure{c, err}
		}
		if !res.Gathered {
			dnf.Add(1)
		}
		done.Add(1)
		robots.Add(int64(res.InitialLen))
		rounds.Add(int64(res.Rounds))
		merges.Add(int64(res.TotalMerges))
		familyCount[c.family].Add(1)
		for n := int64(res.InitialLen); ; {
			if cur := maxN.Load(); n <= cur || maxN.CompareAndSwap(cur, n) {
				break
			}
		}
		return nil
	})
	close(stopProgress)
	ticker.Wait()
	// The campaign is over: a signal during the shrink below ends the
	// process as usual (the bundle is written first).
	stopSignals()

	var fail *cellFailure
	switch {
	case errors.As(err, &fail):
		fmt.Fprintln(os.Stderr, "gatherfuzz: FAIL")
		fmt.Fprintf(stdout, "%v\nreproduce: %s\n", fail, fail.repro)
		if bundlePath != "" {
			writeBundle(bundlePath, fail)
		}
		minimal := oracle.Shrink(fail.ch.Positions(), func(ch *chain.Chain) bool {
			_, err := check(fail.cfg, ch, fail.opts)
			return err != nil
		})
		fmt.Fprintf(stdout, "shrunk witness:\n%s", oracle.FormatSeed(minimal))
		return 1
	case errors.Is(err, context.Canceled):
		// Task errors take precedence over the context error in
		// ForEachContext, so a bare context.Canceled is a clean interrupt.
		fmt.Fprintf(os.Stderr, "gatherfuzz: interrupted after %d/%d %s (no divergences)\n", done.Load(), sp.n, sp.unit)
		return exitInterrupted
	case err != nil:
		fmt.Fprintln(os.Stderr, "gatherfuzz: FAIL")
		fmt.Fprintln(stdout, err)
		return 1
	}

	elapsed := time.Since(start)
	fmt.Fprintln(stdout, sp.header)
	fmt.Fprintln(stdout, "divergences: 0")
	fmt.Fprintf(stdout, "gathered: %d, DNF within the non-FSYNC watchdog: %d\n", done.Load()-dnf.Load(), dnf.Load())
	fmt.Fprintf(stdout, "robots: %d total (largest chain %d), rounds: %d, merges: %d\n",
		robots.Load(), maxN.Load(), rounds.Load(), merges.Load())
	fmt.Fprint(stdout, "per family:")
	for fi, name := range workload.ShapeNames() {
		if n := familyCount[fi].Load(); n > 0 || sp.allFamilies {
			fmt.Fprintf(stdout, " %s=%d", name, n)
		}
	}
	fmt.Fprintln(stdout)
	if !quiet {
		fmt.Fprintf(os.Stderr, "gatherfuzz: %v elapsed, %.0f %s/s\n",
			elapsed.Round(time.Millisecond), float64(sp.n)/elapsed.Seconds(), sp.unit)
	}
	return 0
}

// writeBundle records a failing cell as a diagnostic bundle at path.
func writeBundle(path string, f *cellFailure) {
	err := sim.WriteBundle(path, &sim.Bundle{
		Label:    fmt.Sprintf("%s (%s)", f.name, f.desc),
		Seed:     f.seed,
		Scenario: f.ch,
		Config:   f.cfg,
		Strategy: f.opts.Strategy,
		Sched:    f.opts.Sched,
		Round:    -1,
		Err:      f.err.Error(),
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "gatherfuzz: writing bundle:", err)
		return
	}
	fmt.Fprintf(os.Stderr, "gatherfuzz: diagnostic bundle written — replay with: gatherfuzz -resume %s\n", path)
}

// runOnly reruns cell i of sp alone (-only).
func runOnly(stdout io.Writer, sp space, i int) int {
	c, err := sp.cell(i)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gatherfuzz:", err)
		return 2
	}
	_, err = check(c.cfg, c.ch, c.opts)
	fmt.Fprintf(stdout, "%s: %s\n", c.name, c.desc)
	if err != nil {
		fmt.Fprintln(stdout, err)
		return 1
	}
	fmt.Fprintln(stdout, "ok")
	return 0
}

// resumeBundle replays a diagnostic bundle written by a failing campaign
// (-bundle): it re-runs the recorded scenario — exact chain, configuration,
// scheduler and strategy — through the conformance check and reports
// whether the divergence reproduces. Exit status: 0 when the
// scenario now passes, 1 when the divergence reproduces, 2 when the bundle
// cannot be read (corrupt, truncated, or the wrong artifact).
func resumeBundle(path string) int {
	b, err := sim.ReadBundle(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gatherfuzz: reading bundle %s: %v\n", path, err)
		return 2
	}
	fmt.Printf("replaying %s\n", b.Label)
	if b.Err != "" {
		fmt.Printf("recorded failure: %s\n", b.Err)
	}
	if _, err := check(b.Config, b.Scenario, oracle.Options{Sched: b.Sched, Strategy: b.Strategy}); err != nil {
		fmt.Printf("divergence reproduces: %v\n", err)
		return 1
	}
	fmt.Println("ok — the recorded divergence no longer reproduces")
	return 0
}

// check is the conformance check of one cell: the oracle's check and,
// under FSYNC, the all-awake law (oracle.CheckAllAwake), whose mismatch is
// a divergence like any other.
func check(cfg core.Config, ch *chain.Chain, opts oracle.Options) (oracle.Result, error) {
	res, err := oracle.CheckWithOptions(cfg, ch, opts)
	if err == nil && opts.Sched.Kind == sched.FSYNC {
		err = oracle.CheckAllAwake(cfg, ch, opts.Strategy)
	}
	return res, err
}
