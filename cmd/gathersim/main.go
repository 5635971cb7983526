// Command gathersim runs one gathering simulation and prints its summary
// (optionally with ASCII frames or a JSON result). Run gathersim -help for
// the full flag reference with defaults and example invocations.
//
// Usage:
//
//	gathersim -shape spiral -size 512
//	gathersim -shape walk -size 200 -seed 7 -ascii 25
//	gathersim -shape rectangle -size 256 -sched rr:3
//	gathersim -in chain.json -json
//	gathersim -spec quick -item 3
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"gridgather/internal/chain"
	"gridgather/internal/core"
	"gridgather/internal/generate"
	"gridgather/internal/sched"
	"gridgather/internal/sim"
	"gridgather/internal/trace"
	"gridgather/internal/workload"
)

// exitInterrupted is the conventional exit status of a SIGINT-terminated
// process (128+2); scripts can tell an interrupted run from a failed one.
const exitInterrupted = 130

// usage is the -help text: every flag with its default, grouped by what it
// controls, with example invocations — flags without a story here are
// flags nobody can use.
func usage() {
	w := flag.CommandLine.Output()
	fmt.Fprintf(w, `gathersim — run one gathering simulation and print its summary.

Workload (what to simulate):
  -shape NAME    workload family (default spiral): %s
  -size N        approximate number of robots (default 256); families round
                 to their structural grid, so the chain built may differ
  -seed S        random seed of the randomized families walk, polyomino,
                 histogram, doubled (default 1); deterministic families
                 ignore it
  -in FILE       read the initial chain from a JSON file written by
                 chaingen (or from the "chain seed" line a failing run
                 prints) instead of generating; overrides -shape/-size/-seed
  -spec S        expand one item of a declarative campaign spec (DESIGN.md
                 §13) and run it: S is an embedded preset (%s)
                 or a YAML file; the item carries its own chain, config,
                 scheduler and strategy, so -shape/-size/-seed and the
                 algorithm/scheduler/strategy flags are ignored (runtime
                 knobs -check/-max-rounds/-max-wall still apply)
  -item N        the campaign item index -spec runs (default 0)

Algorithm parameters (defaults are the paper's):
  -view V        viewing path length V (default %d, minimum 7)
  -period L      run start period L (default %d)
  -mergelen K    maximum merge pattern length (default %d = V-1; smaller
                 values livelock large square rings, see EXPERIMENTS.md E11)
  -merge-only    disable all run starts (ablation; livelocks on mergeless
                 shapes — pair with -max-rounds)
  -sequential    disable pipelining: new runs wait for the chain to be
                 run-free (ablation)

Activation model (default: the paper's fully synchronous rounds):
  -sched CONF    scheduler deciding which robots act each round:
                 fsync | rr:K | bounded:K[:p=P][:seed=S] | random[:p=P][:seed=S]
                 (see DESIGN.md §8; non-FSYNC runs scale the watchdog by
                 the inverse activation rate)

Strategy (default: the paper's algorithm):
  -strategy S    gathering strategy the engine drives: %s
                 (DESIGN.md §10; lintime is the linear-time global-vision
                 contraction — the -view/-period/-mergelen and ablation
                 flags only shape the paper strategy)

Execution and output:
  -check         per-round safety invariant checking (O(n)/round)
  -max-rounds N  override the liveness watchdog (default 0 = automatic:
                 %d*n+%d, scaled for non-FSYNC schedulers)
  -ascii N       print an ASCII frame every N rounds (default 0 = off)
  -json          print the full Result as JSON instead of the summary

Run lifecycle (DESIGN.md §11):
  -max-wall D    wall-clock budget (e.g. 30s, 5m; default 0 = none); on
                 expiry the run stops at a round boundary with a partial
                 summary (and a checkpoint, when -checkpoint is set)
  -checkpoint F  on SIGINT/SIGTERM or -max-wall expiry, write a resumable
                 checkpoint to F and exit with status %d (interrupt) —
                 finishing later via -resume reproduces the uninterrupted
                 run byte for byte
  -resume F      resume a checkpoint written by -checkpoint instead of
                 generating a chain (-shape/-size/-seed/-in and the
                 algorithm/scheduler flags are ignored: the checkpoint
                 carries them; -check/-max-wall still apply)

Examples:
  gathersim -shape spiral -size 512            # the classic worst case
  gathersim -shape walk -size 200 -seed 7 -ascii 25
  gathersim -shape rectangle -size 256 -sched rr:3
  gathersim -shape spiral -size 512 -strategy lintime
  gathersim -shape comb -size 300 -view 9 -period 5 -check
  gathersim -in chain.json -json               # re-run a saved chain
  gathersim -spec quick -item 3                # one item of a spec campaign
  gathersim -shape rectangle -size 2048 -checkpoint run.ckpt   # ^C to pause
  gathersim -resume run.ckpt                   # ... and finish later

On an engine error the exit status is non-zero and stderr carries the
exact start configuration as a ready-to-use -in seed.
`, strings.Join(generate.Names(), ", "),
		strings.Join(workload.PresetNames(), ", "),
		core.DefaultViewingPathLength, core.DefaultRunPeriod, core.DefaultMaxMergeLen,
		strings.Join(core.StrategyNames(), ", "),
		sim.DefaultWatchdogFactor, sim.DefaultWatchdogSlack, exitInterrupted)
}

func main() {
	var (
		shape     = flag.String("shape", "spiral", "workload family: "+strings.Join(generate.Names(), ", "))
		size      = flag.Int("size", 256, "approximate number of robots")
		seed      = flag.Int64("seed", 1, "random seed for randomized families")
		inFile    = flag.String("in", "", "read the initial chain from a JSON file instead of generating")
		asciiEach = flag.Int("ascii", 0, "print an ASCII frame every N rounds (0 = off)")
		jsonOut   = flag.Bool("json", false, "print the result as JSON")
		viewLen   = flag.Int("view", core.DefaultViewingPathLength, "viewing path length V")
		period    = flag.Int("period", core.DefaultRunPeriod, "run start period L")
		mergeLen  = flag.Int("mergelen", core.DefaultMaxMergeLen, "maximum merge pattern length")
		noRuns    = flag.Bool("merge-only", false, "disable runs (ablation)")
		seqRuns   = flag.Bool("sequential", false, "disable pipelining (ablation)")
		check     = flag.Bool("check", false, "enable per-round invariant checking")
		maxRounds = flag.Int("max-rounds", 0, "override the watchdog limit (0 = automatic)")
		schedFlag = flag.String("sched", "fsync", "activation scheduler: fsync, rr:K, bounded:K[:p=P][:seed=S], random[:p=P][:seed=S]")
		stratFlag = flag.String("strategy", "paper", "gathering strategy: "+strings.Join(core.StrategyNames(), ", "))
		maxWall   = flag.Duration("max-wall", 0, "wall-clock budget; the run stops at a round boundary on expiry (0 = none)")
		ckptFile  = flag.String("checkpoint", "", "write a resumable checkpoint to this file on SIGINT/SIGTERM or -max-wall expiry")
		resume    = flag.String("resume", "", "resume a checkpoint written by -checkpoint instead of generating a chain")
		specFlag  = flag.String("spec", "", "run one item of a campaign spec (preset name or YAML file) instead of generating a chain")
		itemFlag  = flag.Int("item", 0, "campaign item index to run with -spec")
	)
	flag.Usage = usage
	flag.Parse()

	// SIGINT/SIGTERM cancel the run's context: the engine stops at the next
	// round boundary with an untorn partial Result, checkpointable below.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	var rec *trace.Recorder
	if *asciiEach > 0 {
		rec = trace.NewRecorder()
		rec.Every = *asciiEach
	}

	var (
		eng      *sim.Engine
		seedJSON []byte // the start configuration, the repro seed on failure
		n, diam  int
		repro    string // reproduction hint of the failure path ("" = none)
	)
	if *resume != "" {
		cp, err := sim.ReadCheckpoint(*resume)
		if err != nil {
			fatal(err)
		}
		// Semantic parameters (algorithm config, scheduler, strategy) live
		// in the checkpoint; only runtime knobs come from flags.
		ropts := sim.Options{
			CheckInvariants: *check,
			MaxWallTime:     *maxWall,
		}
		if rec != nil {
			ropts.Observer = rec
		}
		eng, err = sim.Restore(cp, ropts)
		if err != nil {
			fatal(err)
		}
		if rec != nil {
			rec.InitialFrame(eng.Chain())
		}
		if seedJSON, err = json.Marshal(eng.Chain()); err != nil {
			fatal(err)
		}
		n, diam = cp.Result.InitialLen, cp.Result.InitialDiameter
		fmt.Fprintf(os.Stderr, "gathersim: resuming %s at round %d (%d robots left)\n",
			*resume, cp.Result.Rounds, eng.Chain().Len())
	} else {
		var (
			ch   *chain.Chain
			opts sim.Options
		)
		if *specFlag != "" {
			// Spec mode: the campaign item carries the whole semantic cell
			// (chain, config, scheduler, strategy, round budget); only the
			// runtime knobs come from flags.
			sp, err := workload.Load(*specFlag)
			if err != nil {
				fatal(err)
			}
			it, err := sp.ExpandItem(*itemFlag)
			if err != nil {
				fatal(err)
			}
			if ch, err = it.Chain(); err != nil {
				fatal(err)
			}
			opts = it.Options()
			opts.CheckInvariants = *check
			opts.MaxWallTime = *maxWall
			if *maxRounds > 0 {
				opts.MaxRounds = *maxRounds
			}
			fmt.Fprintf(os.Stderr, "gathersim: spec %s item %d: %s n=%d sched=%s strategy=%s\n",
				*specFlag, it.Index, it.Family, it.N, it.Sched, it.Strategy)
			repro = fmt.Sprintf("gathersim: reproduce with: gathersim -spec %s -item %d, or via -in with the seed below\n",
				*specFlag, it.Index)
		} else {
			schedCfg, err := sched.Parse(*schedFlag)
			if err != nil {
				fatal(err)
			}
			strategy, err := core.ParseStrategy(*stratFlag)
			if err != nil {
				fatal(err)
			}
			if ch, err = loadChain(*inFile, *shape, *size, *seed); err != nil {
				fatal(err)
			}
			if *inFile == "" {
				repro = fmt.Sprintf("gathersim: reproduce with: gathersim -shape %s -size %d -seed %d -sched %s -strategy %s (flags as above), or via -in with the seed below\n",
					*shape, *size, *seed, schedCfg, strategy)
			}

			opts = sim.Options{
				Config: core.Config{
					ViewingPathLength: *viewLen,
					RunPeriod:         *period,
					MaxMergeLen:       *mergeLen,
					DisableRunStarts:  *noRuns,
					SequentialRuns:    *seqRuns,
				},
				CheckInvariants: *check,
				MaxRounds:       *maxRounds,
				Sched:           schedCfg,
				Strategy:        strategy,
				MaxWallTime:     *maxWall,
				// gathersim is the experimentation CLI: -mergelen exists to
				// explore the E11 livelock boundary, so the doomed-config
				// rejection (sim.ErrLivelockConfig) is opted out of here. The
				// serving layer (gatherd) keeps the rejection on.
				AllowLivelockConfig: true,
			}
		}
		if rec != nil {
			opts.Observer = rec
			rec.InitialFrame(ch)
		}

		// Serialise the start configuration before the engine consumes the
		// chain: on a watchdog or invariant failure this is the repro seed.
		var err error
		if seedJSON, err = json.Marshal(ch); err != nil {
			fatal(err)
		}
		n, diam = ch.Len(), ch.Diameter()
		eng, err = sim.NewEngine(ch, opts)
		if err != nil {
			// Pre-run failure (invalid configuration, invalid chain): nothing
			// was simulated, so a repro seed would only bury the real error.
			fatal(err)
		}
	}

	res, err := eng.RunContext(ctx)
	if interrupted := errors.Is(err, context.Canceled); interrupted || errors.Is(err, sim.ErrDeadline) {
		// Interrupt or wall-clock expiry: the partial Result is untorn and
		// the engine state checkpointable — flush both instead of dying
		// mid-table. A second ^C after stopSignals kills the process the
		// default way.
		stopSignals()
		fmt.Fprintf(os.Stderr, "gathersim: %v\n", err)
		fmt.Fprintf(os.Stderr, "gathersim: paused after %d rounds with %d/%d robots left\n",
			res.Rounds, res.FinalLen, n)
		if *ckptFile != "" {
			cp, cerr := eng.Checkpoint()
			if cerr == nil {
				cerr = sim.WriteCheckpoint(*ckptFile, cp)
			}
			if cerr != nil {
				fmt.Fprintln(os.Stderr, "gathersim: writing checkpoint:", cerr)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "gathersim: checkpoint written — finish with: gathersim -resume %s\n", *ckptFile)
		} else {
			fmt.Fprintln(os.Stderr, "gathersim: no -checkpoint path set; progress discarded")
		}
		if interrupted {
			os.Exit(exitInterrupted)
		}
		os.Exit(1)
	}
	if err != nil {
		// An engine error (invariant violation, watchdog, algorithm fault)
		// must fail loudly AND reproducibly: print the error, the exact
		// start configuration as a ready-to-use -in file, and the
		// generator flags, then exit non-zero. The partial result is shown
		// so the failure round is visible.
		fmt.Fprintf(os.Stderr, "gathersim: %v\n", err)
		fmt.Fprintf(os.Stderr, "gathersim: aborted after %d rounds with %d/%d robots left\n",
			res.Rounds, res.FinalLen, n)
		if repro != "" {
			fmt.Fprint(os.Stderr, repro)
		}
		fmt.Fprintf(os.Stderr, "gathersim: chain seed: %s\n", seedJSON)
		os.Exit(1)
	}

	if rec != nil {
		fmt.Print(trace.RenderAll(rec.Frames()))
		fmt.Println()
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fatal(err)
		}
		return
	}
	fmt.Print(summarize(res, n, diam))
}

// summarize renders the human-readable result summary. The output is a
// pure function of the result — identical runs must print identical
// summaries (the repo-wide deterministic-output contract), which is why
// the per-kind and per-reason breakdowns iterate fixed enum orders rather
// than Go's randomised map order.
func summarize(res sim.Result, n, diam int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "gathered %d robots in %d rounds (%.3f rounds/robot, diameter %d)\n",
		n, res.Rounds, res.RoundsPerRobot(), diam)
	fmt.Fprintf(&b, "merges: %d (in %d rounds, longest gap %d)\n",
		res.TotalMerges, res.TotalMergeRounds, res.LongestMergeGap)
	fmt.Fprintf(&b, "runs: %d started (%v), max %d active\n",
		res.TotalRunsStarted, kindSummary(res), res.MaxActiveRuns)
	fmt.Fprintf(&b, "run ends: %v\n", endSummary(res))
	fmt.Fprintf(&b, "pairs: %d started, %d good, %d progress (%d merged, %d cut short), lemma1 %d/%d violations\n",
		res.Pairs.PairsStarted, res.Pairs.GoodPairs, res.Pairs.ProgressPairs,
		res.Pairs.ProgressMerged, res.Pairs.ProgressUnresolved,
		res.Pairs.Lemma1Violations, res.Pairs.Lemma1Windows)
	if res.Anomalies.Total() > 0 {
		fmt.Fprintf(&b, "anomalies: %+v\n", res.Anomalies)
	}
	return b.String()
}

func loadChain(inFile, shape string, size int, seed int64) (*chain.Chain, error) {
	if inFile != "" {
		data, err := os.ReadFile(inFile)
		if err != nil {
			return nil, err
		}
		var ch chain.Chain
		if err := json.Unmarshal(data, &ch); err != nil {
			return nil, fmt.Errorf("decoding %s: %w", inFile, err)
		}
		return &ch, nil
	}
	return generate.Named(shape, size, rand.New(rand.NewSource(seed)))
}

func kindSummary(res sim.Result) string {
	var parts []string
	// Fixed StartKind order: iterating the map directly would reorder the
	// line between identical runs (map iteration order is randomised).
	for _, kind := range []core.StartKind{core.StartStairway, core.StartCorner} {
		if n := res.StartsByKind[kind]; n > 0 {
			parts = append(parts, fmt.Sprintf("%v: %d", kind, n))
		}
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, ", ")
}

func endSummary(res sim.Result) string {
	var parts []string
	for _, reason := range []core.TerminateReason{
		core.TermMerge, core.TermEndpoint, core.TermSequentRun,
		core.TermPassTargetGone, core.TermOpTargetGone, core.TermHostRemoved, core.TermStuck,
	} {
		if n := res.EndsByReason[reason]; n > 0 {
			parts = append(parts, fmt.Sprintf("%v: %d", reason, n))
		}
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, ", ")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gathersim:", err)
	os.Exit(1)
}
