package experiments

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"

	"gridgather/internal/analysis"
	"gridgather/internal/baseline"
	"gridgather/internal/chain"
	"gridgather/internal/core"
	"gridgather/internal/generate"
	"gridgather/internal/grid"
	"gridgather/internal/parallel"
	"gridgather/internal/sched"
	"gridgather/internal/sim"
)

// Params controls the suite's workload sizes and repetition counts.
type Params struct {
	// Seed drives all randomized workloads (deterministic suite).
	Seed int64
	// Trials per configuration of randomized workloads.
	Trials int
	// Sizes are the target robot counts of the scaling experiments.
	Sizes []int
	// Quick shrinks everything for smoke runs.
	Quick bool
	// Parallel is the worker count of the task pool; <= 0 selects
	// GOMAXPROCS. Results are identical for every value (the determinism
	// contract of internal/parallel).
	Parallel int
	// Sched is the activation model the suite's round simulations run
	// under (internal/sched; zero value = FSYNC, the paper's model and the
	// recorded EXPERIMENTS.md setting). It applies to every experiment
	// that gathers through the round engine (E1, E2/E3, E4, E8, and the
	// E10–E13 ablations). It does not apply where a scheduler has no
	// meaning: E9's one-round structural probe of the FSYNC start
	// patterns, E12's global-vision contraction (the lintime strategy,
	// always run under FSYNC) and its open-chain hoppers. The scheduler
	// axis itself is swept by ESched regardless of this field.
	Sched sched.Config
	// Strategy is the gathering strategy the suite's round simulations
	// drive (core.NewStrategy; zero value = the paper's algorithm, the
	// recorded EXPERIMENTS.md setting). Like Sched it applies to the
	// experiments that gather through the round engine; the paper-specific
	// accounting columns (pairs, runs, start kinds) read as zero under a
	// strategy without that machinery. The strategy axis itself is swept
	// head-to-head by EStrat regardless of this field.
	Strategy core.StrategyName
	// Context, when non-nil, bounds every experiment grid: on cancellation
	// no new grid cells are dispatched, in-flight simulations finish, and
	// the experiment returns the context's error (cmd/gatherbench uses this
	// to drain cleanly on SIGINT and still flush the experiments that
	// completed). Nil means context.Background() — run to completion.
	Context context.Context
}

// ctx resolves the grid context, defaulting to Background.
func (p Params) ctx() context.Context {
	if p.Context == nil {
		return context.Background()
	}
	return p.Context
}

// gatherOpts returns the sim options of a suite simulation: the suite-wide
// activation model and gathering strategy plus any per-experiment extras
// the caller sets.
func (p Params) gatherOpts() sim.Options {
	return sim.Options{Sched: p.Sched, Strategy: p.Strategy}
}

// withSched stamps the suite-wide activation model and gathering strategy
// onto options built by the ablation presets (baseline.*Options), which
// know nothing about either.
func (p Params) withSched(opts sim.Options) sim.Options {
	opts.Sched = p.Sched
	opts.Strategy = p.Strategy
	return opts
}

func (p Params) normalized() Params {
	if p.Trials <= 0 {
		p.Trials = 3
	}
	if len(p.Sizes) == 0 {
		p.Sizes = []int{128, 256, 512}
	}
	if p.Quick {
		p.Trials = 2
		p.Sizes = []int{64, 128, 256}
	}
	return p
}

// Outcome is one experiment's rendered result.
type Outcome struct {
	ID     string
	Title  string
	Tables []*analysis.Table
	Notes  []string
	// Tasks counts the grid cells (independent simulations) executed
	// through the worker pool — the unit of the harness's throughput.
	Tasks int
}

// seeded wraps fn as a pool task owning the deterministic RNG of grid cell
// (config, trial) under the experiment's seed offset. All experiment
// randomness must flow through this helper: it is what makes results
// independent of worker count and scheduling.
func seeded[T any](p Params, offset int64, config, trial int, fn func(*rand.Rand) (T, error)) parallel.Task[T] {
	return func(int) (T, error) {
		rng := rand.New(rand.NewSource(parallel.TaskSeed(p.Seed+offset, config, trial)))
		return fn(rng)
	}
}

// All runs the executable experiments in order. (E5–E7 are figure-mechanic
// scenario tests in internal/core; the suite notes where they live.)
func All(p Params) ([]Outcome, error) {
	runs := []func(Params) (Outcome, error){
		E1Theorem1,
		E2E3Lemmas,
		E4RunHealth,
		E8Pipelining,
		E9MergelessStructure,
		E10AblationRunPeriod,
		E11AblationMergeLen,
		E12Baselines,
		E13AblationView,
		ESched,
		EStrat,
	}
	var out []Outcome
	for _, f := range runs {
		o, err := f(p)
		if err != nil {
			return out, err
		}
		out = append(out, o)
	}
	return out, nil
}

// Render serialises outcomes the way cmd/gatherbench prints them (and
// EXPERIMENTS.md records them): a section per experiment with its tables
// (markdown, or CSV when csv is set) and notes. The output is a pure
// function of the outcomes, so it doubles as the byte-identity witness of
// the determinism tests.
func Render(outs []Outcome, csv bool) string {
	var b strings.Builder
	for _, o := range outs {
		fmt.Fprintf(&b, "## %s — %s\n\n", o.ID, o.Title)
		for _, tb := range o.Tables {
			if csv {
				b.WriteString(tb.CSV())
			} else {
				b.WriteString(tb.Markdown())
			}
			b.WriteString("\n")
		}
		for _, note := range o.Notes {
			fmt.Fprintf(&b, "- %s\n", note)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// scalingShapes are the workload families of the Theorem 1 sweep.
var scalingShapes = []string{"rectangle", "spiral", "comb", "serpentine", "walk", "polyomino"}

// buildShape instantiates a named family near the target size.
func buildShape(name string, size int, rng *rand.Rand) (*chain.Chain, error) {
	return generate.Named(name, size, rng)
}

// E1Theorem1 sweeps chain sizes per workload family, measures rounds to
// gathering and fits rounds against n: Theorem 1 predicts a linear bound.
func E1Theorem1(p Params) (Outcome, error) {
	p = p.normalized()
	o := Outcome{ID: "E1", Title: "Theorem 1 — linear-time gathering (rounds vs n)"}
	type cfg struct {
		shape string
		size  int
	}
	var cfgs []cfg
	for _, shape := range scalingShapes {
		for _, size := range p.Sizes {
			cfgs = append(cfgs, cfg{shape, size})
		}
	}
	type sample struct {
		n, rounds, merges, runs, active int
	}
	var tasks []parallel.Task[sample]
	for ci, c := range cfgs {
		for trial := 0; trial < p.Trials; trial++ {
			tasks = append(tasks, seeded(p, 1, ci, trial, func(rng *rand.Rand) (sample, error) {
				ch, err := buildShape(c.shape, c.size, rng)
				if err != nil {
					return sample{}, err
				}
				n := ch.Len()
				res, err := sim.Gather(ch, p.gatherOpts())
				if err != nil {
					return sample{}, fmt.Errorf("E1 %s n=%d: %w", c.shape, n, err)
				}
				return sample{n, res.Rounds, res.TotalMerges, res.TotalRunsStarted, res.MaxActiveRuns}, nil
			}))
		}
	}
	flat, err := parallel.RunContext(p.ctx(), p.Parallel, tasks)
	if err != nil {
		return o, err
	}
	o.Tasks = len(tasks)

	detail := analysis.NewTable("shape", "n", "rounds", "rounds/n", "merges", "runs", "max active runs")
	fits := analysis.NewTable("shape", "slope (rounds per robot)", "intercept", "R2")
	for si, shape := range scalingShapes {
		var xs, ys []float64
		for zi := range p.Sizes {
			ci := si*len(p.Sizes) + zi
			var rounds, merges, runs, active, ns analysis.Series
			for trial := 0; trial < p.Trials; trial++ {
				s := flat[ci*p.Trials+trial]
				ns.AddInt(s.n)
				rounds.AddInt(s.rounds)
				merges.AddInt(s.merges)
				runs.AddInt(s.runs)
				active.AddInt(s.active)
				xs = append(xs, float64(s.n))
				ys = append(ys, float64(s.rounds))
			}
			meanN := ns.Mean()
			detail.AddRow(shape,
				fmt.Sprintf("%.0f", meanN),
				fmt.Sprintf("%.0f ± %.0f", rounds.Mean(), rounds.Std()),
				fmt.Sprintf("%.3f", rounds.Mean()/meanN),
				fmt.Sprintf("%.0f", merges.Mean()),
				fmt.Sprintf("%.0f", runs.Mean()),
				fmt.Sprintf("%.0f", active.Mean()))
		}
		fit, err := analysis.LinearFit(xs, ys)
		if err != nil {
			return o, err
		}
		fits.AddRow(shape,
			fmt.Sprintf("%.4f", fit.Slope),
			fmt.Sprintf("%.1f", fit.Intercept),
			fmt.Sprintf("%.4f", fit.R2))
	}
	o.Tables = []*analysis.Table{detail, fits}
	o.Notes = []string{
		"Theorem 1 bounds gathering by 2nL + n ≈ 27n rounds; the measured slopes are far below the worst-case constant and R² ≈ 1 confirms linearity per family.",
		"The initial diameter is a lower bound (Ω(n) on worst-case chains such as spirals up to constants).",
	}
	return o, nil
}

// E2E3Lemmas audits Lemma 1 (every L rounds a merge or a new progress
// pair) and Lemma 2 (progress pairs enable distinct merges) across the
// workload battery.
func E2E3Lemmas(p Params) (Outcome, error) {
	p = p.normalized()
	o := Outcome{ID: "E2/E3", Title: "Lemmas 1 and 2 — progress-pair accounting"}
	shapes := generate.Names()
	size := p.Sizes[len(p.Sizes)/2]
	type sample struct {
		n  int
		ps sim.PairStats
	}
	var tasks []parallel.Task[sample]
	for si, shape := range shapes {
		for trial := 0; trial < p.Trials; trial++ {
			tasks = append(tasks, seeded(p, 2, si, trial, func(rng *rand.Rand) (sample, error) {
				ch, err := buildShape(shape, size, rng)
				if err != nil {
					return sample{}, err
				}
				n := ch.Len()
				res, err := sim.Gather(ch, p.gatherOpts())
				if err != nil {
					return sample{}, fmt.Errorf("E2/E3 %s: %w", shape, err)
				}
				return sample{n, res.Pairs}, nil
			}))
		}
	}
	flat, err := parallel.RunContext(p.ctx(), p.Parallel, tasks)
	if err != nil {
		return o, err
	}
	o.Tasks = len(tasks)

	// The table shows trial 0 per shape; the lemma-critical counters of
	// every trial are summed below so no violation is discarded.
	var conflicts, violations, windows int
	for _, s := range flat {
		conflicts += s.ps.CreditConflicts
		violations += s.ps.Lemma1Violations
		windows += s.ps.Lemma1Windows
	}
	tb := analysis.NewTable("shape", "n", "pairs", "good", "progress",
		"progress→merge", "cut short", "credit conflicts", "L1 windows", "L1 violations")
	for si, shape := range shapes {
		s := flat[si*p.Trials]
		ps := s.ps
		tb.AddRow(shape,
			fmt.Sprintf("%d", s.n),
			fmt.Sprintf("%d", ps.PairsStarted),
			fmt.Sprintf("%d", ps.GoodPairs),
			fmt.Sprintf("%d", ps.ProgressPairs),
			fmt.Sprintf("%d", ps.ProgressMerged),
			fmt.Sprintf("%d", ps.ProgressUnresolved),
			fmt.Sprintf("%d", ps.CreditConflicts),
			fmt.Sprintf("%d", ps.Lemma1Windows),
			fmt.Sprintf("%d", ps.Lemma1Violations))
	}
	o.Tables = []*analysis.Table{tb}
	o.Notes = []string{
		"Lemma 2.a: every progress pair enables a merge — 'cut short' counts pairs overtaken by gathering itself (the lemma grants them n more rounds).",
		"Lemma 2.b: credit conflicts (two pairs enabling the same merge) must be 0.",
		"Lemma 1: violations (a 13-round window with neither a merge nor a new good pair on an ungathered chain) must be 0.",
		fmt.Sprintf("Audit across all %d trials: %d Lemma 1 violations in %d windows, %d credit conflicts.",
			len(flat), violations, windows, conflicts),
	}
	return o, nil
}

// E4RunHealth reports the Lemma 3 side conditions: termination-reason mix,
// defensive-path anomaly counts and run-storage bounds.
func E4RunHealth(p Params) (Outcome, error) {
	p = p.normalized()
	o := Outcome{ID: "E4", Title: "Lemma 3 — run invariants and lifecycle health"}
	size := p.Sizes[len(p.Sizes)/2]
	type sample struct {
		runs      int
		ends      map[core.TerminateReason]int
		anomalies int
	}
	var tasks []parallel.Task[sample]
	for si, shape := range scalingShapes {
		tasks = append(tasks, seeded(p, 4, si, 0, func(rng *rand.Rand) (sample, error) {
			ch, err := buildShape(shape, size, rng)
			if err != nil {
				return sample{}, err
			}
			opts := p.gatherOpts()
			opts.CheckInvariants = true
			res, err := sim.Gather(ch, opts)
			if err != nil {
				return sample{}, fmt.Errorf("E4 %s: %w", shape, err)
			}
			return sample{res.TotalRunsStarted, res.EndsByReason, res.Anomalies.Total()}, nil
		}))
	}
	flat, err := parallel.RunContext(p.ctx(), p.Parallel, tasks)
	if err != nil {
		return o, err
	}
	o.Tasks = len(tasks)

	tb := analysis.NewTable("shape", "runs", "end: merge", "end: endpoint",
		"end: sequent", "end: target gone", "anomalies")
	for si, shape := range scalingShapes {
		s := flat[si]
		e := s.ends
		tb.AddRow(shape,
			fmt.Sprintf("%d", s.runs),
			fmt.Sprintf("%d", e[core.TermMerge]),
			fmt.Sprintf("%d", e[core.TermEndpoint]),
			fmt.Sprintf("%d", e[core.TermSequentRun]),
			fmt.Sprintf("%d", e[core.TermPassTargetGone]+e[core.TermOpTargetGone]),
			fmt.Sprintf("%d", s.anomalies))
	}
	o.Tables = []*analysis.Table{tb}
	o.Notes = []string{
		"Runs advance one robot per round and live on quasi lines by construction; the engine verifies connectivity, king-step moves and the two-run storage bound every round (CheckInvariants).",
		"Merge-participation endings are the productive ones (good pairs); endpoint/sequent endings are the paper's pipelining housekeeping.",
	}
	return o, nil
}

// E8Pipelining measures run-generation overlap on squares: pipelining
// depth grows with n while rounds/n stays bounded (Fig 9).
func E8Pipelining(p Params) (Outcome, error) {
	p = p.normalized()
	o := Outcome{ID: "E8", Title: "Fig 9 — pipelining depth vs chain size"}
	type sample struct {
		side, n, rounds, runs, active int
	}
	var tasks []parallel.Task[sample]
	for zi, size := range p.Sizes {
		// Deterministic workload: the RNG of the cell is unused.
		tasks = append(tasks, seeded(p, 8, zi, 0, func(_ *rand.Rand) (sample, error) {
			side := size / 4
			ch, err := generate.Rectangle(side, side)
			if err != nil {
				return sample{}, err
			}
			n := ch.Len()
			res, err := sim.Gather(ch, p.gatherOpts())
			if err != nil {
				return sample{}, fmt.Errorf("E8 side=%d: %w", side, err)
			}
			return sample{side, n, res.Rounds, res.TotalRunsStarted, res.MaxActiveRuns}, nil
		}))
	}
	flat, err := parallel.RunContext(p.ctx(), p.Parallel, tasks)
	if err != nil {
		return o, err
	}
	o.Tasks = len(tasks)

	tb := analysis.NewTable("side", "n", "rounds", "rounds/n", "runs started", "max active runs")
	for _, s := range flat {
		tb.AddRowf(fmt.Sprintf("%d", s.side), s.n, s.rounds,
			float64(s.rounds)/float64(s.n), s.runs, s.active)
	}
	o.Tables = []*analysis.Table{tb}
	o.Notes = []string{
		"New run generations start every L = 13 rounds while older generations are still travelling; max active runs grows with n, keeping rounds/n bounded.",
	}
	return o, nil
}

// E9MergelessStructure verifies the structural heart of Lemma 1's proof
// (Fig 16–18): random Mergeless Chains decompose into quasi lines and
// stairways, and a good pair always starts.
func E9MergelessStructure(p Params) (Outcome, error) {
	p = p.normalized()
	o := Outcome{ID: "E9", Title: "Fig 16–18 — mergeless chains decompose into quasi lines + stairways and always start a good pair"}
	trials := 4 * p.Trials
	type sample struct {
		n, quasiLines, stairways, irregular, starts int
		mergeless, good                             bool
	}
	var tasks []parallel.Task[sample]
	for trial := 0; trial < trials; trial++ {
		tasks = append(tasks, seeded(p, 9, 0, trial, func(rng *rand.Rand) (sample, error) {
			ch, err := generate.MergelessPolyomino(3+rng.Intn(8), core.DefaultMaxMergeLen, rng)
			if err != nil {
				return sample{}, err
			}
			mergeless := len(core.DetectMerges(ch, core.DefaultMaxMergeLen)) == 0
			st := core.Stats(core.Decompose(ch))
			alg, err := core.New(ch, core.DefaultConfig())
			if err != nil {
				return sample{}, err
			}
			rep, err := alg.StepActivated(nil)
			if err != nil {
				return sample{}, err
			}
			good := false
			for _, s := range rep.Starts {
				if s.Pair >= 0 && s.Good {
					good = true
				}
			}
			return sample{rep.ChainLen, st.QuasiLines, st.Stairways, st.Irregular,
				len(rep.Starts), mergeless, good}, nil
		}))
	}
	flat, err := parallel.RunContext(p.ctx(), p.Parallel, tasks)
	if err != nil {
		return o, err
	}
	o.Tasks = len(tasks)

	tb := analysis.NewTable("trial", "n", "mergeless", "quasi lines", "stairways",
		"irregular", "starts", "good pair found")
	found := 0
	irregularTotal := 0
	for trial, s := range flat {
		irregularTotal += s.irregular
		if s.good {
			found++
		}
		if trial < 8 {
			tb.AddRow(fmt.Sprintf("%d", trial),
				fmt.Sprintf("%d", s.n),
				fmt.Sprintf("%v", s.mergeless),
				fmt.Sprintf("%d", s.quasiLines),
				fmt.Sprintf("%d", s.stairways),
				fmt.Sprintf("%d", s.irregular),
				fmt.Sprintf("%d", s.starts),
				fmt.Sprintf("%v", s.good))
		}
		if !s.mergeless {
			return o, fmt.Errorf("E9 trial %d: inflated polyomino was not mergeless", trial)
		}
	}
	o.Tables = []*analysis.Table{tb}
	o.Notes = []string{
		fmt.Sprintf("Good pair found in %d/%d random mergeless chains (Lemma 1 predicts always).", found, trials),
		fmt.Sprintf("Irregular decomposition segments across all trials: %d (the proof of Lemma 1 predicts 0: mergeless chains are quasi lines connected by stairways).", irregularTotal),
	}
	if found != trials {
		o.Notes = append(o.Notes, "WARNING: some mergeless chains started no good pair.")
	}
	return o, nil
}

// ablationSample is one rendered cell of the E10/E11/E13 parameter sweeps.
type ablationSample struct {
	n              int
	rounds, status string
	anomalies      int
}

// gatherAblation runs one ablation cell, folding a watchdog DNF into the
// rendered status instead of an error.
func gatherAblation(ch *chain.Chain, opts sim.Options) (ablationSample, error) {
	n := ch.Len()
	res, err := sim.Gather(ch, opts)
	s := ablationSample{n: n, rounds: fmt.Sprintf("%d", res.Rounds), status: "yes",
		anomalies: res.Anomalies.Total()}
	if err != nil {
		switch {
		case errors.Is(err, sim.ErrWatchdog):
			s.rounds, s.status = "—", "no (watchdog)"
		case errors.Is(err, sim.ErrStalled):
			s.rounds, s.status = "—", "no (stalled)"
		default:
			return s, err
		}
	}
	return s, nil
}

// ablationSweep runs one controlled ablation grid, values × shapes, and
// returns its samples value-major. Every value is tried on the same chain
// per shape: a cell is seeded by its shape index only, under the
// experiment's seed offset. opts builds a cell's options from its value;
// the suite's scheduler and strategy are stamped on top. A cell's error
// names the experiment's label, the value and the shape.
func ablationSweep(p Params, offset int64, label string, values []int, shapes []string, opts func(int) sim.Options) ([]ablationSample, error) {
	size := p.Sizes[min(1, len(p.Sizes)-1)]
	var tasks []parallel.Task[ablationSample]
	for _, v := range values {
		for si, shape := range shapes {
			tasks = append(tasks, seeded(p, offset, si, 0, func(rng *rand.Rand) (ablationSample, error) {
				ch, err := buildShape(shape, size, rng)
				if err != nil {
					return ablationSample{}, err
				}
				s, err := gatherAblation(ch, p.withSched(opts(v)))
				if err != nil {
					return s, fmt.Errorf("%s=%d %s: %w", label, v, shape, err)
				}
				return s, nil
			}))
		}
	}
	return parallel.RunContext(p.ctx(), p.Parallel, tasks)
}

// E10AblationRunPeriod sweeps the pipelining period L around the paper's
// 13 (§5.2 couples L >= 13 to the viewing path length).
func E10AblationRunPeriod(p Params) (Outcome, error) {
	p = p.normalized()
	o := Outcome{ID: "E10", Title: "Ablation — run period L (paper: 13)"}
	Ls := []int{5, 9, 13, 17, 21, 26}
	shapes := []string{"rectangle", "spiral"}
	flat, err := ablationSweep(p, 10, "E10 L", Ls, shapes, baseline.RunPeriodOptions)
	if err != nil {
		return o, err
	}
	o.Tasks = len(flat)

	tb := analysis.NewTable("L", "shape", "n", "rounds", "gathered", "anomalies")
	for li, L := range Ls {
		for si, shape := range shapes {
			s := flat[li*len(shapes)+si]
			tb.AddRow(fmt.Sprintf("%d", L), shape, fmt.Sprintf("%d", s.n),
				s.rounds, s.status, fmt.Sprintf("%d", s.anomalies))
		}
	}
	o.Tables = []*analysis.Table{tb}
	o.Notes = []string{
		"Smaller L starts pairs more eagerly (fewer idle rounds) but tightens run spacing; the paper's proof needs L >= 13 to keep sequent runs from disturbing each other's passing operations.",
	}
	return o, nil
}

// E11AblationMergeLen sweeps the merge detection length. The paper's
// analysis only relies on length 2, but the runner operations hand over to
// merges at segment length <= max(3, …): below 3 the good-pair endgame
// cannot complete and the system live-locks.
func E11AblationMergeLen(p Params) (Outcome, error) {
	p = p.normalized()
	o := Outcome{ID: "E11", Title: "Ablation — merge detection length (implementation bound: V-1 = 10)"}
	ks := []int{2, 3, 4, 6, 8, 10}
	shapes := []string{"rectangle", "walk"}
	flat, err := ablationSweep(p, 11, "E11 k", ks, shapes, baseline.MergeLenOptions)
	if err != nil {
		return o, err
	}
	o.Tasks = len(flat)

	tb := analysis.NewTable("max merge len", "shape", "n", "rounds", "gathered")
	for ki, k := range ks {
		for si, shape := range shapes {
			s := flat[ki*len(shapes)+si]
			tb.AddRow(fmt.Sprintf("%d", k), shape, fmt.Sprintf("%d", s.n), s.rounds, s.status)
		}
	}
	o.Tables = []*analysis.Table{tb}
	o.Notes = []string{
		"k = 2 (the analysis minimum) is not executable: a good pair shrinking an odd segment reaches length 3 and stalls — the implementation needs k >= 3; larger k merges more eagerly and speeds gathering.",
	}
	return o, nil
}

// E12Baselines compares the paper's algorithm against the ablations, the
// global-vision contraction (the lintime strategy under FSYNC), and the
// open-chain strategies it generalises.
func E12Baselines(p Params) (Outcome, error) {
	p = p.normalized()
	o := Outcome{ID: "E12", Title: "Baselines — closed chain vs ablations, global vision, open chains"}
	size := p.Sizes[min(1, len(p.Sizes)-1)]
	closedShapes := []string{"rectangle", "spiral", "polyomino"}

	var closedTasks []parallel.Task[[]string]
	for si, shape := range closedShapes {
		closedTasks = append(closedTasks, seeded(p, 12, si, 0, func(rng *rand.Rand) ([]string, error) {
			ref, err := buildShape(shape, size, rng)
			if err != nil {
				return nil, err
			}
			n := ref.Len()
			diam := ref.Diameter()
			row := []string{shape, fmt.Sprintf("%d", n)}
			for _, opt := range []sim.Options{
				p.withSched(baseline.PaperOptions()),
				p.withSched(baseline.SequentialRunsOptions()),
				p.withSched(baseline.MergeOnlyOptions()),
			} {
				opt.MaxRounds = 120*n + 400
				res, err := sim.Gather(ref.Clone(), opt)
				if err != nil {
					if !errors.Is(err, sim.ErrWatchdog) && !errors.Is(err, sim.ErrStalled) {
						return nil, fmt.Errorf("E12 %s: %w", shape, err)
					}
					row = append(row, "DNF")
					continue
				}
				row = append(row, fmt.Sprintf("%d", res.Rounds))
			}
			// Global vision is the lintime contraction, always under
			// FSYNC: the baseline's meaning does not follow the suite's
			// scheduler.
			gres, err := sim.Gather(ref.Clone(), sim.Options{Strategy: core.StrategyLinTime})
			if err != nil {
				return nil, fmt.Errorf("E12 contraction %s: %w", shape, err)
			}
			return append(row, fmt.Sprintf("%d", gres.Rounds), fmt.Sprintf("%d", diam)), nil
		}))
	}

	var openTasks []parallel.Task[[]string]
	for mi, m := range p.Sizes {
		// Offset the config index past the closed grid so the open chains
		// draw from distinct seed cells.
		openTasks = append(openTasks, seeded(p, 12, len(closedShapes)+mi, 0, func(rng *rand.Rand) ([]string, error) {
			pts := randomOpenWalk(m, rng)
			h, err := baseline.NewManhattanHopper(pts)
			if err != nil {
				return nil, err
			}
			hres, err := h.Run()
			if err != nil {
				return nil, fmt.Errorf("E12 hopper m=%d: %w", m, err)
			}
			eg, err := baseline.OpenEndpointGather(pts)
			if err != nil {
				return nil, err
			}
			return []string{fmt.Sprintf("%d", m), fmt.Sprintf("%d", hres.Rounds),
				fmt.Sprintf("%v", hres.Optimal), fmt.Sprintf("%d", eg)}, nil
		}))
	}

	rows, err := parallel.RunContext(p.ctx(), p.Parallel, append(closedTasks, openTasks...))
	if err != nil {
		return o, err
	}
	o.Tasks = len(rows)

	closed := analysis.NewTable("shape", "n", "paper", "sequential runs", "merge-only", "global contraction", "diameter")
	for _, row := range rows[:len(closedTasks)] {
		closed.AddRow(row...)
	}
	open := analysis.NewTable("open-chain stations", "hopper rounds (fixed ends)", "hopper optimal", "endpoint-gather rounds")
	for _, row := range rows[len(closedTasks):] {
		open.AddRow(row...)
	}
	o.Tables = []*analysis.Table{closed, open}
	o.Notes = []string{
		"Merge-only live-locks on merge-free shapes (DNF): the runner machinery is load-bearing, not an optimisation.",
		"Global contraction gathers in ~diameter/2 rounds — the price of the paper's strictly local model is the gap between that and the linear-in-n closed-chain time.",
		"Open chains: with fixed endpoints the Manhattan-Hopper reconstruction [KM09] shortens to the optimum in O(n); with mobile distinguishable endpoints gathering needs ~n/2 rounds — both linear, matching the closed-chain result's shape.",
	}
	return o, nil
}

// E13AblationView sweeps the viewing path length V (paper: 11; L = V + 2).
func E13AblationView(p Params) (Outcome, error) {
	p = p.normalized()
	o := Outcome{ID: "E13", Title: "Ablation — viewing path length V (paper: 11)"}
	vs := []int{7, 9, 11, 15, 21}
	shapes := []string{"rectangle", "spiral"}
	flat, err := ablationSweep(p, 13, "E13 V", vs, shapes, baseline.ViewOptions)
	if err != nil {
		return o, err
	}
	o.Tasks = len(flat)

	tb := analysis.NewTable("V", "L", "shape", "n", "rounds", "gathered")
	for vi, v := range vs {
		for si, shape := range shapes {
			s := flat[vi*len(shapes)+si]
			tb.AddRow(fmt.Sprintf("%d", v), fmt.Sprintf("%d", v+2), shape,
				fmt.Sprintf("%d", s.n), s.rounds, s.status)
		}
	}
	o.Tables = []*analysis.Table{tb}
	o.Notes = []string{
		"The paper proves V = 11 suffices (with L = 13); larger V merges longer segments and slightly reduces rounds. Below the proven constants the spacing argument of Lemma 3 no longer holds, though small inputs may still gather.",
	}
	return o, nil
}

// randomOpenWalk builds a valid open chain of m stations.
func randomOpenWalk(m int, rng *rand.Rand) []grid.Vec {
	pts := []grid.Vec{grid.Zero}
	p := grid.Zero
	for len(pts) < m {
		d := grid.AxisDirs[rng.Intn(4)]
		p = p.Add(d)
		pts = append(pts, p)
	}
	return pts
}
