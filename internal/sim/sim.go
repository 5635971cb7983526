package sim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime/debug"
	"time"

	"gridgather/internal/chain"
	"gridgather/internal/core"
	"gridgather/internal/grid"
	"gridgather/internal/sched"
)

// Default watchdog parameters. Theorem 1 bounds gathering by 2nL + n
// rounds (~27n for L = 13); the default allows a generous constant so the
// watchdog only fires on genuine liveness failures.
const (
	DefaultWatchdogFactor = 60
	DefaultWatchdogSlack  = 400
)

// Options configures a simulation.
type Options struct {
	// Config is the algorithm parameter set; zero value means defaults.
	Config core.Config
	// Strategy selects the gathering strategy the engine drives
	// (core.NewStrategy). The zero value is the paper's algorithm, so
	// every pre-arena call site and fixture keeps its meaning; "lintime"
	// selects the linear-time contraction successor (DESIGN.md §10). Names
	// are read through core.ParseStrategy, so "paper" is the zero value.
	Strategy core.StrategyName
	// MaxRounds overrides the watchdog limit when positive; otherwise the
	// limit is WatchdogFactor*n + WatchdogSlack.
	MaxRounds int
	// WatchdogFactor/WatchdogSlack tune the default limit; zero values
	// fall back to the package defaults.
	WatchdogFactor int
	WatchdogSlack  int
	// CheckInvariants enables the per-round safety checks (edge validity
	// is always enforced by core; this adds the post-merge and movement
	// checks). Costs O(n) per round.
	CheckInvariants bool
	// Observer, when non-nil, is invoked after every round.
	Observer Observer
	// Sched selects the activation model (internal/sched): which robots
	// perform their look–compute–move cycle in which round. The zero
	// value is FSYNC — every robot every round, the paper's model: the
	// engine passes nil, which strategies step exactly like an all-true
	// set, and draws, records and stall-checks nothing. Non-FSYNC
	// schedulers scale the default watchdog limit by the inverse of the
	// scheduler's minimum activation rate.
	Sched sched.Config
	// MaxWallTime, when positive, aborts Run/RunContext at the first
	// round boundary at least this long after RunContext starts,
	// returning ErrDeadline with an untorn partial Result (DESIGN.md §11).
	// Zero means no wall-clock limit. It is a runtime-side knob: it never
	// enters checkpoints, and a resumed run gets whatever limit the
	// resuming process configures. An absolute deadline is a
	// context.WithDeadline passed to RunContext.
	MaxWallTime time.Duration
	// Workers is retired and ignored: every round runs on the goroutine
	// that steps (DESIGN.md §9). It never reaches Config.Workers, so a
	// checkpoint's bytes do not depend on it. The field stays so that
	// existing callers that set it still compile.
	Workers int
	// AllowLivelockConfig opts into configurations that Validate rejects as
	// provable livelocks — today MaxMergeLen < V-1 under the paper strategy,
	// which parks every square-ring endgame whose side exceeds MaxMergeLen
	// forever (experiment E11 and the stress sharpening in
	// internal/oracle/configspace.go). The ablation harness and the
	// experiment CLIs set it deliberately; the serving layer never does.
	AllowLivelockConfig bool
}

// Validate checks the options the way NewEngine will: the (defaulted)
// algorithm config, the scheduler config, the strategy name, and the
// livelock rejection below. It is the admission check of the serving layer
// (internal/serve): a job that fails Validate is refused before any engine
// or chain is built.
func (o Options) Validate() error {
	cfg := o.Config
	if cfg == (core.Config{}) {
		cfg = core.DefaultConfig()
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	if err := o.Sched.Validate(); err != nil {
		return err
	}
	strat, err := core.ParseStrategy(string(o.Strategy))
	if err != nil {
		return err
	}
	// The E11 livelock wall: under the paper strategy any MaxMergeLen below
	// the V-1 maximum provably live-locks square-ring endgames whose side
	// exceeds it — engine and model in perfect agreement, burning the whole
	// watchdog budget before surfacing as a DNF. Reject up front unless the
	// caller explicitly asked for the ablation. (cfg.Validate clamped
	// MaxMergeLen into [1, V-1] above, so only genuinely reduced values
	// reach this comparison.)
	if strat == core.StrategyPaper && !o.AllowLivelockConfig &&
		cfg.MaxMergeLen < cfg.ViewingPathLength-1 {
		return fmt.Errorf("%w: MaxMergeLen %d < V-1 = %d parks every square-ring endgame with side > %d forever (E11); use MaxMergeLen = %d or set AllowLivelockConfig for deliberate ablations",
			ErrLivelockConfig, cfg.MaxMergeLen, cfg.ViewingPathLength-1,
			cfg.MaxMergeLen, cfg.ViewingPathLength-1)
	}
	return nil
}

// Observer receives the chain state after each executed round. The chain
// must be treated as read-only.
type Observer interface {
	OnRound(ch *chain.Chain, rep core.RoundReport)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(ch *chain.Chain, rep core.RoundReport)

// OnRound implements Observer.
func (f ObserverFunc) OnRound(ch *chain.Chain, rep core.RoundReport) { f(ch, rep) }

// Result aggregates a finished (or aborted) simulation.
type Result struct {
	// Rounds is the number of rounds executed until gathering.
	Rounds int
	// InitialLen and FinalLen are the chain lengths before and after.
	InitialLen int
	FinalLen   int
	// InitialDiameter is the LInf diameter of the start configuration,
	// the paper's lower-bound witness.
	InitialDiameter int
	// Strategy names the gathering strategy that produced this result, so
	// replay and the future result cache can key on it. The zero value
	// (the paper strategy) is omitted from the JSON — results and golden
	// fixtures recorded before the strategy arena stay byte-identical,
	// and an absent field always means "paper".
	Strategy core.StrategyName `json:"Strategy,omitempty"`
	// Termination records the engine safeguard that ended the whole run
	// early, when one did: core.TermStalled for the no-progress detector
	// (ErrStalled). The zero value — a run that gathered, or DNFed some
	// other way — is omitted from the JSON, so results and golden fixtures
	// recorded before the detector stay byte-identical.
	Termination core.TerminateReason `json:"Termination,omitempty"`
	// Gathered reports success (false only when an error aborted the run).
	Gathered bool

	// Totals over the whole simulation.
	TotalMerges      int
	TotalMergeRounds int // rounds in which at least one merge happened
	TotalRunsStarted int
	TotalRunnerHops  int
	TotalMergeHops   int
	TotalStartHops   int
	StartsByKind     map[core.StartKind]int
	EndsByReason     map[core.TerminateReason]int
	MaxActiveRuns    int
	LongestMergeGap  int // longest streak of rounds without a merge
	Anomalies        core.Anomalies

	// Pairs carries the run-pair accounting backing the Lemma 1 and
	// Lemma 2 experiments (see internal/sim/instrument.go).
	Pairs PairStats
}

// RoundsPerRobot returns Rounds / InitialLen, the empirical constant of
// Theorem 1.
func (r Result) RoundsPerRobot() float64 {
	if r.InitialLen == 0 {
		return 0
	}
	return float64(r.Rounds) / float64(r.InitialLen)
}

// Watchdog, invariant and lifecycle errors.
var (
	ErrWatchdog  = errors.New("sim: watchdog expired before gathering (liveness failure)")
	ErrInvariant = errors.New("sim: safety invariant violated")
	// ErrDeadline aborts a run whose Options.MaxWallTime passed before
	// gathering. Like a cancellation it is a clean round-boundary
	// stop: the returned Result is complete for the rounds executed.
	ErrDeadline = errors.New("sim: wall-clock limit reached before gathering")
	// ErrStalled is the no-progress verdict under non-FSYNC schedulers: a
	// full activation window passed without a single hop, merge or
	// bounding-box change, so the simulation is at a fixpoint it cannot
	// leave (the documented lintime suppression stall, and true scheduler
	// livelocks of the paper strategy such as rr:5 on square rings). It is
	// a clean, deterministic DNF — the Result is sealed at a round
	// boundary with Termination = core.TermStalled, checkpoint/resume
	// reproduces it exactly — surfaced orders of magnitude earlier than
	// the watchdog limit.
	ErrStalled = errors.New("sim: no progress across a full activation window (livelock)")
	// ErrLivelockConfig rejects configurations known to livelock by
	// construction rather than by bug: see Options.Validate and
	// Options.AllowLivelockConfig.
	ErrLivelockConfig = errors.New("sim: configuration provably livelocks")
)

// PanicError is what a panicking round surfaces as: Step recovers a panic
// escaping the strategy, wraps it with the round it happened in,
// and poisons the engine (every further Step and Checkpoint refuses),
// because a half-executed round may have left the chain mid-mutation and
// nothing downstream may trust it again. The campaign layers convert it
// into a per-task failure instead of a process crash (DESIGN.md §11).
type PanicError struct {
	// Round is the round counter at the time of the panic.
	Round int
	// Value is the original panic value.
	Value any
	// Stack is the stack of the goroutine the panic was recovered on,
	// which is the goroutine that stepped the round.
	Stack []byte
}

// Error renders the failure with its round.
func (e *PanicError) Error() string {
	return fmt.Sprintf("sim: strategy panicked in round %d: %v", e.Round, e.Value)
}

// Unwrap exposes a panic value that is itself an error (such as a
// runtime.Error), so errors.Is and errors.As reach it.
func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// Engine wraps a core.Strategy with checking and accounting.
type Engine struct {
	alg     core.Strategy
	opts    Options
	res     Result
	tracker *pairTracker

	// sched is the activation model; activeBuf is the per-round activation
	// set it fills (nil under FSYNC).
	sched     sched.Scheduler
	activeBuf []bool
	// schedLens records, for every executed non-FSYNC round, the chain
	// length its activation set was drawn for; replaying Activate over it
	// rebuilds the scheduler's RNG state exactly (checkpoint.go). Always
	// empty under FSYNC.
	schedLens []int
	// broken poisons the engine after a recovered strategy panic: every
	// further Step returns the same *PanicError and Checkpoint refuses, so
	// a half-mutated round can never leak into results or resume artefacts.
	broken error

	mergeGap int
	// stallStreak counts consecutive executed rounds without progress (no
	// hop, no merge, no bounding-box change) under a non-FSYNC scheduler.
	// Once it reaches stallWindow() — a full activation cycle, scaled by
	// the inverse activation rate — the next Step returns ErrStalled: the
	// simulation is at a fixpoint partial activation cannot leave, and
	// spinning to the watchdog limit would only burn wall-clock on the
	// same DNF. Always zero under FSYNC, where a no-progress round
	// already implies a permanent fixpoint handled by the watchdog (and
	// asserted against by the FSYNC liveness proofs).
	stallStreak int
	// prevPos and occupancy are per-round scratch for the invariant
	// checks: flat per-handle tables with O(1) generation clearing
	// (DESIGN.md §5/§6).
	prevPos   chain.Scratch[grid.Vec]
	occupancy chain.Scratch[int]
}

// NewEngine builds an engine for the chain. The chain is owned by the
// engine afterwards.
func NewEngine(ch *chain.Chain, opts Options) (*Engine, error) {
	if opts.Config == (core.Config{}) {
		opts.Config = core.DefaultConfig()
	}
	if opts.WatchdogFactor <= 0 {
		opts.WatchdogFactor = DefaultWatchdogFactor
	}
	if opts.WatchdogSlack <= 0 {
		opts.WatchdogSlack = DefaultWatchdogSlack
	}
	// Store the canonical strategy name, so "paper" runs, checkpoints and
	// serialises exactly like the zero value.
	strat, err := core.ParseStrategy(string(opts.Strategy))
	if err != nil {
		return nil, err
	}
	opts.Strategy = strat
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	schd, err := sched.New(opts.Sched)
	if err != nil {
		return nil, err
	}
	alg, err := core.NewStrategy(opts.Strategy, ch, opts.Config)
	if err != nil {
		return nil, err
	}
	e := &Engine{alg: alg, opts: opts, sched: schd, tracker: newPairTracker(opts.Config.RunPeriod)}
	e.res = Result{
		InitialLen:      ch.Len(),
		InitialDiameter: ch.Diameter(),
		Strategy:        opts.Strategy,
		StartsByKind:    make(map[core.StartKind]int),
		EndsByReason:    make(map[core.TerminateReason]int),
	}
	return e, nil
}

// stallWindow sizes the no-progress budget: the number of consecutive
// progress-free rounds after which Step returns ErrStalled. Under FSYNC the
// detector is off (math.MaxInt): a progress-free FSYNC round is already a
// permanent fixpoint and the FSYNC liveness machinery owns that case.
// Otherwise the budget is two full activation cycles. A
// cycle is max(n, RunPeriod+1) rounds — long enough that every robot has
// been offered an activation (RoundRobin's window slides once per round,
// period n) and every run-start period boundary has passed — scaled by the
// inverse of the scheduler's minimum activation rate for the stochastic
// models, exactly like the watchdog. For deterministic schedulers the
// window provably covers a full scheduler-state repetition with nothing
// moving, i.e. a true livelock; for stochastic ones the tail probability
// of a live system hopping zero times across the window is negligible,
// and the verdict stays reproducible because their activation streams are
// seeded. Saturates like limit().
func (e *Engine) stallWindow() int {
	if e.sched.FullySync() {
		return math.MaxInt
	}
	cycle := e.res.InitialLen
	if p := e.opts.Config.RunPeriod + 1; p > cycle {
		cycle = p
	}
	if rate := e.sched.MinActivationRate(e.res.InitialLen); rate > 0 && rate < 1 {
		if scaled := math.Ceil(float64(cycle) / rate); scaled < math.MaxInt {
			cycle = int(scaled)
		} else {
			return math.MaxInt
		}
	}
	return satMul(2, cycle)
}

// noteProgress feeds the stall detector after an executed round: progress
// is any hop, any merge, a chain-length change or a bounding-box change.
// Non-FSYNC only; FSYNC never touches the streak.
func (e *Engine) noteProgress(rep core.RoundReport, lenBefore int, boundsBefore grid.Box) {
	if e.sched.FullySync() {
		return
	}
	if rep.RunnerHops+rep.MergeHops+rep.StartHops > 0 || rep.Merges() > 0 ||
		e.Chain().Len() != lenBefore || e.Chain().Bounds() != boundsBefore {
		e.stallStreak = 0
		return
	}
	e.stallStreak++
}

// Strategy exposes the wrapped strategy (for instrumentation).
func (e *Engine) Strategy() core.Strategy { return e.alg }

// Algorithm exposes the wrapped paper algorithm when that is the driven
// strategy, nil otherwise (instrumentation that reads paper-specific
// state must check).
func (e *Engine) Algorithm() *core.Algorithm {
	alg, _ := e.alg.(*core.Algorithm)
	return alg
}

// Chain exposes the simulated chain.
func (e *Engine) Chain() *chain.Chain { return e.alg.Chain() }

// Result returns the accounting so far.
func (e *Engine) Result() Result { return e.res }

// Limit returns the watchdog round limit in force for this engine: the
// MaxRounds override when set, otherwise the default budget scaled by the
// scheduler's inverse activation rate.
func (e *Engine) Limit() int { return e.limit() }

// limit returns the watchdog bound for this simulation. Under a non-FSYNC
// scheduler the FSYNC budget is scaled by the inverse of the scheduler's
// minimum activation rate: a robot activated every k-th round can need k
// times the rounds for the same progress. Every arithmetic step saturates
// at math.MaxInt: an absurd WatchdogFactor must act as "no watchdog", never
// wrap into a negative limit that aborts round 0.
func (e *Engine) limit() int {
	if e.opts.MaxRounds > 0 {
		return e.opts.MaxRounds
	}
	base := satAdd(satMul(e.opts.WatchdogFactor, e.res.InitialLen), e.opts.WatchdogSlack)
	if !e.sched.FullySync() {
		if rate := e.sched.MinActivationRate(e.res.InitialLen); rate > 0 && rate < 1 {
			if scaled := math.Ceil(float64(base) / rate); scaled < math.MaxInt {
				base = int(scaled)
			} else {
				base = math.MaxInt
			}
		}
	}
	return base
}

// satMul returns a*b for non-negative operands, saturating at math.MaxInt.
func satMul(a, b int) int {
	if a > 0 && b > 0 && a > math.MaxInt/b {
		return math.MaxInt
	}
	return a * b
}

// satAdd returns a+b for non-negative operands, saturating at math.MaxInt.
func satAdd(a, b int) int {
	if a > math.MaxInt-b {
		return math.MaxInt
	}
	return a + b
}

// Step executes one round. It returns true while the simulation should
// continue (not yet gathered). After a recovered round panic the engine is
// poisoned: every further Step returns the same *PanicError.
func (e *Engine) Step() (bool, error) {
	if e.broken != nil {
		return false, e.broken
	}
	if e.alg.Gathered() {
		e.res.Gathered = true
		return false, nil
	}
	if e.alg.Round() >= e.limit() {
		return false, fmt.Errorf("%w: %d rounds, n=%d, still %d robots in %v",
			ErrWatchdog, e.alg.Round(), e.res.InitialLen, e.Chain().Len(), e.Chain().Bounds())
	}
	if window := e.stallWindow(); e.stallStreak >= window {
		e.res.Termination = core.TermStalled
		return false, fmt.Errorf("%w: %d progress-free rounds (window %d) at round %d, still %d robots in %v",
			ErrStalled, e.stallStreak, window, e.alg.Round(), e.Chain().Len(), e.Chain().Bounds())
	}
	if e.opts.CheckInvariants {
		e.snapshotPositions()
	}
	lenBefore := e.Chain().Len()
	boundsBefore := e.Chain().Bounds()
	rep, err := e.stepAlg(e.activate())
	if err != nil {
		return false, err
	}
	e.account(rep)
	e.noteProgress(rep, lenBefore, boundsBefore)
	e.tracker.observe(rep, lenBefore)
	if e.opts.CheckInvariants {
		if err := e.checkInvariants(rep); err != nil {
			return false, err
		}
	}
	if e.opts.Observer != nil {
		e.opts.Observer.OnRound(e.Chain(), rep)
	}
	if rep.Gathered {
		e.res.Gathered = true
		return false, nil
	}
	return true, nil
}

// stepAlg runs one strategy round under a recover guard: a panic anywhere
// in the round becomes a *PanicError and permanently poisons the engine,
// because the chain may be mid-mutation and nothing downstream may trust
// it again. The round runs on this goroutine, so this recover is the only
// layer of panic isolation an engine needs.
func (e *Engine) stepAlg(active []bool) (rep core.RoundReport, err error) {
	defer func() {
		if r := recover(); r != nil {
			pe := &PanicError{Round: e.alg.Round(), Value: r, Stack: debug.Stack()}
			e.broken = pe
			err = pe
		}
	}()
	return e.alg.StepActivated(active)
}

// Run executes rounds until the chain gathers or an error occurs. On an
// abort (watchdog, invariant violation, algorithm error) the result still
// records the rounds executed and the surviving chain length, with
// Gathered left false — DNF rows in the ablation experiments report the
// honest end state instead of zero robots.
func (e *Engine) Run() (Result, error) {
	return e.RunContext(context.Background())
}

// RunContext is Run under a context and the wall-clock option: between
// rounds it checks ctx and Options.MaxWallTime, so cancellation and
// deadlines always land on a round boundary — the returned Result is
// never torn, and (unless the engine is poisoned) a checkpoint taken after
// the return resumes exactly where the run stopped. A cancelled run returns
// an error wrapping ctx.Err(); a timed-out one wraps ErrDeadline.
func (e *Engine) RunContext(ctx context.Context) (Result, error) {
	var deadline time.Time
	if e.opts.MaxWallTime > 0 {
		deadline = time.Now().Add(e.opts.MaxWallTime)
	}
	for {
		if err := ctx.Err(); err != nil {
			return e.finish(fmt.Errorf("sim: run interrupted after %d rounds: %w", e.alg.Round(), err))
		}
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			return e.finish(fmt.Errorf("%w: %d rounds executed, %d robots remain", ErrDeadline, e.alg.Round(), e.Chain().Len()))
		}
		cont, err := e.Step()
		if err != nil || !cont {
			return e.finish(err)
		}
	}
}

// finish seals the Result at the current round boundary — on every exit
// path, success or not, so callers always see Rounds/FinalLen/Pairs
// consistent with each other.
func (e *Engine) finish(err error) (Result, error) {
	e.res.Rounds = e.alg.Round()
	e.res.FinalLen = e.Chain().Len()
	e.res.Pairs = e.tracker.finish()
	return e.res, err
}

func (e *Engine) account(rep core.RoundReport) {
	e.res.TotalMerges += rep.Merges()
	if rep.Merges() > 0 {
		e.res.TotalMergeRounds++
		e.mergeGap = 0
	} else {
		e.mergeGap++
		if e.mergeGap > e.res.LongestMergeGap {
			e.res.LongestMergeGap = e.mergeGap
		}
	}
	e.res.TotalRunsStarted += len(rep.Starts)
	for _, s := range rep.Starts {
		e.res.StartsByKind[s.Kind]++
	}
	for _, end := range rep.Ends {
		e.res.EndsByReason[end.Reason]++
	}
	e.res.TotalRunnerHops += rep.RunnerHops
	e.res.TotalMergeHops += rep.MergeHops
	e.res.TotalStartHops += rep.StartHops
	if rep.ActiveRuns > e.res.MaxActiveRuns {
		e.res.MaxActiveRuns = rep.ActiveRuns
	}
	e.res.Anomalies.Add(rep.Anomalies)
}

// activate asks the scheduler for this round's activation set, reusing the
// engine's buffer. Under FSYNC it returns nil, which the strategy steps
// exactly like an all-true set, without drawing or recording one.
func (e *Engine) activate() []bool {
	if e.sched.FullySync() {
		return nil
	}
	n := e.Chain().Len()
	if cap(e.activeBuf) < n {
		e.activeBuf = make([]bool, n)
	}
	e.activeBuf = e.activeBuf[:n]
	e.sched.Activate(e.alg.Round(), e.activeBuf)
	e.schedLens = append(e.schedLens, n)
	return e.activeBuf
}

func (e *Engine) snapshotPositions() {
	ch := e.Chain()
	e.prevPos.Reset(ch.NumHandles())
	for _, h := range ch.Handles() {
		e.prevPos.Set(h, ch.PosOf(h))
	}
}

// checkInvariants verifies the model's safety conditions after a round:
// edges remain chain edges (core already guarantees this), no chain
// neighbours stay co-located after merge resolution, every surviving robot
// moved at most one king step, and run occupancy stays within bounds.
func (e *Engine) checkInvariants(rep core.RoundReport) error {
	ch := e.Chain()
	if err := ch.CheckEdges(); err != nil {
		return fmt.Errorf("%w: %v", ErrInvariant, err)
	}
	if err := ch.CheckNoZeroEdges(); err != nil {
		return fmt.Errorf("%w: %v", ErrInvariant, err)
	}
	for _, h := range ch.Handles() {
		prev, ok := e.prevPos.Get(h)
		if !ok {
			return fmt.Errorf("%w: robot %d appeared from nowhere", ErrInvariant, ch.ID(h))
		}
		if d := ch.PosOf(h).Sub(prev); !d.IsKingStep() {
			return fmt.Errorf("%w: robot %d moved %v in one round", ErrInvariant, ch.ID(h), d)
		}
	}
	e.occupancy.Reset(ch.NumHandles())
	for _, run := range e.alg.Runs() {
		if !ch.Contains(run.Host) {
			return fmt.Errorf("%w: run %d hosted on removed robot", ErrInvariant, run.ID)
		}
		n, _ := e.occupancy.Get(run.Host)
		e.occupancy.Set(run.Host, n+1)
		if n+1 > 3 {
			return fmt.Errorf("%w: robot %d hosts %d runs", ErrInvariant, ch.ID(run.Host), n+1)
		}
	}
	return nil
}

// Gather is the package-level convenience: simulate the chain to gathering
// with the given options and return the result.
func Gather(ch *chain.Chain, opts Options) (Result, error) {
	e, err := NewEngine(ch, opts)
	if err != nil {
		return Result{}, err
	}
	return e.Run()
}
