// Package gridgather is a simulator and reference implementation of
// "Gathering a Closed Chain of Robots on a Grid" (Abshoff, Cord-Landwehr,
// Fischer, Jung, Meyer auf der Heide; IPDPS 2016, arXiv:1510.05454): a
// fully local, linear-time gathering strategy for a closed chain of n
// indistinguishable robots on the integer grid in the FSYNC model.
//
// The package is a facade over the implementation packages:
//
//   - internal/core — the Strategy interface (DESIGN.md §10) and its two
//     registered implementations: the paper's algorithm (merge
//     operations, quasi lines, runner-driven reshapement, run passing,
//     pipelining, termination conditions) and the linear-time
//     closed-chain contraction successor (arXiv:1501.04877);
//   - internal/chain, internal/grid, internal/view — the substrate: the
//     closed-chain data structure, grid geometry, and the restricted
//     local views (viewing path length 11);
//   - internal/sim — the round engine with invariant checking, watchdog
//     and instrumentation;
//   - internal/sched — pluggable activation schedulers: FSYNC (the
//     paper's model), round-robin SSYNC, a bounded adversary, and
//     Bernoulli activation (Options.Sched, DESIGN.md §8);
//   - internal/generate — workload generators (spirals, combs,
//     staircases, random polyominoes, random closed walks, …) and the
//     fuzzing decoders (FromBytes);
//   - internal/baseline — the comparison strategies of the experiments;
//   - internal/oracle — the model-based conformance layer: a naive
//     reimplementation of the round semantics checked against the
//     engine in lockstep (Verify, cmd/gatherfuzz).
//
// Quickstart:
//
//	ch, err := gridgather.Spiral(8)
//	if err != nil { ... }
//	res, err := gridgather.Gather(ch, gridgather.Options{})
//	fmt.Printf("gathered %d robots in %d rounds\n", res.InitialLen, res.Rounds)
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// reproduced results.
package gridgather

import (
	"math/rand"

	"gridgather/internal/baseline"
	"gridgather/internal/chain"
	"gridgather/internal/core"
	"gridgather/internal/generate"
	"gridgather/internal/grid"
	"gridgather/internal/oracle"
	"gridgather/internal/sched"
	"gridgather/internal/sim"
)

// Core re-exports. Aliases keep the internal packages as the single source
// of truth while giving external importers a usable public API.
type (
	// Vec is a grid point or displacement.
	Vec = grid.Vec
	// Box is an axis-aligned bounding box.
	Box = grid.Box
	// Chain is a closed chain of robots.
	Chain = chain.Chain
	// Handle identifies one chain member for its whole lifetime (robots
	// are dense handles into the chain's flat storage; see internal/chain).
	Handle = chain.Handle
	// Config holds the algorithm parameters (viewing path length, run
	// period, merge detection length).
	Config = core.Config
	// Options configures a simulation run.
	Options = sim.Options
	// Result aggregates a finished simulation.
	Result = sim.Result
	// Engine drives a simulation round by round.
	Engine = sim.Engine
	// Observer receives the chain state after every round.
	Observer = sim.Observer
	// PairStats is the run-pair accounting (Lemma 1/2 instrumentation).
	PairStats = sim.PairStats
)

// Activation schedulers (internal/sched, DESIGN.md §8). The paper proves
// its O(n) bound for fully synchronous rounds; Options.Sched relaxes the
// activation model to ask how the strategy degrades (the E-sched tables in
// EXPERIMENTS.md).
type (
	// SchedConfig describes an activation scheduler as a comparable value
	// for Options.Sched. The zero value is FSYNC — every robot activated
	// every round, the paper's model.
	SchedConfig = sched.Config
	// SchedKind selects one of the built-in activation models.
	SchedKind = sched.Kind
)

// The built-in activation models for SchedConfig.Kind.
const (
	// SchedFSYNC activates every robot in every round (the default).
	SchedFSYNC = sched.FSYNC
	// SchedRoundRobin activates a contiguous window of ceil(n/K) robots,
	// sliding one chain index per round (deterministic SSYNC).
	SchedRoundRobin = sched.RoundRobin
	// SchedBoundedAdversary lets robots sleep at random (seeded), but
	// never more than K consecutive rounds.
	SchedBoundedAdversary = sched.BoundedAdversary
	// SchedRandom activates each robot independently with probability P
	// per round (seeded Bernoulli).
	SchedRandom = sched.Random
)

// ParseSched parses the -sched flag syntax shared by all CLIs: "fsync",
// "rr:K", "bounded:K[:p=P][:seed=S]", "random[:p=P][:seed=S]".
func ParseSched(s string) (SchedConfig, error) { return sched.Parse(s) }

// RoundRobinSched returns the deterministic SSYNC scheduler config: a
// contiguous window of ceil(n/k) robots per round, sliding by one.
func RoundRobinSched(k int) SchedConfig { return SchedConfig{Kind: sched.RoundRobin, K: k} }

// BoundedAdversarySched returns the bounded-asynchrony scheduler config:
// seeded random sleeping, at most k consecutive rounds per robot.
func BoundedAdversarySched(k int, seed int64) SchedConfig {
	return SchedConfig{Kind: sched.BoundedAdversary, K: k, Seed: seed}
}

// RandomSched returns the Bernoulli activation scheduler config: each
// robot independently active with probability p per round.
func RandomSched(p float64, seed int64) SchedConfig {
	return SchedConfig{Kind: sched.Random, P: p, Seed: seed}
}

// Gathering strategies (internal/core, DESIGN.md §10). Options.Strategy
// selects which algorithm drives the chain; every strategy runs under the
// same engine, schedulers, invariant battery and conformance harness (the
// E-strat tables in EXPERIMENTS.md compare them head to head).
type (
	// Strategy is the round contract a gathering algorithm implements to
	// run under the engine: chain access, per-round stepping with an
	// activation set, and the gathering predicate (DESIGN.md §10).
	Strategy = core.Strategy
	// StrategyName names a registered gathering strategy for
	// Options.Strategy. The zero value is the paper's algorithm, so
	// existing zero-value Options are unchanged.
	StrategyName = core.StrategyName
)

// The registered strategies for Options.Strategy.
const (
	// StrategyPaper is the paper's fully local algorithm (the default).
	StrategyPaper = core.StrategyPaper
	// StrategyLinTime is the linear-time closed-chain contraction
	// successor (arXiv:1501.04877): gathers in ~diameter/2 FSYNC rounds
	// by clamping every robot into the shrunken bounding box.
	StrategyLinTime = core.StrategyLinTime
)

// ParseStrategy parses the -strategy flag syntax shared by all CLIs:
// "paper" (or "") and "lintime".
func ParseStrategy(s string) (StrategyName, error) { return core.ParseStrategy(s) }

// StrategyNames lists the strategies accepted by ParseStrategy.
func StrategyNames() []string { return core.StrategyNames() }

// NewStrategy constructs a registered strategy over the chain with the
// given config. A zero-value cfg selects the paper's defaults. Most
// callers use Options.Strategy and let the engine construct it instead.
func NewStrategy(name StrategyName, ch *Chain, cfg Config) (Strategy, error) {
	if cfg == (Config{}) {
		cfg = DefaultConfig()
	}
	return core.NewStrategy(name, ch, cfg)
}

// Run lifecycle (internal/sim, DESIGN.md §11): checkpoint/resume,
// cancellation and deadlines, panic isolation.
type (
	// Checkpoint is a versioned, checksummed snapshot of a paused run:
	// restoring it and finishing reproduces the uninterrupted run byte for
	// byte (Engine.Checkpoint / Restore / Encode / DecodeCheckpoint).
	Checkpoint = sim.Checkpoint
	// Bundle is a portable failure report: the failing scenario (chain,
	// configuration, scheduler, strategy) in one checksummed file,
	// replayable via gatherfuzz -resume.
	Bundle = sim.Bundle
	// PanicError is a strategy panic contained by the engine: the failing
	// round plus the recovered value and stack. The engine stays poisoned
	// afterwards — further Steps return the same error and Checkpoint
	// refuses.
	PanicError = sim.PanicError
)

// Run-lifecycle sentinel errors (match with errors.Is).
var (
	// ErrDeadline marks a run stopped at a round boundary by
	// Options.MaxWallTime; the partial Result is sealed and the engine
	// checkpointable.
	ErrDeadline = sim.ErrDeadline
	// ErrCheckpointCorrupt marks a checkpoint that fails any integrity
	// check (envelope, checksum, or semantic validation on Restore).
	ErrCheckpointCorrupt = sim.ErrCheckpointCorrupt
	// ErrCheckpointVersion marks a checkpoint written by a different
	// format version.
	ErrCheckpointVersion = sim.ErrCheckpointVersion
	// ErrBundleCorrupt marks a diagnostic bundle that fails any integrity
	// check.
	ErrBundleCorrupt = sim.ErrBundleCorrupt
	// ErrBundleVersion marks a bundle written by a different format
	// version.
	ErrBundleVersion = sim.ErrBundleVersion
)

// Restore rebuilds a paused engine from a checkpoint. Semantic parameters
// (algorithm config, scheduler, strategy, round/RNG state) come from the
// checkpoint; runtime knobs (CheckInvariants, Observer, MaxWallTime) from
// opts. Invalid checkpoints fail with ErrCheckpointCorrupt.
func Restore(cp *Checkpoint, opts Options) (*Engine, error) { return sim.Restore(cp, opts) }

// DecodeCheckpoint validates and decodes an encoded checkpoint.
func DecodeCheckpoint(data []byte) (*Checkpoint, error) { return sim.DecodeCheckpoint(data) }

// WriteCheckpoint atomically writes a checkpoint file (temp file + rename).
func WriteCheckpoint(path string, cp *Checkpoint) error { return sim.WriteCheckpoint(path, cp) }

// ReadCheckpoint reads and validates a checkpoint file.
func ReadCheckpoint(path string) (*Checkpoint, error) { return sim.ReadCheckpoint(path) }

// V constructs a grid vector.
func V(x, y int) Vec { return grid.V(x, y) }

// NewChain builds a closed chain from positions in chain order, validating
// the paper's initial-configuration requirements.
func NewChain(positions []Vec) (*Chain, error) { return chain.New(positions) }

// DefaultConfig returns the paper's parameter set (V=11, L=13).
func DefaultConfig() Config { return core.DefaultConfig() }

// Gather simulates the chain until it fits a 2x2 square and returns the
// result. The chain is owned by the simulation afterwards.
func Gather(ch *Chain, opts Options) (Result, error) { return sim.Gather(ch, opts) }

// NewEngine creates a step-by-step simulation engine.
func NewEngine(ch *Chain, opts Options) (*Engine, error) { return sim.NewEngine(ch, opts) }

// Verify runs the model-based conformance check (internal/oracle,
// DESIGN.md §7) on the chain: the fast engine and a naive
// reimplementation of the round semantics execute in lockstep until
// gathering, comparing full state every round under the invariant
// battery. The chain is not modified. A zero-value cfg selects the
// paper's defaults, like everywhere else in the facade. It returns nil
// when the histories agree and gathering completes within the Theorem 1
// round cap.
func Verify(ch *Chain, cfg Config) error {
	if cfg == (Config{}) {
		cfg = DefaultConfig()
	}
	_, err := oracle.Check(cfg, ch, 0)
	return err
}

// Workload generators (see internal/generate for the full set).

// Rectangle returns the boundary chain of a w x h cell rectangle.
func Rectangle(w, h int) (*Chain, error) { return generate.Rectangle(w, h) }

// Spiral returns a rectangular spiral corridor boundary with the given
// number of windings — the classic worst case.
func Spiral(windings int) (*Chain, error) { return generate.Spiral(windings) }

// Staircase returns a staircase polyomino boundary.
func Staircase(steps, run int) (*Chain, error) { return generate.Staircase(steps, run) }

// Comb returns a comb polyomino boundary (nested quasi lines).
func Comb(teeth, toothLen, gap int) (*Chain, error) { return generate.Comb(teeth, toothLen, gap) }

// RandomClosedWalk returns a random (possibly self-crossing) closed
// lattice walk with n robots.
func RandomClosedWalk(n int, rng *rand.Rand) (*Chain, error) {
	return generate.RandomClosedWalk(n, rng)
}

// RandomPolyomino returns the boundary of a randomly grown polyomino.
func RandomPolyomino(cells int, rng *rand.Rand) (*Chain, error) {
	return generate.RandomPolyomino(cells, rng)
}

// Shape builds one of the named workload families ("rectangle",
// "flatring", "histogram", "staircase", "comb", "spiral", "polyomino",
// "walk", "doubled", "serpentine", "lshape") at roughly the given size.
func Shape(name string, size int, rng *rand.Rand) (*Chain, error) {
	return generate.Named(name, size, rng)
}

// ShapeNames lists the families accepted by Shape.
func ShapeNames() []string { return generate.Names() }

// Baseline strategies (experiment E12).

// MergeOnlyOptions disables the runner machinery (ablation).
func MergeOnlyOptions() Options { return baseline.MergeOnlyOptions() }

// SequentialRunsOptions disables pipelining (ablation).
func SequentialRunsOptions() Options { return baseline.SequentialRunsOptions() }

// ManhattanHopper shortens an open chain between fixed endpoints (the
// [KM09] reconstruction).
type ManhattanHopper = baseline.ManhattanHopper

// HopperResult summarises a ManhattanHopper run.
type HopperResult = baseline.HopperResult

// NewManhattanHopper prepares the open-chain shortening baseline.
func NewManhattanHopper(pts []Vec) (*ManhattanHopper, error) {
	return baseline.NewManhattanHopper(pts)
}
