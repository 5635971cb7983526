package sched

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
)

// Kind selects one of the built-in activation models. The zero value is
// FSYNC, so a zero sched.Config (and hence a zero sim.Options) keeps the
// paper's fully synchronous semantics.
type Kind uint8

// The built-in activation models.
const (
	// FSYNC activates every robot in every round — the paper's model, and
	// the only one its O(n) bound is proven for.
	FSYNC Kind = iota
	// RoundRobin is the deterministic SSYNC model: a contiguous window of
	// ceil(n/K) chain indices is activated each round, sliding one index
	// per round, so every robot is activated for about one round in K on
	// average. Both window properties are livelock-critical: straight
	// merge patterns (k >= 2 blacks) only execute when all their blacks
	// hop together, so interleaved mod-K cohorts would suppress them
	// forever, and a window jumping by its own size could park a fixed
	// cohort boundary on a pattern for good (found by the scheduler
	// conformance battery; see the roundRobin implementation and
	// DESIGN.md §8).
	RoundRobin
	// BoundedAdversary is the bounded-asynchrony model: a seeded adversary
	// lets each robot sleep with probability 1-P per round, but never for
	// more than K consecutive rounds.
	BoundedAdversary
	// Random is seeded Bernoulli activation: each robot is independently
	// activated with probability P per round, with no fairness guarantee
	// beyond expectation.
	Random
)

// String returns the canonical lower-case name of the kind.
func (k Kind) String() string {
	switch k {
	case FSYNC:
		return "fsync"
	case RoundRobin:
		return "rr"
	case BoundedAdversary:
		return "bounded"
	case Random:
		return "random"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Default parameters substituted by Config.normalized for zero fields.
const (
	// DefaultK is the cohort count / sleep bound used when K is zero.
	DefaultK = 3
	// DefaultP is the activation probability used when P is zero.
	DefaultP = 0.5
)

// Config describes a scheduler as a plain comparable value, so it can sit
// in sim.Options, be parsed from a -sched flag, be drawn from a fuzz
// selector byte, and be compared with ==. The zero value selects FSYNC.
// Construct Schedulers from it with New.
type Config struct {
	// Kind selects the activation model.
	Kind Kind
	// K is the cohort count (RoundRobin) or the maximum number of
	// consecutive rounds a robot may sleep (BoundedAdversary). Zero means
	// DefaultK. Ignored by FSYNC and Random.
	K int
	// P is the per-round activation probability of Random and
	// BoundedAdversary. Zero means DefaultP; FSYNC and RoundRobin ignore
	// it.
	P float64
	// Seed drives the stochastic schedulers (BoundedAdversary, Random).
	// Two schedulers built from equal Configs produce identical activation
	// sequences, which is what makes non-FSYNC runs reproducible and the
	// oracle lockstep possible.
	Seed int64
}

// normalized substitutes defaults for zero parameter fields.
func (c Config) normalized() Config {
	if c.K == 0 {
		c.K = DefaultK
	}
	if c.P == 0 {
		c.P = DefaultP
	}
	return c
}

// String renders the canonical flag syntax understood by Parse:
// "fsync", "rr:K", "bounded:K:p=P:seed=S", "random:p=P:seed=S".
func (c Config) String() string {
	n := c.normalized()
	switch c.Kind {
	case FSYNC:
		return "fsync"
	case RoundRobin:
		return fmt.Sprintf("rr:%d", n.K)
	case BoundedAdversary:
		return fmt.Sprintf("bounded:%d:p=%g:seed=%d", n.K, n.P, c.Seed)
	case Random:
		return fmt.Sprintf("random:p=%g:seed=%d", n.P, c.Seed)
	}
	return c.Kind.String()
}

// Validation errors of New and Parse.
var (
	ErrBadKind  = errors.New("sched: unknown scheduler kind")
	ErrBadParam = errors.New("sched: invalid scheduler parameter")
)

// Parse decodes the -sched flag syntax emitted by Config.String:
//
//	fsync                     all robots, every round
//	rr:K                      round-robin over K cohorts (K >= 1)
//	bounded:K[:p=P][:seed=S]  sleep at most K consecutive rounds
//	random[:p=P][:seed=S]     Bernoulli(P) activation
//
// Omitted parameters default to K=3, P=0.5, seed=0.
func Parse(s string) (Config, error) {
	parts := strings.Split(strings.TrimSpace(strings.ToLower(s)), ":")
	var c Config
	switch parts[0] {
	case "fsync", "":
		c.Kind = FSYNC
		if len(parts) > 1 {
			return c, fmt.Errorf("%w: fsync takes no parameters (got %q)", ErrBadParam, s)
		}
		return c, nil
	case "rr", "roundrobin":
		c.Kind = RoundRobin
	case "bounded", "adversary":
		c.Kind = BoundedAdversary
	case "random", "bernoulli":
		c.Kind = Random
	default:
		return c, fmt.Errorf("%w: %q (want fsync, rr, bounded, or random)", ErrBadKind, parts[0])
	}
	// Every parameter must be applicable to the kind and given at most
	// once — a typo silently reinterpreted as a different scheduler would
	// invalidate whatever experiment it was meant to drive.
	stochastic := c.Kind == BoundedAdversary || c.Kind == Random
	seenK, seenP, seenSeed := false, false, false
	for _, p := range parts[1:] {
		switch {
		case strings.HasPrefix(p, "p="):
			v, err := strconv.ParseFloat(p[2:], 64)
			if err != nil || v <= 0 || v > 1 {
				return c, fmt.Errorf("%w: %q (want 0 < p <= 1)", ErrBadParam, p)
			}
			if !stochastic || seenP {
				return c, fmt.Errorf("%w: unexpected parameter %q in %q", ErrBadParam, p, s)
			}
			c.P, seenP = v, true
		case strings.HasPrefix(p, "seed="):
			v, err := strconv.ParseInt(p[5:], 10, 64)
			if err != nil {
				return c, fmt.Errorf("%w: %q: %v", ErrBadParam, p, err)
			}
			if !stochastic || seenSeed {
				return c, fmt.Errorf("%w: unexpected parameter %q in %q", ErrBadParam, p, s)
			}
			c.Seed, seenSeed = v, true
		default:
			v, err := strconv.Atoi(p)
			if err != nil || v < 1 || c.Kind == Random || seenK {
				return c, fmt.Errorf("%w: unexpected parameter %q in %q", ErrBadParam, p, s)
			}
			c.K, seenK = v, true
		}
	}
	return c, c.Validate()
}

// Scheduler decides, round by round, which robots perform their
// look–compute–move cycle. Implementations may keep state across rounds;
// the contract is that Activate is called exactly once per executed round,
// in ascending round order, with len(active) equal to the current chain
// length. Robots are addressed by their chain index at the start of the
// round (merges compact indices between rounds).
//
// Determinism contract: two Schedulers built from equal Configs, driven
// through the same sequence of (round, len(active)) calls, fill identical
// activation sets. Everything downstream (engine reproducibility, the
// -parallel byte-identity of experiment tables, and the oracle stepping
// engine and model on one shared activation set) rests on this.
type Scheduler interface {
	// Name returns the canonical description of the scheduler (the
	// Config.String form it was built from).
	Name() string
	// FullySync reports whether every robot is activated in every round
	// by construction (fsync, rr:1; random:p=1 draws its rounds). The
	// engine then passes nil, which every strategy steps exactly like an
	// all-true set, and skips the draw, its checkpoint record and the
	// stall detector.
	FullySync() bool
	// MinActivationRate returns a positive lower bound (expected, for
	// Random) on the long-run fraction of rounds each robot is activated
	// on a chain of n robots. Watchdogs scale their FSYNC round budgets by
	// its inverse.
	MinActivationRate(n int) float64
	// Activate fills active[i] for every chain index i of the current
	// round: true robots execute look–compute–move, false robots sleep
	// (their positions are still visible — stale — to active robots).
	Activate(round int, active []bool)
}

// Validate checks the description's parameters without building a
// Scheduler (so without seeding a stochastic one): it returns exactly the
// error New would. Zero parameter fields take the package defaults.
func (c Config) Validate() error {
	n := c.normalized()
	switch c.Kind {
	case FSYNC:
	case RoundRobin:
		if n.K < 1 {
			return fmt.Errorf("%w: rr cohort count %d (want >= 1)", ErrBadParam, n.K)
		}
	case BoundedAdversary:
		if n.K < 1 {
			return fmt.Errorf("%w: bounded sleep bound %d (want >= 1)", ErrBadParam, n.K)
		}
		if n.P <= 0 || n.P > 1 {
			return fmt.Errorf("%w: bounded activation probability %g (want 0 < p <= 1)", ErrBadParam, n.P)
		}
	case Random:
		if n.P <= 0 || n.P > 1 {
			return fmt.Errorf("%w: random activation probability %g (want 0 < p <= 1)", ErrBadParam, n.P)
		}
	default:
		return fmt.Errorf("%w: %d", ErrBadKind, c.Kind)
	}
	return nil
}

// New builds a Scheduler from its description (validated by
// Config.Validate). Zero parameter fields take the package defaults (K=3,
// P=0.5).
func New(c Config) (Scheduler, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	n := c.normalized()
	switch c.Kind {
	case RoundRobin:
		return &roundRobin{k: n.K}, nil
	case BoundedAdversary:
		return &boundedAdversary{cfg: n, k: n.K, p: n.P, rng: rand.New(rand.NewSource(c.Seed))}, nil
	case Random:
		return &random{cfg: n, p: n.P, rng: rand.New(rand.NewSource(c.Seed))}, nil
	}
	return fsync{}, nil
}

// fsync is the all-active scheduler.
type fsync struct{}

func (fsync) Name() string                  { return "fsync" }
func (fsync) FullySync() bool               { return true }
func (fsync) MinActivationRate(int) float64 { return 1 }
func (fsync) Activate(_ int, active []bool) {
	for i := range active {
		active[i] = true
	}
}

// roundRobin activates a contiguous window of ceil(n/k) robots starting at
// chain index (round mod n), sliding one index per round. Contiguity and
// the unit stride both matter: interleaved cohorts would break every
// straight merge pattern apart forever (see the RoundRobin kind comment),
// and a window jumping by its own size can park a fixed cohort boundary on
// a pattern for good — sliding by one guarantees every contiguous group of
// at most ceil(n/k) robots is fully activated within any n consecutive
// rounds, whatever n has shrunk to.
type roundRobin struct{ k int }

func (s *roundRobin) Name() string                  { return Config{Kind: RoundRobin, K: s.k}.String() }
func (s *roundRobin) FullySync() bool               { return s.k == 1 }
func (s *roundRobin) MinActivationRate(int) float64 { return 1 / float64(s.k) }

func (s *roundRobin) Activate(round int, active []bool) {
	n := len(active)
	if n == 0 {
		return
	}
	window := (n + s.k - 1) / s.k
	start := round % n
	for i := range active {
		off := i - start
		if off < 0 {
			off += n
		}
		active[i] = off < window
	}
}

// boundedAdversary sleeps robots at random but never more than k rounds in
// a row. Sleep streaks are tracked per chain slot; merges compact slots,
// so after a merge a slot's streak continues with the robot now at that
// index — any such reassignment is itself a legal adversary choice.
type boundedAdversary struct {
	cfg    Config
	k      int
	p      float64
	rng    *rand.Rand
	sleeps []int
}

func (s *boundedAdversary) Name() string    { return s.cfg.String() }
func (s *boundedAdversary) FullySync() bool { return false }
func (s *boundedAdversary) MinActivationRate(int) float64 {
	return 1 / float64(s.k+1)
}

func (s *boundedAdversary) Activate(round int, active []bool) {
	n := len(active)
	if cap(s.sleeps) < n {
		grown := make([]int, n)
		copy(grown, s.sleeps)
		s.sleeps = grown
	}
	s.sleeps = s.sleeps[:n]
	for i := range active {
		// A robot that has slept k rounds wakes without a draw, which keeps
		// the draw sequence. The streak update is a select, not a branch:
		// it follows the coin flip, so a branch would mispredict about
		// half the time.
		sleeps := s.sleeps[i]
		on := sleeps >= s.k || s.rng.Float64() < s.p
		active[i] = on
		next := sleeps + 1
		if on {
			next = 0
		}
		s.sleeps[i] = next
	}
}

// random is seeded Bernoulli activation.
type random struct {
	cfg Config
	p   float64
	rng *rand.Rand
}

func (s *random) Name() string                  { return s.cfg.String() }
func (s *random) FullySync() bool               { return false }
func (s *random) MinActivationRate(int) float64 { return s.p }

func (s *random) Activate(round int, active []bool) {
	for i := range active {
		active[i] = s.rng.Float64() < s.p
	}
}
