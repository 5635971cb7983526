package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"

	"gridgather/internal/chain"
	"gridgather/internal/core"
	"gridgather/internal/generate"
	"gridgather/internal/sched"
	"gridgather/internal/sim"
)

// ErrBadJob rejects a job specification that cannot name a simulation:
// no scenario at all, both scenario forms at once, a shape Size above
// MaxJobSize, or generator inputs the generate package refuses.
// Option-level problems (bad config, bad scheduler, the E11 livelock
// rejection) surface as the sim package's own typed errors instead, so
// clients can tell "your shape is wrong" from "your parameters are
// wrong".
var ErrBadJob = errors.New("serve: invalid job specification")

// JobSpec is the wire form of one simulation job. Exactly one of the two
// scenario forms must be set: raw Scenario bytes (the generate.FromBytes
// edge encoding, which doubles as the fuzz-corpus format) or a structured
// Shape/Size/Seed triple resolved through generate.Named. Everything else
// reuses the repo's existing codecs verbatim — core.Config, sched.Config
// and core.StrategyName marshal here exactly as they do in checkpoints and
// experiment manifests.
type JobSpec struct {
	// Scenario is the chain's edge walk, one byte per edge (values 0-3
	// indexing E/N/W/S; see generate.FromBytes). Arbitrary bytes are
	// accepted and deterministically repaired into a valid closed chain,
	// exactly like the fuzz decoder — the cache key is computed from the
	// repaired chain, so two byte strings that decode to the same chain
	// share a cache slot.
	Scenario []byte `json:"scenario,omitempty"`
	// Shape selects a structured generator family (generate.Names) with
	// target chain size Size, at most MaxJobSize; Seed drives the
	// stochastic families. The cache key is computed from the generated
	// chain, not these fields, so a seed change misses exactly when it
	// changes the chain — and a deterministic family hits regardless of
	// seed.
	Shape string `json:"shape,omitempty"`
	Size  int    `json:"size,omitempty"`
	Seed  int64  `json:"seed,omitempty"`

	// Config is the algorithm parameter set; the zero value means the
	// paper defaults (core.DefaultConfig).
	Config core.Config `json:"config"`
	// Strategy names the gathering strategy ("" or "paper", "lintime").
	Strategy core.StrategyName `json:"strategy,omitempty"`
	// Sched is the activation model; the zero value is FSYNC.
	Sched sched.Config `json:"sched"`
	// MaxRounds overrides the watchdog budget when positive. It is part
	// of the cache key: a watchdog DNF is a deterministic verdict about
	// (scenario, options, budget), so different budgets are different
	// results.
	MaxRounds int `json:"maxRounds,omitempty"`
	// Workers is retired: the engine ignores it and steps every round on
	// one goroutine. It still goes into the cache key, folded into
	// Config.Workers as before, so that every key, an address clients
	// use (GET /results/{key}), stays what it was (DESIGN.md §12).
	Workers int `json:"workers,omitempty"`
}

// MaxJobSize caps the chain size a job may ask for: the scenario-bytes
// form decodes at most generate.MaxFromBytesSteps edges, and a shape's
// Size is held to the same bound before anything is generated, so one
// small request cannot make the server build a chain of any size.
const MaxJobSize = generate.MaxFromBytesSteps

// options lifts the spec's parameter fields into engine options. Runtime
// knobs the server owns (wall-clock caps, the cancellation context) are
// layered on top by runJob and never live in the spec.
func (s JobSpec) options() sim.Options {
	return sim.Options{
		Config:    s.Config,
		Strategy:  s.Strategy,
		Sched:     s.Sched,
		MaxRounds: s.MaxRounds,
		Workers:   s.Workers, // read by cacheKey only; the engine ignores it
	}
}

// build validates the spec the way the engine will (sim.Options.Validate,
// including the ErrLivelockConfig rejection) and constructs its chain.
// This is the server's admission check: a spec that fails build never
// reaches the queue.
func (s JobSpec) build() (*chain.Chain, sim.Options, error) {
	opts := s.options()
	if err := opts.Validate(); err != nil {
		return nil, sim.Options{}, err
	}
	var (
		ch  *chain.Chain
		err error
	)
	switch {
	case len(s.Scenario) > 0 && s.Shape != "":
		return nil, sim.Options{}, fmt.Errorf("%w: scenario bytes and shape are mutually exclusive", ErrBadJob)
	case len(s.Scenario) > 0:
		ch, err = generate.FromBytes(s.Scenario)
	case s.Shape != "":
		if s.Size > MaxJobSize {
			return nil, sim.Options{}, fmt.Errorf("%w: size %d above the cap of %d robots", ErrBadJob, s.Size, MaxJobSize)
		}
		ch, err = generate.Named(s.Shape, s.Size, rand.New(rand.NewSource(s.Seed)))
	default:
		return nil, sim.Options{}, fmt.Errorf("%w: job needs scenario bytes or a shape", ErrBadJob)
	}
	if err != nil {
		return nil, sim.Options{}, fmt.Errorf("%w: %v", ErrBadJob, err)
	}
	return ch, opts, nil
}

// keyPayload is the canonical content the cache key hashes — exactly the
// inputs the determinism contract says a Result is a pure function of,
// and nothing else. Wall-clock limits, invariant checking and observers
// are runtime knobs that cannot change result bytes, so they stay out.
type keyPayload struct {
	// Scenario is generate.ToBytes of the built chain: the canonical edge
	// walk, independent of how the spec described it (raw bytes before
	// repair, or a generator family).
	Scenario []byte
	// Config is the defaulted, validated parameter set with the spec's
	// retired Workers value folded in, which keeps keys stable.
	Config core.Config
	// Strategy is the parsed canonical name ("" for paper), so the spec
	// spellings "" and "paper" share a slot.
	Strategy core.StrategyName
	// Sched is the spec's scheduler config verbatim. It is deliberately
	// not normalized: {Random} and {Random, P: 0.5} name the same
	// activation sequence but hash differently — a conservative cache
	// miss, never an unsound hit (DESIGN.md §12).
	Sched     sched.Config
	MaxRounds int
}

// cacheKey addresses the pinned Result of a (chain, options) pair: the
// lowercase hex SHA-256 of the canonical JSON payload above. Identical
// keys mean identical simulations byte for byte, which is what lets the
// server answer a re-submission without stepping the engine.
func cacheKey(ch *chain.Chain, opts sim.Options) (string, error) {
	cfg := opts.Config
	if cfg == (core.Config{}) {
		cfg = core.DefaultConfig()
	}
	if opts.Workers > 0 {
		cfg.Workers = opts.Workers
	}
	if err := cfg.Validate(); err != nil {
		return "", err
	}
	strat, err := core.ParseStrategy(string(opts.Strategy))
	if err != nil {
		return "", err
	}
	raw, err := json.Marshal(keyPayload{
		Scenario:  generate.ToBytes(ch),
		Config:    cfg,
		Strategy:  strat,
		Sched:     opts.Sched,
		MaxRounds: opts.MaxRounds,
	})
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:]), nil
}

// CacheKey computes the content address a spec's result will be cached
// under, without running anything. Exported so clients can probe
// GET /results/{key} before deciding to submit, and so the key tests can
// assert hit/miss behaviour against the same derivation the server uses.
func CacheKey(spec JobSpec) (string, error) {
	ch, opts, err := spec.build()
	if err != nil {
		return "", err
	}
	return cacheKey(ch, opts)
}
