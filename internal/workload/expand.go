package workload

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"

	"gridgather/internal/chain"
	"gridgather/internal/core"
	"gridgather/internal/generate"
	"gridgather/internal/parallel"
	"gridgather/internal/sched"
	"gridgather/internal/sim"
)

// itemStream is the parallel.TaskSeed config index reserved for workload
// item expansion. It namespaces campaign seeds away from every other
// consumer of TaskSeed (experiments use small config indices; gatherfuzz
// uses 0), and it is part of the on-disk campaign format: changing it
// changes every expanded stream, so the golden hashes pin it.
const itemStream = 771

// Item is one expanded campaign entry: a fully materialised scenario plus
// the engine options to run it under. Items are self-contained — Scenario
// is the canonical edge-byte encoding of the built chain
// (generate.ToBytes), so an item can be stored, hashed, shipped to
// gatherd, or replayed without re-deriving anything from the spec.
type Item struct {
	// Index is the item's position in the campaign stream.
	Index int `json:"index"`
	// Family is the scenario family the item was drawn from.
	Family string `json:"family"`
	// TargetSize is the size the family was asked for; N is the actual
	// chain length built (families round to their own geometry).
	TargetSize int `json:"targetSize"`
	N          int `json:"n"`
	// Scenario is the chain in generate.ToBytes form.
	Scenario []byte `json:"scenario"`
	// Config is the algorithm parameter set (zero = engine defaults).
	Config core.Config `json:"config"`
	// Sched is the activation scheduler; stochastic kinds carry the
	// item-derived seed.
	Sched sched.Config `json:"sched"`
	// Strategy is the gathering strategy.
	Strategy core.StrategyName `json:"strategy,omitempty"`
	// MaxRounds is the watchdog override (0 = engine default).
	MaxRounds int `json:"maxRounds,omitempty"`
	// Seed is the item's derived master seed (recorded for debugging; the
	// scenario and scheduler seeds above were drawn from it).
	Seed int64 `json:"seed"`
}

// Chain rebuilds the item's chain from its scenario bytes.
func (it Item) Chain() (*chain.Chain, error) {
	return generate.FromBytes(it.Scenario)
}

// EffectiveConfig resolves the zero-value "engine defaults" convention
// the same way sim.Gather does, for consumers (the conformance oracle,
// gatherd job specs) that need the parameter set materialised.
func (it Item) EffectiveConfig() core.Config {
	if it.Config == (core.Config{}) {
		return core.DefaultConfig()
	}
	return it.Config
}

// Options assembles the engine options the item runs under.
func (it Item) Options() sim.Options {
	return sim.Options{
		Config:    it.Config,
		Strategy:  it.Strategy,
		Sched:     it.Sched,
		MaxRounds: it.MaxRounds,
	}
}

// ExpandItem deterministically expands item i of the spec. All
// randomness flows from parallel.TaskSeed(spec.Seed, itemStream, i)
// through a fixed draw order — family, size, scheduler, scheduler seed,
// strategy, chain seed — so expansion is independent of every other item
// and of how many workers Expand fans out over. The draws are
// unconditional (an FSYNC item still consumes a scheduler seed) so adding
// a stochastic scheduler to a mix never shifts the draws of unrelated
// items' fields.
func (s Spec) ExpandItem(i int) (Item, error) {
	if i < 0 || i >= s.Items {
		return Item{}, fmt.Errorf("%w: item index %d out of range 0..%d", ErrBadSpec, i, s.Items-1)
	}
	seed := parallel.TaskSeed(s.Seed, itemStream, i)
	rng := rand.New(rand.NewSource(seed))

	fam := s.Families[weightedIndex(rng, len(s.Families), func(j int) int { return s.Families[j].Weight })]
	size := fam.Size.draw(rng)
	sc := s.Scheds[weightedIndex(rng, len(s.Scheds), func(j int) int { return s.Scheds[j].Weight })].Sched
	schedSeed := rng.Int63()
	if sc.Kind == sched.BoundedAdversary || sc.Kind == sched.Random {
		sc.Seed = schedSeed
	}
	strat := s.Strategies[weightedIndex(rng, len(s.Strategies), func(j int) int { return s.Strategies[j].Weight })].Strategy
	chainSeed := rng.Int63()

	ch, err := BuildChain(fam.Shape, size, chainSeed)
	if err != nil {
		return Item{}, fmt.Errorf("workload: item %d (%s, n=%d): %w", i, fam.Shape, size, err)
	}
	if ch.Len() > generate.MaxFromBytesSteps {
		// Guarded by MaxSize staying far below MaxFromBytesSteps; if a
		// family ever overshoots past it the item would no longer
		// round-trip through Scenario, so fail loudly instead.
		return Item{}, fmt.Errorf("workload: item %d (%s, n=%d): built chain length %d exceeds the scenario codec cap %d",
			i, fam.Shape, size, ch.Len(), generate.MaxFromBytesSteps)
	}
	maxRounds := s.MaxRounds
	if fam.MaxRounds > 0 {
		maxRounds = fam.MaxRounds
	}
	return Item{
		Index:      i,
		Family:     fam.Shape,
		TargetSize: size,
		N:          ch.Len(),
		Scenario:   generate.ToBytes(ch),
		Config:     s.Config,
		Sched:      sc,
		Strategy:   strat,
		MaxRounds:  maxRounds,
		Seed:       seed,
	}, nil
}

// BuildChain materialises one scenario: a generate family, or the "bytes"
// family (seeded random bytes decoded by the total FromBytes codec, the
// fuzzer's hostile-input model). The chain is a pure function of the
// three arguments.
func BuildChain(shape string, size int, seed int64) (*chain.Chain, error) {
	rng := rand.New(rand.NewSource(seed))
	if shape == BytesShape {
		data := make([]byte, size)
		rng.Read(data)
		return generate.FromBytes(data)
	}
	return generate.Named(shape, size, rng)
}

// weightedIndex draws an index with the given weights. Weights are
// validated >= 1, so the total is positive.
func weightedIndex(rng *rand.Rand, n int, weight func(int) int) int {
	total := 0
	for j := 0; j < n; j++ {
		total += weight(j)
	}
	r := rng.Intn(total)
	for j := 0; j < n; j++ {
		r -= weight(j)
		if r < 0 {
			return j
		}
	}
	return n - 1
}

// Expand expands the whole campaign, fanning item expansion out over the
// given worker count (0 = GOMAXPROCS). The stream is byte-identical at
// every worker count: items are independent and returned in index order.
func (s Spec) Expand(ctx context.Context, workers int) ([]Item, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	tasks := make([]parallel.Task[Item], s.Items)
	for i := range tasks {
		tasks[i] = func(index int) (Item, error) { return s.ExpandItem(index) }
	}
	return parallel.RunContext(ctx, workers, tasks)
}

// EncodeItems renders the expanded campaign stream in its canonical form:
// NDJSON, one item per line, in index order. This is the byte stream the
// golden hashes pin.
func EncodeItems(items []Item) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, it := range items {
		if err := enc.Encode(it); err != nil {
			return nil, fmt.Errorf("workload: encoding item %d: %w", it.Index, err)
		}
	}
	return buf.Bytes(), nil
}

// ItemsDigest returns the SHA-256 hex digest of the canonical campaign
// stream — the value the determinism goldens and the gatherbench spec
// report pin.
func ItemsDigest(items []Item) (string, error) {
	data, err := EncodeItems(items)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}
