package oracle_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"gridgather/internal/chain"
	"gridgather/internal/core"
	"gridgather/internal/generate"
	"gridgather/internal/grid"
	"gridgather/internal/oracle"
	"gridgather/internal/sched"
)

// schedBattery is the scheduler spread the conformance tests sweep: one of
// each non-FSYNC kind at a moderate rate, plus FSYNC as the control.
func schedBattery() []sched.Config {
	return []sched.Config{
		{Kind: sched.FSYNC},
		{Kind: sched.RoundRobin, K: 3},
		{Kind: sched.BoundedAdversary, K: 2, P: 0.5, Seed: 5},
		{Kind: sched.Random, P: 0.6, Seed: 9},
	}
}

// schedWorkloads is the workload spread of the scheduler lockstep tests:
// run-driven squares, the spiral worst case, nested quasi lines, a tangled
// walk, and the merge-heavy doubled paths that found the back-to-back-runs
// bug under FSYNC.
func schedWorkloads() map[string]func() (*chain.Chain, error) {
	return map[string]func() (*chain.Chain, error){
		"rectangle_20x20": func() (*chain.Chain, error) { return generate.Rectangle(20, 20) },
		"spiral_w4":       func() (*chain.Chain, error) { return generate.Spiral(4) },
		"comb_5x7x3":      func() (*chain.Chain, error) { return generate.Comb(5, 7, 3) },
		"walk_128_seed3": func() (*chain.Chain, error) {
			return generate.RandomClosedWalk(128, rand.New(rand.NewSource(3)))
		},
		"doubled_24_seed8": func() (*chain.Chain, error) {
			return generate.DoubledPath(24, rand.New(rand.NewSource(8)))
		},
	}
}

// TestLockstepUnderSchedulers steps the fast engine and the naive model on
// one shared activation set across the scheduler battery and the workload
// spread: positions, merges, run registries, reports and the safety
// invariants must agree every round, whatever the activation model.
func TestLockstepUnderSchedulers(t *testing.T) {
	for _, sc := range schedBattery() {
		for name, build := range schedWorkloads() {
			t.Run(fmt.Sprintf("%s/%s", sc, name), func(t *testing.T) {
				t.Parallel()
				ch, err := build()
				if err != nil {
					t.Fatal(err)
				}
				res, err := oracle.CheckWithOptions(core.DefaultConfig(), ch, oracle.Options{Sched: sc})
				if err != nil {
					t.Fatalf("lockstep diverged under %s: %v", sc, err)
				}
				if sc.Kind == sched.FSYNC && !res.Gathered {
					t.Fatalf("FSYNC control did not gather: %+v", res)
				}
			})
		}
	}
}

// TestSchedFromByteSpace pins the fuzzing scheduler space: selector 0 must
// stay FSYNC (legacy corpus semantics), every selector must build, and the
// space must contain all three relaxed kinds.
func TestSchedFromByteSpace(t *testing.T) {
	if got := oracle.SchedFromByte(0); got.Kind != sched.FSYNC {
		t.Fatalf("selector 0 must be FSYNC, got %s", got)
	}
	kinds := map[sched.Kind]bool{}
	for s := 0; s < oracle.NumScheds(); s++ {
		cfg := oracle.SchedFromByte(uint8(s))
		if _, err := sched.New(cfg); err != nil {
			t.Fatalf("selector %d (%s) does not build: %v", s, cfg, err)
		}
		kinds[cfg.Kind] = true
	}
	for _, k := range []sched.Kind{sched.FSYNC, sched.RoundRobin, sched.BoundedAdversary, sched.Random} {
		if !kinds[k] {
			t.Errorf("scheduler space misses kind %s", k)
		}
	}
	if got, want := oracle.SchedFromByte(uint8(oracle.NumScheds())), oracle.SchedFromByte(0); got != want {
		t.Errorf("selector wrapping broken: %s vs %s", got, want)
	}
}

// TestNonFSYNCLivenessIsDNF pins the FSYNC-only liveness semantics: a
// non-FSYNC check that exhausts its round budget without divergence is a
// clean DNF (nil error, Gathered false), not a conformance failure.
func TestNonFSYNCLivenessIsDNF(t *testing.T) {
	ch, err := generate.Rectangle(16, 16)
	if err != nil {
		t.Fatal(err)
	}
	res, err := oracle.CheckWithOptions(core.DefaultConfig(), ch, oracle.Options{
		Sched:     sched.Config{Kind: sched.RoundRobin, K: 3},
		MaxRounds: 5, // far too few rounds to gather
	})
	if err != nil {
		t.Fatalf("budget exhaustion must be a DNF under non-FSYNC, got: %v", err)
	}
	if res.Gathered {
		t.Fatalf("n=%d cannot gather in 5 rounds: %+v", res.InitialLen, res)
	}
	if res.Rounds != 5 {
		t.Errorf("DNF must report the executed rounds, got %d", res.Rounds)
	}
}

// TestHugeRoundRobinKGathers: under rr:MaxInt one robot is awake per round
// and the round budget saturates, so the four-robot doubled segment, which
// rr:3 gathers in one round, gathers in one round here too. The budget
// once wrapped negative here and the check returned a DNF after 0 rounds.
func TestHugeRoundRobinKGathers(t *testing.T) {
	ch := chain.MustNew([]grid.Vec{grid.V(0, 0), grid.V(1, 0), grid.V(2, 0), grid.V(1, 0)})
	res, err := oracle.CheckWithOptions(core.DefaultConfig(), ch, oracle.Options{
		Sched: sched.Config{Kind: sched.RoundRobin, K: math.MaxInt},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Gathered || res.Rounds != 1 {
		t.Fatalf("got %+v, want gathered in 1 round", res)
	}
}
