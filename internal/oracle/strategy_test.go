package oracle_test

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"gridgather/internal/core"
	"gridgather/internal/generate"
	"gridgather/internal/oracle"
	"gridgather/internal/sched"
)

// TestLinTimeBatteryUnderSchedulers is the strategy arena's conformance
// path for lintime (ISSUE 7): no model mirror exists, so the check is the
// safety battery — minus the PaperOnly lemma invariants — after every
// round, plus the liveness watchdog, swept across the scheduler battery
// and the workload spread. FSYNC must additionally gather (the watchdog
// asserts liveness there); non-FSYNC may DNF by design.
func TestLinTimeBatteryUnderSchedulers(t *testing.T) {
	for _, sc := range schedBattery() {
		for name, build := range schedWorkloads() {
			t.Run(fmt.Sprintf("%s/%s", sc, name), func(t *testing.T) {
				t.Parallel()
				ch, err := build()
				if err != nil {
					t.Fatal(err)
				}
				res, err := oracle.CheckWithOptions(core.DefaultConfig(), ch, oracle.Options{
					Sched:    sc,
					Strategy: core.StrategyLinTime,
				})
				if err != nil {
					t.Fatalf("lintime violated the battery under %s: %v", sc, err)
				}
				if sc.Kind == sched.FSYNC && !res.Gathered {
					t.Fatalf("lintime FSYNC control did not gather: %+v", res)
				}
			})
		}
	}
}

// TestLinTimeFasterThanPaper pins the headline of the successor line: on
// run-driven workloads the contraction gathers in a small fraction of the
// paper strategy's rounds (linear in the diameter instead of ~n*L).
func TestLinTimeFasterThanPaper(t *testing.T) {
	ch, err := generate.Rectangle(24, 24)
	if err != nil {
		t.Fatal(err)
	}
	paper, err := oracle.Check(core.DefaultConfig(), ch.Clone(), 0)
	if err != nil {
		t.Fatal(err)
	}
	lin, err := oracle.CheckWithOptions(core.DefaultConfig(), ch, oracle.Options{Strategy: core.StrategyLinTime})
	if err != nil {
		t.Fatal(err)
	}
	if !paper.Gathered || !lin.Gathered {
		t.Fatalf("both must gather under FSYNC: paper %+v, lintime %+v", paper, lin)
	}
	if lin.Rounds*4 > paper.Rounds {
		t.Fatalf("lintime took %d rounds vs paper's %d — the linear-time bound is gone",
			lin.Rounds, paper.Rounds)
	}
}

// TestStrategyLivenessDivergence pins the FSYNC watchdog of the strategy
// path: an FSYNC budget too small to gather is a liveness divergence (the
// strategy has no DNF excuse when every robot acts every round), while the
// same budget under a non-FSYNC scheduler is a clean DNF.
func TestStrategyLivenessDivergence(t *testing.T) {
	ch, err := generate.Rectangle(32, 32)
	if err != nil {
		t.Fatal(err)
	}
	_, err = oracle.CheckWithOptions(core.DefaultConfig(), ch.Clone(), oracle.Options{
		Strategy:  core.StrategyLinTime,
		MaxRounds: 3, // the 31-span square needs 15 rounds
	})
	var div *oracle.Divergence
	if !errors.As(err, &div) || div.Field != "liveness" {
		t.Fatalf("FSYNC budget exhaustion must be a liveness divergence, got: %v", err)
	}

	res, err := oracle.CheckWithOptions(core.DefaultConfig(), ch, oracle.Options{
		Strategy:  core.StrategyLinTime,
		Sched:     sched.Config{Kind: sched.RoundRobin, K: 3},
		MaxRounds: 3,
	})
	if err != nil {
		t.Fatalf("non-FSYNC budget exhaustion must be a clean DNF, got: %v", err)
	}
	if res.Gathered || res.Rounds != 3 {
		t.Fatalf("DNF must report the executed rounds ungathered: %+v", res)
	}
}

// TestStrategyFromByteSpace pins the fuzzing strategy space: selector 0
// must stay the paper strategy (legacy corpus semantics), the space must
// contain every registered strategy, and selectors must wrap.
func TestStrategyFromByteSpace(t *testing.T) {
	if got := oracle.StrategyFromByte(0); got != core.StrategyPaper {
		t.Fatalf("selector 0 must be the paper strategy, got %q", got)
	}
	seen := map[core.StrategyName]bool{}
	for s := 0; s < oracle.NumStrategies(); s++ {
		name := oracle.StrategyFromByte(uint8(s))
		if err := name.Valid(); err != nil {
			t.Fatalf("selector %d: %v", s, err)
		}
		seen[name] = true
	}
	for _, want := range []core.StrategyName{core.StrategyPaper, core.StrategyLinTime} {
		if !seen[want] {
			t.Errorf("strategy space misses %s", want)
		}
	}
	if got, want := oracle.StrategyFromByte(uint8(oracle.NumStrategies())), oracle.StrategyFromByte(0); got != want {
		t.Errorf("selector wrapping broken: %s vs %s", got, want)
	}
}

// TestStrategyPathSweepsConfigAndWorkers runs lintime across the fuzzing
// configuration space, with the retired Workers field set as well, on a
// mixed workload set: the contraction ignores (V, L) by design and every
// strategy ignores Workers, so every point must behave identically —
// gather under FSYNC with a clean battery.
func TestStrategyPathSweepsConfigAndWorkers(t *testing.T) {
	ch, err := generate.RandomClosedWalk(96, rand.New(rand.NewSource(21)))
	if err != nil {
		t.Fatal(err)
	}
	wantRounds := -1
	for sel := 0; sel < oracle.NumConfigs(); sel += 7 {
		cfg := oracle.ConfigFromByte(uint8(sel))
		cfg.Workers = 1 + sel%8
		res, err := oracle.CheckWithOptions(cfg, ch.Clone(), oracle.Options{Strategy: core.StrategyLinTime})
		if err != nil {
			t.Fatalf("config selector %d: %v", sel, err)
		}
		if !res.Gathered {
			t.Fatalf("config selector %d: not gathered: %+v", sel, res)
		}
		if wantRounds == -1 {
			wantRounds = res.Rounds
		} else if res.Rounds != wantRounds {
			t.Fatalf("config selector %d: %d rounds, the contraction must ignore (V, L, Workers) (want %d)",
				sel, res.Rounds, wantRounds)
		}
	}
}

// TestStrategyPathReportsInvariantName pins the divergence shape of the
// battery path: a violated invariant surfaces as Field "invariant:<name>"
// attributed to its round. The violation is injected via a custom
// invariant that fails on round 2.
func TestStrategyPathReportsInvariantName(t *testing.T) {
	ch, err := generate.Rectangle(16, 16)
	if err != nil {
		t.Fatal(err)
	}
	battery := append(oracle.Battery(), oracle.Invariant{
		Name: "always-fails-on-2",
		Check: func(st *oracle.RoundState) error {
			if st.Report.Round == 2 {
				return errors.New("injected")
			}
			return nil
		},
	})
	_, err = oracle.CheckWithOptions(core.DefaultConfig(), ch, oracle.Options{
		Strategy:   core.StrategyLinTime,
		Invariants: battery,
	})
	var div *oracle.Divergence
	if !errors.As(err, &div) {
		t.Fatalf("want a divergence, got: %v", err)
	}
	if div.Round != 2 || !strings.Contains(div.Field, "invariant:always-fails-on-2") {
		t.Fatalf("divergence misattributed: round %d field %q", div.Round, div.Field)
	}
}
