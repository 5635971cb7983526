package sim_test

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"gridgather/internal/chain"
	"gridgather/internal/core"
	"gridgather/internal/generate"
	"gridgather/internal/sim"
)

// TestStressBattery runs the full workload battery across many seeds with
// every invariant check enabled. It is the liveness + safety soak of the
// reproduction (skipped with -short).
func TestStressBattery(t *testing.T) {
	if testing.Short() {
		t.Skip("stress battery skipped in -short mode")
	}
	rng := rand.New(rand.NewSource(99))
	trials := 6
	for _, name := range generate.Names() {
		for trial := 0; trial < trials; trial++ {
			size := 24 + rng.Intn(300)
			ch, err := generate.Named(name, size, rng)
			if err != nil {
				t.Fatalf("%s size=%d: %v", name, size, err)
			}
			n := ch.Len()
			res, err := sim.Gather(ch, sim.Options{CheckInvariants: true})
			if err != nil {
				t.Fatalf("%s n=%d trial=%d: %v", name, n, trial, err)
			}
			if !res.Gathered {
				t.Fatalf("%s n=%d: not gathered", name, n)
			}
			if res.Pairs.Lemma1Violations != 0 {
				t.Errorf("%s n=%d: %d Lemma 1 violations", name, n, res.Pairs.Lemma1Violations)
			}
			if res.Pairs.CreditConflicts != 0 {
				t.Errorf("%s n=%d: %d credit conflicts", name, n, res.Pairs.CreditConflicts)
			}
			if res.Anomalies.StuckRuns > 0 || res.Anomalies.LostAdvance > 0 {
				t.Errorf("%s n=%d: hard anomalies %+v", name, n, res.Anomalies)
			}
		}
	}
}

// TestCheckInvariantsCatchesGrowingBox: a round that moves every robot one
// column right keeps every edge and makes every move a king step, so only
// the bounding-box invariant sees that the configuration grew. The safety
// battery must end the run there with ErrInvariant, naming it.
func TestCheckInvariantsCatchesGrowingBox(t *testing.T) {
	ch, err := generate.Spiral(6)
	if err != nil {
		t.Fatal(err)
	}
	e, err := sim.NewEngine(ch, sim.Options{CheckInvariants: true})
	if err != nil {
		t.Fatal(err)
	}
	sim.ArmShift(e, 3)
	_, err = e.Run()
	if !errors.Is(err, sim.ErrInvariant) || !strings.Contains(err.Error(), "bbox-monotone") {
		t.Fatalf("got %v, want ErrInvariant naming bbox-monotone", err)
	}
}

func TestWatchdogFires(t *testing.T) {
	ch, err := generate.Rectangle(20, 20)
	if err != nil {
		t.Fatal(err)
	}
	opts := sim.Options{MaxRounds: 10}
	_, err = sim.Gather(ch, opts)
	if !errors.Is(err, sim.ErrWatchdog) {
		t.Fatalf("expected watchdog, got %v", err)
	}
}

func TestResultRoundsPerRobot(t *testing.T) {
	var r sim.Result
	if r.RoundsPerRobot() != 0 {
		t.Error("zero-value result must not divide by zero")
	}
	r.Rounds, r.InitialLen = 30, 60
	if got := r.RoundsPerRobot(); got != 0.5 {
		t.Errorf("RoundsPerRobot = %v", got)
	}
}

func TestObserverSeesEveryRound(t *testing.T) {
	ch, err := generate.Rectangle(14, 14)
	if err != nil {
		t.Fatal(err)
	}
	rounds := 0
	lastRound := -1
	obs := sim.ObserverFunc(func(c *chain.Chain, rep core.RoundReport) {
		if rep.Round != lastRound+1 {
			t.Fatalf("observer skipped from round %d to %d", lastRound, rep.Round)
		}
		lastRound = rep.Round
		rounds++
	})
	res, err := sim.Gather(ch, sim.Options{Observer: obs})
	if err != nil {
		t.Fatal(err)
	}
	if rounds != res.Rounds {
		t.Errorf("observer saw %d rounds, result says %d", rounds, res.Rounds)
	}
}

func TestEngineOnGatheredChain(t *testing.T) {
	ch, err := generate.Rectangle(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Gather(ch, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 0 || !res.Gathered {
		t.Errorf("already-gathered chain must take 0 rounds: %+v", res)
	}
}

func TestEngineResultTotals(t *testing.T) {
	ch, err := generate.Rectangle(24, 24)
	if err != nil {
		t.Fatal(err)
	}
	n := ch.Len()
	res, err := sim.Gather(ch, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The chain shrinks from n to FinalLen robots, one removal per merge.
	if res.TotalMerges != n-res.FinalLen {
		t.Errorf("merges %d != removed robots %d", res.TotalMerges, n-res.FinalLen)
	}
	if res.FinalLen > 4 {
		t.Errorf("a gathered chain holds at most 4 positions-worth of robots in a 2x2, got len %d", res.FinalLen)
	}
	if res.InitialDiameter <= 0 {
		t.Error("initial diameter missing")
	}
	// Runs started equals runs ended (none survive gathering) — check the
	// bookkeeping adds up.
	ended := 0
	for _, v := range res.EndsByReason {
		ended += v
	}
	if ended > res.TotalRunsStarted {
		t.Errorf("more run ends (%d) than starts (%d)", ended, res.TotalRunsStarted)
	}
}

func TestInvalidConfigRejected(t *testing.T) {
	ch, err := generate.Rectangle(5, 5)
	if err != nil {
		t.Fatal(err)
	}
	bad := sim.Options{Config: core.Config{ViewingPathLength: 3, RunPeriod: 13, MaxMergeLen: 2}}
	if _, err := sim.NewEngine(ch, bad); err == nil {
		t.Error("tiny viewing path length accepted")
	}
}
