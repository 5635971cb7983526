package sim_test

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"gridgather/internal/chain"
	"gridgather/internal/core"
	"gridgather/internal/generate"
	"gridgather/internal/sched"
	"gridgather/internal/sim"
)

// TestFSYNCSchedulerByteIdentical pins the scheduler refactor's core
// contract: an explicit FSYNC scheduler config takes the same fast path as
// the zero value, producing byte-identical Result JSON on every golden
// workload (the same serialisation the golden fixtures pin).
func TestFSYNCSchedulerByteIdentical(t *testing.T) {
	for _, w := range goldenWorkloads() {
		t.Run(w.name, func(t *testing.T) {
			ch1, err := w.build()
			if err != nil {
				t.Fatal(err)
			}
			ch2 := ch1.Clone()
			def, err := sim.Gather(ch1, sim.Options{CheckInvariants: true})
			if err != nil {
				t.Fatal(err)
			}
			fs, err := sim.Gather(ch2, sim.Options{
				CheckInvariants: true,
				Sched:           sched.Config{Kind: sched.FSYNC},
			})
			if err != nil {
				t.Fatal(err)
			}
			a, _ := json.Marshal(def)
			b, _ := json.Marshal(fs)
			if string(a) != string(b) {
				t.Errorf("explicit FSYNC diverged from the default path:\n%s\nvs\n%s", a, b)
			}
		})
	}
}

// backToBackWitness is internal/oracle's TestBackToBackRunsRegression
// chain (generate.FromBytes): at V=9, L=17, MaxMergeLen=8 merge splices
// put two runs back to back on one jog in round 3, and the edge-conflict
// fixpoint suppresses both reshapement hops.
const backToBackWitness = "\x01\x01\x01\x02\x02\x01\x02\x03\x01\x02\x03\x02\x02\x03\x03\x03\x02\x02\x03\x03\x01\x01\x01\x02\x02\x01\x02\x03\x02\x01\x02\x03\x03\x03\x01\x03\x03\x03\x03\x01\x01\x01\x01\x00\x01\x00\x01\x01\x01\x00\x00\x00\x00\x00\x01\x01\x00\x00\x01\x00\x00\x01\x00\x01\x01\x01\x00\x00\x03\x03\x00\x01\x03\x00\x03\x03\x03\x03\x03\x01\x01\x02\x03\x02\x02\x03\x03\x03\x00\x03\x02\x03"

// TestFSYNCEqualsAllAwake pins the activation law on the witness where the
// edge-conflict fixpoint fires under full activation: FSYNC is the set
// with every robot awake, so Gather under fsync and under random:p=1, which
// wakes every robot through the partial-activation path, return identical
// Results — both ends of the back-to-back edge suppressed, one hop
// conflict each.
func TestFSYNCEqualsAllAwake(t *testing.T) {
	ch, err := generate.FromBytes([]byte(backToBackWitness))
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{ViewingPathLength: 9, RunPeriod: 17, MaxMergeLen: 8}
	gather := func(flag string) (sim.Result, []byte) {
		sc, err := sched.Parse(flag)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Gather(ch.Clone(), sim.Options{Config: cfg, Sched: sc, CheckInvariants: true})
		if err != nil {
			t.Fatalf("%s: %v", flag, err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return res, b
	}
	res, fsync := gather("fsync")
	_, awake := gather("random:p=1")
	if string(fsync) != string(awake) {
		t.Fatalf("FSYNC and all-awake Results differ:\nfsync:      %s\nrandom:p=1: %s", fsync, awake)
	}
	if res.Rounds != 10 || res.TotalRunnerHops != 0 || res.TotalMergeHops != 140 || res.Anomalies.HopConflicts != 2 {
		t.Errorf("witness moved: rounds %d, runner hops %d, merge hops %d, hop conflicts %d; want 10, 0, 140, 2",
			res.Rounds, res.TotalRunnerHops, res.TotalMergeHops, res.Anomalies.HopConflicts)
	}
}

// schedGatherCases is the scheduler spread of the engine-level battery.
// RoundRobin rates stay at K <= 3: once the sliding window ceil(n/K)
// shrinks below the straight merge patterns the square-ring endgame needs
// (up to MaxMergeLen blacks hopping together), gathering livelocks — a
// real robustness boundary of the strategy, measured by the E-sched
// success-rate sweep rather than asserted away here (DESIGN.md §8).
func schedGatherCases() []sched.Config {
	return []sched.Config{
		{Kind: sched.RoundRobin, K: 2},
		{Kind: sched.RoundRobin, K: 3},
		{Kind: sched.BoundedAdversary, K: 3, P: 0.5, Seed: 21},
		{Kind: sched.Random, P: 0.7, Seed: 22},
	}
}

// TestSchedulersGather runs each non-FSYNC scheduler to completion on
// run-driven and merge-driven workloads: the strategy must still gather
// (within the rate-scaled watchdog), never faster than FSYNC, and the run
// must be reproducible — the same options twice give identical Results.
func TestSchedulersGather(t *testing.T) {
	workloads := map[string]func() (*chain.Chain, error){
		"rectangle_24x24": func() (*chain.Chain, error) { return generate.Rectangle(24, 24) },
		"spiral_w3":       func() (*chain.Chain, error) { return generate.Spiral(3) },
		"walk_96_seed2": func() (*chain.Chain, error) {
			return generate.RandomClosedWalk(96, rand.New(rand.NewSource(2)))
		},
	}
	for _, sc := range schedGatherCases() {
		for name, build := range workloads {
			t.Run(fmt.Sprintf("%s/%s", sc, name), func(t *testing.T) {
				t.Parallel()
				ch, err := build()
				if err != nil {
					t.Fatal(err)
				}
				fsync, err := sim.Gather(ch.Clone(), sim.Options{})
				if err != nil {
					t.Fatal(err)
				}
				res, err := sim.Gather(ch.Clone(), sim.Options{Sched: sc, CheckInvariants: true})
				if err != nil {
					t.Fatalf("%s did not gather: %v", sc, err)
				}
				if !res.Gathered {
					t.Fatalf("%s: result not gathered: %+v", sc, res)
				}
				if res.Rounds < fsync.Rounds {
					t.Errorf("%s gathered in %d rounds, faster than FSYNC's %d — sleeping robots cannot speed gathering up",
						sc, res.Rounds, fsync.Rounds)
				}
				again, err := sim.Gather(ch.Clone(), sim.Options{Sched: sc, CheckInvariants: true})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(res, again) {
					t.Errorf("%s not reproducible:\n%+v\nvs\n%+v", sc, res, again)
				}
			})
		}
	}
}

// TestSchedulerWatchdogScaling pins the rate-scaled default watchdog: a
// K-cohort round robin must multiply the FSYNC budget by K, surfaced
// through the error path (MaxRounds untouched, impossible workload).
func TestSchedulerWatchdogScaling(t *testing.T) {
	ch, err := generate.Rectangle(10, 10)
	if err != nil {
		t.Fatal(err)
	}
	n := ch.Len()
	eng, err := sim.NewEngine(ch, sim.Options{Sched: sched.Config{Kind: sched.RoundRobin, K: 4}})
	if err != nil {
		t.Fatal(err)
	}
	fsyncLimit := sim.DefaultWatchdogFactor*n + sim.DefaultWatchdogSlack
	if got := eng.Limit(); got != 4*fsyncLimit {
		t.Errorf("rr:4 watchdog limit = %d, want 4x the FSYNC budget %d", got, fsyncLimit)
	}
}

// TestBadSchedulerRejected: an invalid scheduler config must fail engine
// construction, not surface mid-run.
func TestBadSchedulerRejected(t *testing.T) {
	ch, err := generate.Rectangle(6, 6)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.NewEngine(ch, sim.Options{Sched: sched.Config{Kind: sched.Random, P: 7}}); err == nil {
		t.Fatal("activation probability 7 accepted")
	}
}
