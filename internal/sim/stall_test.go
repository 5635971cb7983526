package sim_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"gridgather/internal/core"
	"gridgather/internal/generate"
	"gridgather/internal/sched"
	"gridgather/internal/sim"
)

// TestLinTimeStochasticStallFailsFast pins the first documented bug of the
// serving PR: lintime under stochastic schedulers can stall forever at the
// suppression fixpoint, and before the detector it burned the whole
// rate-scaled watchdog budget before surfacing as a DNF. Now the run must
// end as a typed clean DNF — ErrStalled, Termination = TermStalled, sealed
// well below the watchdog limit — and must do so reproducibly (seeded
// schedulers make the verdict a pure function of the options).
func TestLinTimeStochasticStallFailsFast(t *testing.T) {
	for _, sc := range []sched.Config{
		{Kind: sched.Random, Seed: 5},
		{Kind: sched.BoundedAdversary, K: 3, Seed: 9},
	} {
		t.Run(sc.String(), func(t *testing.T) {
			ch, err := generate.Spiral(6)
			if err != nil {
				t.Fatal(err)
			}
			opts := sim.Options{Sched: sc, Strategy: core.StrategyLinTime}
			e, err := sim.NewEngine(ch.Clone(), opts)
			if err != nil {
				t.Fatal(err)
			}
			res, err := e.Run()
			if !errors.Is(err, sim.ErrStalled) {
				t.Fatalf("got %v (gathered=%v in %d rounds), want ErrStalled", err, res.Gathered, res.Rounds)
			}
			if res.Termination != core.TermStalled {
				t.Fatalf("Termination = %v, want %v", res.Termination, core.TermStalled)
			}
			if res.Gathered {
				t.Fatal("stalled run claims gathering")
			}
			if res.Rounds >= e.Limit() {
				t.Fatalf("stall verdict at round %d did not beat the watchdog limit %d", res.Rounds, e.Limit())
			}
			if res.FinalLen != e.Chain().Len() {
				t.Fatalf("torn result: FinalLen %d, chain has %d", res.FinalLen, e.Chain().Len())
			}
			again, err2 := sim.Gather(ch.Clone(), opts)
			if !errors.Is(err2, sim.ErrStalled) {
				t.Fatalf("second run: got %v, want ErrStalled", err2)
			}
			if !reflect.DeepEqual(res, again) {
				t.Errorf("stall verdict not reproducible:\n%+v\nvs\n%+v", res, again)
			}
		})
	}
}

// TestStallDetectorOffUnderFSYNC pins the gate: a genuine FSYNC livelock
// (the merge-only ablation on a mergeless shape) must still run to the
// watchdog, never to ErrStalled — under FSYNC a progress-free round is the
// FSYNC liveness machinery's case, and the detector stays out of its way.
func TestStallDetectorOffUnderFSYNC(t *testing.T) {
	ch, err := generate.Rectangle(24, 24)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.DisableRunStarts = true
	_, err = sim.Gather(ch, sim.Options{Config: cfg, MaxRounds: 50})
	if !errors.Is(err, sim.ErrWatchdog) {
		t.Fatalf("got %v, want ErrWatchdog", err)
	}
	if errors.Is(err, sim.ErrStalled) {
		t.Fatal("stall detector fired under FSYNC")
	}
}

// TestLivelockConfigRejected pins the second documented bug's fix: configs
// with MaxMergeLen < V-1 provably livelock square-ring endgames (E11), and
// under the paper strategy they are now refused at validation with the
// typed ErrLivelockConfig instead of running to a watchdog-limit DNF.
func TestLivelockConfigRejected(t *testing.T) {
	doomed := core.Config{ViewingPathLength: 11, RunPeriod: 13, MaxMergeLen: 8}

	ch, err := generate.Rectangle(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.NewEngine(ch.Clone(), sim.Options{Config: doomed}); !errors.Is(err, sim.ErrLivelockConfig) {
		t.Fatalf("NewEngine: got %v, want ErrLivelockConfig", err)
	}
	if err := (sim.Options{Config: doomed}).Validate(); !errors.Is(err, sim.ErrLivelockConfig) {
		t.Fatalf("Validate: got %v, want ErrLivelockConfig", err)
	}

	// The deliberate escapes: the ablation opt-in, the non-paper strategy
	// (lintime has no merge patterns to cap), and the V-1 maximum itself —
	// including an over-large value Validate clamps down to V-1.
	for name, opts := range map[string]sim.Options{
		"opt-in":   {Config: doomed, AllowLivelockConfig: true},
		"lintime":  {Config: doomed, Strategy: core.StrategyLinTime},
		"maximum":  {Config: core.DefaultConfig()},
		"clamped":  {Config: core.Config{ViewingPathLength: 11, RunPeriod: 13, MaxMergeLen: 99}},
		"defaults": {},
	} {
		if err := opts.Validate(); err != nil {
			t.Errorf("%s: Validate rejected a legitimate configuration: %v", name, err)
		}
	}

	// Invalid configs keep their own typed errors — the livelock check must
	// not mask them.
	bad := sim.Options{Config: core.Config{ViewingPathLength: 3, RunPeriod: 13, MaxMergeLen: 2}}
	if err := bad.Validate(); !errors.Is(err, core.ErrViewTooSmall) {
		t.Fatalf("got %v, want ErrViewTooSmall", err)
	}
}

// TestPaperSpellingLivelockWall pins the first half of the "paper"
// spelling fix: the E11 wall compared the raw name against the zero value,
// so Strategy "paper" with MaxMergeLen < V-1 slipped past it. Validate now
// reads the name through core.ParseStrategy.
func TestPaperSpellingLivelockWall(t *testing.T) {
	doomed := core.Config{ViewingPathLength: 11, RunPeriod: 13, MaxMergeLen: 8}
	ch, err := generate.Rectangle(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	opts := sim.Options{Config: doomed, Strategy: "paper"}
	if err := opts.Validate(); !errors.Is(err, sim.ErrLivelockConfig) {
		t.Fatalf("Validate: got %v, want ErrLivelockConfig", err)
	}
	if _, err := sim.NewEngine(ch, opts); !errors.Is(err, sim.ErrLivelockConfig) {
		t.Fatalf("NewEngine: got %v, want ErrLivelockConfig", err)
	}
}

// TestPaperSpellingRunsLikeDefault pins the second half: Validate accepted
// Strategy "paper" but NewEngine refused it. NewEngine now stores the
// canonical name, so "paper" and "" run, checkpoint and serialise
// byte-identically, with Result.Strategy omitted.
func TestPaperSpellingRunsLikeDefault(t *testing.T) {
	ch, err := generate.Rectangle(12, 9)
	if err != nil {
		t.Fatal(err)
	}
	run := func(name core.StrategyName) (result, checkpoint []byte) {
		t.Helper()
		opts := sim.Options{Strategy: name}
		if err := opts.Validate(); err != nil {
			t.Fatalf("%q: Validate: %v", name, err)
		}
		e, err := sim.NewEngine(ch.Clone(), opts)
		if err != nil {
			t.Fatalf("%q: NewEngine: %v", name, err)
		}
		for i := 0; i < 20; i++ {
			if _, err := e.Step(); err != nil {
				t.Fatalf("%q: step %d: %v", name, i, err)
			}
		}
		cp, err := e.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		checkpoint, err = cp.Encode()
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run()
		if err != nil || !res.Gathered {
			t.Fatalf("%q: not gathered: %v", name, err)
		}
		result, err = json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return result, checkpoint
	}
	wantRes, wantCP := run("")
	gotRes, gotCP := run("paper")
	if !bytes.Equal(gotRes, wantRes) {
		t.Errorf("Result differs:\n paper: %s\n    \"\": %s", gotRes, wantRes)
	}
	if !bytes.Equal(gotCP, wantCP) {
		t.Error("checkpoint bytes differ between \"paper\" and the zero value")
	}
	if bytes.Contains(gotRes, []byte(`"Strategy"`)) {
		t.Errorf("Result.Strategy must stay omitted for the paper strategy: %s", gotRes)
	}
}
