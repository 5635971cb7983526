package oracle_test

import (
	"errors"
	"math/rand"
	"strconv"
	"testing"

	"gridgather/internal/chain"
	"gridgather/internal/core"
	"gridgather/internal/generate"
	"gridgather/internal/grid"
	"gridgather/internal/oracle"
	"gridgather/internal/sim"
)

// TestCheckAllFamilies drives every generator family through the lockstep
// check at several sizes with the default configuration: the core
// conformance smoke of the suite (the deep sweep lives in cmd/gatherfuzz).
func TestCheckAllFamilies(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, name := range generate.Names() {
		for _, size := range []int{12, 40, 96} {
			ch, err := generate.Named(name, size, rng)
			if err != nil {
				t.Fatalf("%s/%d: %v", name, size, err)
			}
			res, err := oracle.Check(core.DefaultConfig(), ch, 0)
			if err != nil {
				t.Fatalf("%s/%d (n=%d): %v", name, size, ch.Len(), err)
			}
			if res.FinalLen > 4 {
				t.Errorf("%s/%d: gathered with %d robots left", name, size, res.FinalLen)
			}
		}
	}
}

// TestCheckConfigAblations sweeps the L and V neighbourhood of the paper's
// parameters plus the run-disabling ablations on a merge-heavy and a
// run-heavy workload.
func TestCheckConfigAblations(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	workloads := []*chain.Chain{}
	if ch, err := generate.DoubledPath(20, rng); err == nil {
		workloads = append(workloads, ch)
	}
	if ch, err := generate.Rectangle(12, 12); err == nil {
		workloads = append(workloads, ch)
	}
	cfgs := []core.Config{
		{ViewingPathLength: 7, RunPeriod: 13, MaxMergeLen: 6},
		{ViewingPathLength: 9, RunPeriod: 9, MaxMergeLen: 8},
		{ViewingPathLength: 11, RunPeriod: 5, MaxMergeLen: 10},
		{ViewingPathLength: 15, RunPeriod: 21, MaxMergeLen: 14},
		{ViewingPathLength: 11, RunPeriod: 13, MaxMergeLen: 3},
		{ViewingPathLength: 11, RunPeriod: 13, MaxMergeLen: 10, SequentialRuns: true},
		{ViewingPathLength: 11, RunPeriod: 13, MaxMergeLen: 10, DisableRunStarts: true},
	}
	for wi, ch := range workloads {
		for ci, cfg := range cfgs {
			if cfg.DisableRunStarts && wi != 0 {
				// Merge-only gathering needs a merge-rich workload; on a
				// mergeless structured shape (a rectangle) it livelocks by
				// design, which is not a conformance question.
				continue
			}
			if _, err := oracle.Check(cfg, ch, 0); err != nil {
				t.Errorf("workload %d cfg %d (%+v): %v", wi, ci, cfg, err)
			}
		}
	}
}

// TestCheckRandomWalks hammers the adversarial tangled-chain family, the
// workload most likely to hit degenerate merge interactions.
func TestCheckRandomWalks(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 30; trial++ {
		n := 4 + 2*rng.Intn(40)
		ch, err := generate.RandomClosedWalk(n, rng)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := oracle.Check(core.DefaultConfig(), ch, 0); err != nil {
			t.Fatalf("trial %d (n=%d): %v\nseed:\n%s", trial, n, err, oracle.FormatSeed(ch.Positions()))
		}
	}
}

// TestInjectedFaultsCaught: a checking apparatus must catch a wrong
// answer. Every defined fault, armed in the naive model, must produce a
// divergence on at least one small workload, and also when armed mid-run,
// where the defect only appears after the model has behaved correctly for
// a while: at rounds 0, 5 and 13 each fault must be caught on at least one
// workload of a fixed panel. Random walks gather in well under 13 rounds,
// so the late arms need long-contracting shapes (a spiral keeps merging
// and spiking for ~99 rounds). The clean control (no fault, with a mid-run
// checkpoint round-trip) must pass on every workload, so the detector is
// sensitive without being trigger-happy.
func TestInjectedFaultsCaught(t *testing.T) {
	panel := []func() (*chain.Chain, error){
		func() (*chain.Chain, error) { return generate.Spiral(8) },
		func() (*chain.Chain, error) { return generate.Comb(8, 9, 3) },
		func() (*chain.Chain, error) { return generate.RandomClosedWalk(256, rand.New(rand.NewSource(11))) },
	}
	rng := rand.New(rand.NewSource(34))
	for _, fault := range []oracle.Fault{oracle.FaultSkipMergeResolution, oracle.FaultSkipSpikePriority} {
		caught := false
		for trial := 0; trial < 80 && !caught; trial++ {
			ch, err := generate.RandomClosedWalk(8+2*rng.Intn(30), rng)
			if err != nil {
				t.Fatal(err)
			}
			_, err = oracle.CheckWithOptions(core.DefaultConfig(), ch, oracle.Options{Fault: fault})
			if err != nil {
				caught = true
			}
		}
		if !caught {
			t.Errorf("fault %v survived 80 random chains undetected", fault)
		}
		for _, armAt := range []int{0, 5, 13} {
			t.Run(fault.String()+"@"+strconv.Itoa(armAt), func(t *testing.T) {
				for _, build := range panel {
					ch, err := build()
					if err != nil {
						t.Fatal(err)
					}
					if _, err := oracle.CheckWithOptions(core.DefaultConfig(), ch, oracle.Options{Fault: fault, FaultRound: armAt}); err != nil {
						return // caught
					}
				}
				t.Fatalf("fault %s armed at round %d never caught on the %d-workload panel", fault, armAt, len(panel))
			})
		}
	}
	t.Run("clean control", func(t *testing.T) {
		rng := rand.New(rand.NewSource(92))
		for trial := 0; trial < 10; trial++ {
			ch, err := generate.RandomClosedWalk(40+2*rng.Intn(40), rand.New(rand.NewSource(rng.Int63())))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := oracle.CheckWithOptions(core.DefaultConfig(), ch, oracle.Options{CheckpointRound: 1 + trial*3}); err != nil {
				t.Fatalf("clean scenario flagged: %v", err)
			}
		}
	})
}

// TestFaultThatCannotFireIsAnError: a self-test armed with a fault the
// check cannot inject would pass without testing anything, so the oracle
// rejects it — a fault on a strategy without a naive model, or a value
// outside the defined faults — while the unarmed controls stay clean.
func TestFaultThatCannotFireIsAnError(t *testing.T) {
	cases := []struct {
		name     string
		strategy core.StrategyName
		fault    oracle.Fault
		wantErr  bool
	}{
		{"paper clean", core.StrategyPaper, oracle.FaultNone, false},
		{"lintime clean", core.StrategyLinTime, oracle.FaultNone, false},
		{"lintime skip-merge-resolution", core.StrategyLinTime, oracle.FaultSkipMergeResolution, true},
		{"lintime skip-spike-priority", core.StrategyLinTime, oracle.FaultSkipSpikePriority, true},
		{"paper unknown fault", core.StrategyPaper, oracle.Fault(99), true},
		{"paper negative fault", core.StrategyPaper, oracle.Fault(-1), true},
		{"lintime unknown fault", core.StrategyLinTime, oracle.Fault(99), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ch, err := generate.Spiral(8)
			if err != nil {
				t.Fatal(err)
			}
			_, err = oracle.CheckWithOptions(core.DefaultConfig(), ch, oracle.Options{
				Strategy: tc.strategy,
				Fault:    tc.fault,
			})
			var div *oracle.Divergence
			switch {
			case !tc.wantErr && err != nil:
				t.Fatalf("clean check failed: %v", err)
			case tc.wantErr && err == nil:
				t.Fatalf("fault %v on %s passed without testing anything", tc.fault, tc.strategy)
			case tc.wantErr && errors.As(err, &div):
				t.Fatalf("want a rejected fault, got a divergence: %v", err)
			}
		})
	}
}

// TestGatherNaive: the model alone gathers a couple of configurations,
// within the Theorem 1 cap.
func TestGatherNaive(t *testing.T) {
	ch, err := generate.Rectangle(6, 6)
	if err != nil {
		t.Fatal(err)
	}
	rounds, err := oracle.GatherNaive(ch.Positions(), core.DefaultConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if cap := oracle.Theorem1Cap(core.DefaultConfig(), ch.Len()); rounds > cap {
		t.Errorf("model needed %d rounds, Theorem 1 cap is %d", rounds, cap)
	}
}

// TestBatteryCatchesBrokenStates hand-builds states violating each
// invariant and asserts the battery names the right one. The battery opens
// with the engine's safety list, in its order.
func TestBatteryCatchesBrokenStates(t *testing.T) {
	battery, safety := oracle.Battery(), sim.Safety()
	for i, inv := range safety {
		if battery[i].Name != inv.Name {
			t.Fatalf("battery entry %d is %q, the engine's safety list has %q", i, battery[i].Name, inv.Name)
		}
	}

	find := func(name string) sim.Invariant {
		for _, inv := range oracle.Battery() {
			if inv.Name == name {
				return inv
			}
		}
		t.Fatalf("no invariant %q in the battery", name)
		return sim.Invariant{}
	}

	square := chain.MustNew([]grid.Vec{
		grid.V(0, 0), grid.V(1, 0), grid.V(1, 1), grid.V(0, 1),
	})

	// bbox-monotone: pretend the previous box was smaller.
	st := &sim.RoundState{Chain: square, Cfg: core.DefaultConfig(), InitialLen: 4,
		PrevBounds: grid.BoxOf(grid.V(0, 0)), LastMergeRound: -1}
	if err := find("bbox-monotone").Check(st); err == nil {
		t.Error("bbox-monotone accepted a growing box")
	}

	// theorem1-round-cap: a gathering reported far beyond the cap.
	st = &sim.RoundState{Chain: square, Cfg: core.DefaultConfig(), InitialLen: 4,
		LastMergeRound: -1,
		Report:         core.RoundReport{Round: 10_000, Gathered: true}}
	if err := find("theorem1-round-cap").Check(st); err == nil {
		t.Error("theorem1-round-cap accepted a 10k-round gathering of n=4")
	}

	// lemma1-window: a run-start round with neither merges nor good pairs.
	st = &sim.RoundState{Chain: square, Cfg: core.DefaultConfig(), InitialLen: 64,
		LastMergeRound: -1,
		Report:         core.RoundReport{Round: 13 * 4, ChainLen: 64}}
	if err := find("lemma1-window").Check(st); err == nil {
		t.Error("lemma1-window accepted a merge-free, pair-free window")
	}

	// The safety checks accept a healthy square that did not move.
	st = &sim.RoundState{Cfg: core.DefaultConfig(), InitialLen: 4, LastMergeRound: -1}
	st.Begin(square)
	for _, inv := range safety {
		if err := inv.Check(st); err != nil {
			t.Errorf("%s rejected a healthy square: %v", inv.Name, err)
		}
	}

	// run-storage: four runs on one robot.
	host := square.At(0)
	st.Runs = []*core.Run{{ID: 1, Host: host}, {ID: 2, Host: host}, {ID: 3, Host: host}, {ID: 4, Host: host}}
	if err := find("run-storage").Check(st); err == nil {
		t.Error("run-storage accepted four runs on one robot")
	}

	// king-steps: a robot two columns from where Begin saw it.
	square.MoveBy(host, grid.V(2, 0))
	if err := find("king-steps").Check(st); err == nil {
		t.Error("king-steps accepted a two-column move")
	}
}

// TestDivergenceError pins the error formatting the fuzz targets print.
func TestDivergenceError(t *testing.T) {
	d := &oracle.Divergence{Round: 3, Field: "report.ChainLen", Engine: "10", Model: "8"}
	var err error = d
	var dd *oracle.Divergence
	if !errors.As(err, &dd) {
		t.Fatal("Divergence must be usable with errors.As")
	}
	if dd.Round != 3 {
		t.Fatalf("round lost in errors.As round trip: %+v", dd)
	}
}

// TestBackToBackRunsRegression pins the first real finding of the
// conformance campaign (gatherfuzz seed 1, scenario 73507, shrunk):
// on a doubled chain at V=9/L=17, merge splices teleported two runs'
// hosts onto the two corners of one jog, back to back; both executed
// reshapement operation (a) simultaneously and stretched the jog edge to
// L1=3, breaking the chain in round 3 — engine and model in agreement.
// The fix suppresses ring-adjacent runner hops that would break their
// shared edge (an anomaly, like any other hop conflict); this witness
// must now gather cleanly under lockstep.
func TestBackToBackRunsRegression(t *testing.T) {
	data := []byte("\x01\x01\x01\x02\x02\x01\x02\x03\x01\x02\x03\x02\x02\x03\x03\x03\x02\x02\x03\x03\x01\x01\x01\x02\x02\x01\x02\x03\x02\x01\x02\x03\x03\x03\x01\x03\x03\x03\x03\x01\x01\x01\x01\x00\x01\x00\x01\x01\x01\x00\x00\x00\x00\x00\x01\x01\x00\x00\x01\x00\x00\x01\x00\x01\x01\x01\x00\x00\x03\x03\x00\x01\x03\x00\x03\x03\x03\x03\x03\x01\x01\x02\x03\x02\x02\x03\x03\x03\x00\x03\x02\x03")
	ch, err := generate.FromBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{ViewingPathLength: 9, RunPeriod: 17, MaxMergeLen: 8}
	if _, err := oracle.Check(cfg, ch, 0); err != nil {
		t.Fatalf("back-to-back runner hops broke the chain again: %v", err)
	}
	// The default configuration must survive it too.
	if _, err := oracle.Check(core.DefaultConfig(), ch, 0); err != nil {
		t.Fatal(err)
	}
}
