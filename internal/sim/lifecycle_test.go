package sim_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"gridgather/internal/chain"
	"gridgather/internal/core"
	"gridgather/internal/generate"
	"gridgather/internal/parallel"
	"gridgather/internal/sched"
	"gridgather/internal/sim"
)

// stepN executes up to n rounds, stopping early when the run ends.
func stepN(t *testing.T, e *sim.Engine, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		cont, err := e.Step()
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if !cont {
			return
		}
	}
}

// resultJSON renders a Result exactly like the golden fixtures do.
func resultJSON(t *testing.T, res sim.Result) []byte {
	t.Helper()
	got, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(got, '\n')
}

// checkpointRoundTrip pushes a checkpoint through its full on-disk codec.
func checkpointRoundTrip(t *testing.T, e *sim.Engine) *sim.Checkpoint {
	t.Helper()
	cp, err := e.Checkpoint()
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	data, err := cp.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	back, err := sim.DecodeCheckpoint(data)
	if err != nil {
		t.Fatalf("DecodeCheckpoint: %v", err)
	}
	return back
}

// TestCheckpointResumeMatchesGolden is the checkpoint battery of DESIGN.md
// §11: for every golden workload (both strategies), run k rounds, take a
// checkpoint, push it through the byte codec, restore with the retired
// Options.Workers at 1 and 4 (which must change nothing), and finish — the
// resumed Result must be byte-identical to the committed fixture of the
// uninterrupted run.
func TestCheckpointResumeMatchesGolden(t *testing.T) {
	for _, w := range goldenWorkloads() {
		w := w
		t.Run(w.name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", "golden", w.name+".json"))
			if err != nil {
				t.Skipf("missing fixture: %v", err)
			}
			var full sim.Result
			if err := json.Unmarshal(want, &full); err != nil {
				t.Fatal(err)
			}
			rounds := map[int]bool{}
			for _, k := range []int{1, full.Rounds / 3, full.Rounds / 2, full.Rounds - 1} {
				if k > 0 && k < full.Rounds {
					rounds[k] = true
				}
			}
			for k := range rounds {
				for _, workers := range []int{1, 4} {
					t.Run(strconv.Itoa(k)+"_w"+strconv.Itoa(workers), func(t *testing.T) {
						ch, err := w.build()
						if err != nil {
							t.Fatal(err)
						}
						e, err := sim.NewEngine(ch, sim.Options{CheckInvariants: true, Strategy: w.strategy})
						if err != nil {
							t.Fatal(err)
						}
						stepN(t, e, k)
						cp := checkpointRoundTrip(t, e)
						if cp.Result.Rounds != k {
							t.Fatalf("checkpoint Result.Rounds = %d, want %d", cp.Result.Rounds, k)
						}
						rt, err := sim.Restore(cp, sim.Options{CheckInvariants: true, Workers: workers})
						if err != nil {
							t.Fatal(err)
						}
						res, err := rt.Run()
						if err != nil {
							t.Fatal(err)
						}
						if got := resultJSON(t, res); !bytes.Equal(got, want) {
							t.Errorf("resumed Result diverged from fixture\ngot:\n%s\nwant:\n%s", got, want)
						}
					})
				}
			}
		})
	}
}

// TestCheckpointResumeNonFSYNC covers the scheduler-replay half of the
// checkpoint contract: under every non-FSYNC scheduler kind, a run resumed
// from a mid-run checkpoint must reproduce the uninterrupted run's Result
// exactly — which requires the restored scheduler's RNG state to match.
func TestCheckpointResumeNonFSYNC(t *testing.T) {
	scheds := []sched.Config{
		{Kind: sched.RoundRobin, K: 3},
		{Kind: sched.BoundedAdversary, K: 3, Seed: 9},
		{Kind: sched.Random, Seed: 5},
	}
	for _, sc := range scheds {
		for _, strategy := range []core.StrategyName{core.StrategyPaper, core.StrategyLinTime} {
			// LinTime's contraction stalls under stochastic activation (no
			// liveness argument outside FSYNC/RoundRobin) — since the stall
			// detector those cells end deterministically as ErrStalled clean
			// DNFs, so they round-trip through checkpoints like any other
			// run and are covered here rather than skipped.
			t.Run(sc.String()+"/"+strategy.String(), func(t *testing.T) {
				opts := sim.Options{Sched: sc, Strategy: strategy}
				ch, err := generate.Spiral(6)
				if err != nil {
					t.Fatal(err)
				}
				ref, err := sim.Gather(ch.Clone(), opts)
				if err != nil && !errors.Is(err, sim.ErrStalled) {
					t.Fatal(err)
				}
				stalled := errors.Is(err, sim.ErrStalled)
				if stalled && ref.Termination != core.TermStalled {
					t.Fatalf("stalled run lacks the typed verdict: %+v", ref)
				}
				want := resultJSON(t, ref)
				for _, k := range []int{1, ref.Rounds / 2} {
					e, err := sim.NewEngine(ch.Clone(), opts)
					if err != nil {
						t.Fatal(err)
					}
					stepN(t, e, k)
					cp := checkpointRoundTrip(t, e)
					if len(cp.SchedLens) != k {
						t.Fatalf("ckpt@%d: %d scheduler rounds recorded", k, len(cp.SchedLens))
					}
					rt, err := sim.Restore(cp, sim.Options{Workers: 4})
					if err != nil {
						t.Fatal(err)
					}
					res, err := rt.Run()
					if stalled != errors.Is(err, sim.ErrStalled) {
						t.Fatalf("ckpt@%d: resumed run's verdict diverged: %v", k, err)
					}
					if err != nil && !stalled {
						t.Fatal(err)
					}
					if got := resultJSON(t, res); !bytes.Equal(got, want) {
						t.Errorf("ckpt@%d: resumed Result diverged\ngot:\n%s\nwant:\n%s", k, got, want)
					}
				}
			})
		}
	}
}

// TestCheckpointRejectsCorruption flips every single byte of an encoded
// checkpoint and demands the codec (or, at worst, Restore) reject it with a
// typed error — the CRC envelope's whole job, never an acceptance or a
// panic — plus the targeted error paths: version skew, artefact
// confusion, truncation, and semantic lies that decode cleanly.
func TestCheckpointRejectsCorruption(t *testing.T) {
	ch, err := generate.Rectangle(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	e, err := sim.NewEngine(ch, sim.Options{Sched: sched.Config{Kind: sched.BoundedAdversary, Seed: 3}})
	if err != nil {
		t.Fatal(err)
	}
	stepN(t, e, 3)
	cp, err := e.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	data, err := cp.Encode()
	if err != nil {
		t.Fatal(err)
	}

	t.Run("every byte flip detected", func(t *testing.T) {
		mut := make([]byte, len(data))
		for i := range data {
			copy(mut, data)
			mut[i] ^= 0xff
			bad, err := sim.DecodeCheckpoint(mut)
			if err == nil {
				_, err = sim.Restore(bad, sim.Options{})
			}
			if err == nil {
				t.Fatalf("flipping byte %d went undetected", i)
			}
			if !errors.Is(err, sim.ErrCheckpointCorrupt) && !errors.Is(err, sim.ErrCheckpointVersion) {
				t.Fatalf("flipping byte %d: untyped rejection %v", i, err)
			}
		}
	})
	t.Run("version skew", func(t *testing.T) {
		var env map[string]json.RawMessage
		if err := json.Unmarshal(data, &env); err != nil {
			t.Fatal(err)
		}
		env["version"] = json.RawMessage("99")
		mut, err := json.Marshal(env)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sim.DecodeCheckpoint(mut); !errors.Is(err, sim.ErrCheckpointVersion) {
			t.Fatalf("got %v, want ErrCheckpointVersion", err)
		}
	})
	t.Run("truncated", func(t *testing.T) {
		// Empty, one byte, the envelope head, half, and all but one.
		for _, cut := range []int{0, 1, 16, len(data) / 2, len(data) - 1} {
			if _, err := sim.DecodeCheckpoint(data[:cut]); !errors.Is(err, sim.ErrCheckpointCorrupt) {
				t.Fatalf("truncated to %d bytes: got %v, want ErrCheckpointCorrupt", cut, err)
			}
		}
	})
	t.Run("bundle is not a checkpoint", func(t *testing.T) {
		enc, err := (&sim.Bundle{Scenario: ch.Clone(), Err: "x", Round: -1}).Encode()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sim.DecodeCheckpoint(enc); !errors.Is(err, sim.ErrCheckpointCorrupt) {
			t.Fatalf("got %v, want ErrCheckpointCorrupt", err)
		}
		if _, err := sim.DecodeBundle(data); !errors.Is(err, sim.ErrBundleCorrupt) {
			t.Fatalf("got %v, want ErrBundleCorrupt", err)
		}
	})
	t.Run("scheduler replay length lie", func(t *testing.T) {
		bad, err := sim.DecodeCheckpoint(data)
		if err != nil {
			t.Fatal(err)
		}
		bad.SchedLens = bad.SchedLens[:len(bad.SchedLens)-1]
		if _, err := sim.Restore(bad, sim.Options{}); !errors.Is(err, sim.ErrCheckpointCorrupt) {
			t.Fatalf("got %v, want ErrCheckpointCorrupt", err)
		}
	})
	t.Run("impossible initial length", func(t *testing.T) {
		bad, err := sim.DecodeCheckpoint(data)
		if err != nil {
			t.Fatal(err)
		}
		bad.Result.InitialLen = 0
		if _, err := sim.Restore(bad, sim.Options{}); !errors.Is(err, sim.ErrCheckpointCorrupt) {
			t.Fatalf("got %v, want ErrCheckpointCorrupt", err)
		}
	})
}

// TestBundleRoundTrip exercises the diagnostic-bundle codec end to end,
// including the file helpers and the embedded-checkpoint field.
func TestBundleRoundTrip(t *testing.T) {
	ch, err := generate.Spiral(3)
	if err != nil {
		t.Fatal(err)
	}
	e, err := sim.NewEngine(ch.Clone(), sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	stepN(t, e, 2)
	cp, err := e.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	cpBytes, err := cp.Encode()
	if err != nil {
		t.Fatal(err)
	}
	b := &sim.Bundle{
		Label:      "unit",
		Seed:       parallel.TaskSeed(1, 2, 3),
		Scenario:   ch.Clone(),
		Config:     core.DefaultConfig(),
		Strategy:   core.StrategyPaper,
		Round:      2,
		Err:        "injected",
		Checkpoint: cpBytes,
	}
	path := filepath.Join(t.TempDir(), "fail.bundle")
	if err := sim.WriteBundle(path, b); err != nil {
		t.Fatal(err)
	}
	back, err := sim.ReadBundle(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Label != b.Label || back.Seed != b.Seed || back.Round != 2 || back.Err != "injected" {
		t.Fatalf("bundle fields lost: %+v", back)
	}
	if got, want := back.Scenario.Positions(), ch.Positions(); len(got) != len(want) {
		t.Fatalf("scenario lost robots: %d vs %d", len(got), len(want))
	} else {
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("scenario position %d: %v vs %v", i, got[i], want[i])
			}
		}
	}
	rcp, err := sim.DecodeCheckpoint(back.Checkpoint)
	if err != nil {
		t.Fatalf("embedded checkpoint: %v", err)
	}
	if _, err := sim.Restore(rcp, sim.Options{}); err != nil {
		t.Fatalf("embedded checkpoint does not restore: %v", err)
	}

	t.Run("corrupt file rejected", func(t *testing.T) {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		raw[len(raw)/2] ^= 0x01
		bad := filepath.Join(t.TempDir(), "bad.bundle")
		if err := os.WriteFile(bad, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := sim.ReadBundle(bad); err == nil {
			t.Fatal("corrupt bundle accepted")
		}
	})
	t.Run("missing scenario rejected", func(t *testing.T) {
		enc, err := (&sim.Bundle{Err: "x"}).Encode()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sim.DecodeBundle(enc); !errors.Is(err, sim.ErrBundleCorrupt) {
			t.Fatalf("got %v, want ErrBundleCorrupt", err)
		}
	})
}

// TestRunContextCancellation cancels runs from their observer at several
// round boundaries, under FSYNC and under a seeded bounded adversary, and
// verifies the three-way contract: the error wraps context.Canceled, the
// partial Result is sealed at the cancelled boundary, and a checkpoint
// taken after the cancellation resumes to the exact uninterrupted outcome.
// The reference run and the resume set the retired Options.Workers to 1
// or 4, which must change nothing.
func TestRunContextCancellation(t *testing.T) {
	for _, sc := range []sched.Config{{}, {Kind: sched.BoundedAdversary, Seed: 21}} {
		for _, workers := range []int{1, 4} {
			for _, stopAt := range []int{1, 5, 9} {
				t.Run(sc.String()+"_w"+strconv.Itoa(workers)+"@"+strconv.Itoa(stopAt), func(t *testing.T) {
					// A spiral contracts for ~99 FSYNC rounds, so every
					// cancel boundary lands mid-run.
					build := func() *chain.Chain {
						ch, err := generate.Spiral(6)
						if err != nil {
							t.Fatal(err)
						}
						return ch
					}
					ref, err := sim.Gather(build(), sim.Options{Workers: workers, Sched: sc})
					if err != nil {
						t.Fatal(err)
					}
					want := resultJSON(t, ref)

					ctx, cancel := context.WithCancel(context.Background())
					defer cancel()
					opts := sim.Options{Sched: sc, Observer: sim.ObserverFunc(func(_ *chain.Chain, rep core.RoundReport) {
						if rep.Round == stopAt-1 {
							cancel()
						}
					})}
					e, err := sim.NewEngine(build(), opts)
					if err != nil {
						t.Fatal(err)
					}
					res, err := e.RunContext(ctx)
					if !errors.Is(err, context.Canceled) {
						t.Fatalf("got %v, want context.Canceled", err)
					}
					if res.Rounds != stopAt {
						t.Fatalf("cancelled at round boundary %d, want %d", res.Rounds, stopAt)
					}
					if res.Gathered {
						t.Fatal("cancelled run claims gathering")
					}
					if res.FinalLen != e.Chain().Len() {
						t.Fatalf("torn result: FinalLen %d, chain has %d", res.FinalLen, e.Chain().Len())
					}

					cp := checkpointRoundTrip(t, e)
					rt, err := sim.Restore(cp, sim.Options{Workers: workers})
					if err != nil {
						t.Fatal(err)
					}
					resumed, err := rt.Run()
					if err != nil {
						t.Fatal(err)
					}
					if got := resultJSON(t, resumed); !bytes.Equal(got, want) {
						t.Errorf("resume after cancel diverged\ngot:\n%s\nwant:\n%s", got, want)
					}
				})
			}
		}
	}
}

// TestRunDeadline covers the wall-clock option: a tiny MaxWallTime must
// abort with ErrDeadline and an untorn zero-round Result.
func TestRunDeadline(t *testing.T) {
	t.Run("relative", func(t *testing.T) {
		ch, err := generate.Spiral(4)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Gather(ch, sim.Options{MaxWallTime: time.Nanosecond})
		if !errors.Is(err, sim.ErrDeadline) {
			t.Fatalf("got %v, want ErrDeadline", err)
		}
		if res.Rounds != 0 || res.Gathered {
			t.Fatalf("expired deadline still ran: %+v", res)
		}
		if res.FinalLen != res.InitialLen {
			t.Fatalf("torn result: FinalLen %d, InitialLen %d", res.FinalLen, res.InitialLen)
		}
	})
}

// TestEnginePanicPoisons makes the strategy panic at a chosen round
// (ArmPanic) and pins the containment contract: Step surfaces a
// *PanicError carrying the round and the stack, the engine stays poisoned,
// and Checkpoint refuses. It runs under the retired Options.Workers at 1
// and 4, which must change nothing: every round runs on the stepping
// goroutine, so the engine's own recover is the one containment layer
// either way.
func TestEnginePanicPoisons(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run("workers_"+strconv.Itoa(workers), func(t *testing.T) {
			ch, err := generate.Spiral(4)
			if err != nil {
				t.Fatal(err)
			}
			e, err := sim.NewEngine(ch, sim.Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			const panicAt = 3
			sim.ArmPanic(e, panicAt)
			res, err := e.Run()
			var pe *sim.PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("got %v (%T), want *sim.PanicError", err, err)
			}
			if pe.Round != panicAt {
				t.Fatalf("panic in round %d, want %d", pe.Round, panicAt)
			}
			if len(pe.Stack) == 0 {
				t.Fatal("no stack captured")
			}
			if res.Rounds != panicAt || res.Gathered {
				t.Fatalf("result not sealed at the failing round: %+v", res)
			}
			// Poisoned: the same error again, and no checkpoints.
			if _, err2 := e.Step(); !errors.Is(err2, err) {
				t.Fatalf("second Step returned %v, want the poisoning error", err2)
			}
			if _, err := e.Checkpoint(); err == nil {
				t.Fatal("Checkpoint accepted a poisoned engine")
			}
		})
	}
}

// campaignCell is one cell of a panic campaign: its index, the
// deterministic seed that reproduces it (parallel.TaskSeed), and the error
// it ended with (nil for a clean gather).
type campaignCell struct {
	index int
	seed  int64
	err   error
}

// panicCampaign runs a cells-wide gathering campaign that drains every
// cell: each cell simulates its own seeded random-walk chain, the armed
// cell's strategy panics in its first round (ArmPanic), and each cell's
// error lands in its own slot, so the pool never sees a failure and stops
// dispatching. Each cell carries its TaskSeed, so any failure is
// reproducible in isolation.
func panicCampaign(baseSeed int64, cells, armedCell, campaignWorkers int) []campaignCell {
	out := make([]campaignCell, cells)
	for i := range out {
		out[i] = campaignCell{index: i, seed: parallel.TaskSeed(baseSeed, i, 0)}
	}
	run := func(i int) error {
		ch, err := generate.RandomClosedWalk(24, rand.New(rand.NewSource(out[i].seed)))
		if err != nil {
			return err
		}
		e, err := sim.NewEngine(ch, sim.Options{})
		if err != nil {
			return err
		}
		if i == armedCell {
			sim.ArmPanic(e, 1)
		}
		_, err = e.Run()
		return err
	}
	err := parallel.ForEach(campaignWorkers, cells, func(i int) error {
		out[i].err = run(i)
		return nil
	})
	// Only a panic the engine failed to contain reaches the pool's guard.
	var pe *parallel.PanicError
	if errors.As(err, &pe) {
		out[pe.Index].err = err
	}
	return out
}

// TestEnginePanicCampaignIsolation is the panic-containment acceptance
// battery: in a 12-cell campaign whose fifth cell panics in its first
// round, exactly that cell fails — as a contained *sim.PanicError carrying
// the failing round — every other cell gathers, and the failing cell
// reports the deterministic task seed that reproduces it in isolation.
func TestEnginePanicCampaignIsolation(t *testing.T) {
	const (
		cells = 12
		armed = 5
	)
	cellsOut := panicCampaign(77, cells, armed, 4)
	if len(cellsOut) != cells {
		t.Fatalf("campaign reported %d cells, want %d", len(cellsOut), cells)
	}
	for _, c := range cellsOut {
		if c.index == armed {
			var pe *sim.PanicError
			if !errors.As(c.err, &pe) {
				t.Fatalf("armed cell %d: got %v (%T), want *sim.PanicError", c.index, c.err, c.err)
			}
			if pe.Round != 1 {
				t.Fatalf("armed cell panicked in round %d, want 1", pe.Round)
			}
			if c.seed == 0 {
				t.Fatal("armed cell lost its reproduction seed")
			}
			continue
		}
		if c.err != nil {
			t.Errorf("cell %d (seed %d) failed although only cell %d was armed: %v", c.index, c.seed, armed, c.err)
		}
	}
}

// TestCheckpointIgnoresWorkers pins that the retired Options.Workers never
// reaches a checkpoint: one run checkpointed under Workers 0, 1 and 4
// encodes to identical bytes, and a checkpoint restored under Workers 4
// encodes to those bytes again.
func TestCheckpointIgnoresWorkers(t *testing.T) {
	encode := func(e *sim.Engine) []byte {
		t.Helper()
		cp, err := e.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		data, err := cp.Encode()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	var want []byte
	for _, workers := range []int{0, 1, 4} {
		ch, err := generate.Spiral(6)
		if err != nil {
			t.Fatal(err)
		}
		e, err := sim.NewEngine(ch, sim.Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		stepN(t, e, 7)
		got := encode(e)
		if want == nil {
			want = got
		} else if !bytes.Equal(got, want) {
			t.Errorf("Workers=%d checkpoint differs from Workers=0\ngot:  %s\nwant: %s", workers, got, want)
		}
	}
	cp, err := sim.DecodeCheckpoint(want)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := sim.Restore(cp, sim.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := encode(rt); !bytes.Equal(got, want) {
		t.Errorf("checkpoint restored under Workers=4 re-encodes differently\ngot:  %s\nwant: %s", got, want)
	}
}

// TestLimitSaturates pins the overflow behaviour of the watchdog budget:
// absurd factors act as "no watchdog" (math.MaxInt) instead of wrapping
// negative and killing round 0 — with and without scheduler rate scaling.
func TestLimitSaturates(t *testing.T) {
	for name, opts := range map[string]sim.Options{
		"factor":       {WatchdogFactor: math.MaxInt},
		"slack":        {WatchdogSlack: math.MaxInt},
		"factor+sched": {WatchdogFactor: math.MaxInt, Sched: sched.Config{Kind: sched.Random, Seed: 1}},
	} {
		t.Run(name, func(t *testing.T) {
			ch, err := generate.Spiral(3)
			if err != nil {
				t.Fatal(err)
			}
			e, err := sim.NewEngine(ch, opts)
			if err != nil {
				t.Fatal(err)
			}
			if e.Limit() != math.MaxInt {
				t.Fatalf("Limit() = %d, want math.MaxInt", e.Limit())
			}
			if cont, err := e.Step(); err != nil || !cont {
				t.Fatalf("round 0 under a saturated limit: cont=%v err=%v", cont, err)
			}
		})
	}
}
