package core

import (
	"encoding/json"
	"errors"
	"math/rand"
	"testing"

	"gridgather/internal/chain"
	"gridgather/internal/generate"
)

// roundTrip snapshots the strategy and its chain through JSON (the form
// checkpoints store) and rebuilds both.
func roundTrip(t *testing.T, name StrategyName, s Strategy) Strategy {
	t.Helper()
	raw := struct {
		Chain chain.Snapshot
		Strat StrategySnapshot
	}{s.Chain().Snapshot(), s.Snapshot()}
	data, err := json.Marshal(raw)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back struct {
		Chain chain.Snapshot
		Strat StrategySnapshot
	}
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	ch, err := chain.FromSnapshot(back.Chain)
	if err != nil {
		t.Fatalf("chain.FromSnapshot: %v", err)
	}
	rt, err := RestoreStrategy(name, ch, s.Config(), back.Strat)
	if err != nil {
		t.Fatalf("RestoreStrategy: %v", err)
	}
	return rt
}

// TestStrategySnapshotResumesIdentically checkpoints the paper algorithm at
// several mid-run rounds — including rounds where runs are mid-traverse and
// just-started — and verifies the restored strategy finishes with the exact
// per-round history of the uninterrupted one.
func TestStrategySnapshotResumesIdentically(t *testing.T) {
	for _, name := range []StrategyName{StrategyPaper, StrategyLinTime} {
		for _, ckptRound := range []int{1, 7, 26, 40} {
			ch, err := generate.Spiral(4)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := NewStrategy(name, ch, DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < ckptRound && !ref.Gathered(); i++ {
				if _, err := ref.StepActivated(nil); err != nil {
					t.Fatal(err)
				}
			}
			rt := roundTrip(t, name, ref)
			if rt.Round() != ref.Round() {
				t.Fatalf("%s@%d: restored round %d, want %d", name, ckptRound, rt.Round(), ref.Round())
			}
			if len(rt.Runs()) != len(ref.Runs()) {
				t.Fatalf("%s@%d: restored %d runs, want %d", name, ckptRound, len(rt.Runs()), len(ref.Runs()))
			}
			for round := 0; !ref.Gathered(); round++ {
				if round > 10000 {
					t.Fatalf("%s@%d: no termination", name, ckptRound)
				}
				repA, errA := ref.StepActivated(nil)
				repB, errB := rt.StepActivated(nil)
				if (errA == nil) != (errB == nil) {
					t.Fatalf("%s@%d round %d: errors diverge: %v vs %v", name, ckptRound, round, errA, errB)
				}
				if repA.ChainLen != repB.ChainLen || repA.RunnerHops != repB.RunnerHops ||
					repA.MergeHops != repB.MergeHops || repA.StartHops != repB.StartHops ||
					len(repA.Starts) != len(repB.Starts) || len(repA.Ends) != len(repB.Ends) ||
					repA.Gathered != repB.Gathered {
					t.Fatalf("%s@%d round %d: reports diverge:\n%+v\n%+v", name, ckptRound, round, repA, repB)
				}
			}
			if !rt.Gathered() {
				t.Fatalf("%s@%d: original gathered, restored did not", name, ckptRound)
			}
			for i, p := range ref.Chain().Positions() {
				if q := rt.Chain().Positions()[i]; p != q {
					t.Fatalf("%s@%d: final position %d: %v vs %v", name, ckptRound, i, p, q)
				}
			}
		}
	}
}

// TestStrategySnapshotWorkers restores under a config that differs only in
// the retired Workers field, which checkpoints still carry: the field is
// ignored, so the restored strategy must finish in step with the original.
func TestStrategySnapshotWorkers(t *testing.T) {
	ch, err := generate.Named("comb", 64, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := New(ch, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 9; i++ {
		stepOK(t, ref)
	}
	snap, chSnap := ref.Snapshot(), ref.Chain().Snapshot()
	ch4, err := chain.FromSnapshot(chSnap)
	if err != nil {
		t.Fatal(err)
	}
	cfg4 := DefaultConfig()
	cfg4.Workers = 4
	rt, err := RestoreStrategy(StrategyPaper, ch4, cfg4, snap)
	if err != nil {
		t.Fatal(err)
	}
	for !ref.Gathered() {
		stepOK(t, ref)
		if _, err := rt.StepActivated(nil); err != nil {
			t.Fatal(err)
		}
	}
	if !rt.Gathered() {
		t.Fatal("restore with Workers=4 did not gather in step with the original")
	}
	if ref.Round() != rt.Round() {
		t.Fatalf("round counters diverge: %d vs %d", ref.Round(), rt.Round())
	}
}

func TestRestoreStrategyRejectsCorruption(t *testing.T) {
	mk := func(t *testing.T) (StrategySnapshot, chain.Snapshot, Config) {
		t.Helper()
		ch, err := generate.Spiral(3)
		if err != nil {
			t.Fatal(err)
		}
		a, err := New(ch, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; len(a.Runs()) == 0 && i < 200; i++ {
			stepOK(t, a)
		}
		snap := a.Snapshot()
		if len(snap.Runs) == 0 {
			t.Fatal("workload produced no runs to corrupt")
		}
		return snap, a.Chain().Snapshot(), a.Config()
	}
	cases := []struct {
		name   string
		mutate func(*StrategySnapshot)
	}{
		{"negative round", func(s *StrategySnapshot) { s.Round = -1 }},
		{"id beyond well", func(s *StrategySnapshot) { s.Runs[0].ID = s.NextRun }},
		{"dead host", func(s *StrategySnapshot) { s.Runs[0].Host = chain.Handle(1 << 20) }},
		{"zero dir", func(s *StrategySnapshot) { s.Runs[0].Dir = 0 }},
		{"bad mode", func(s *StrategySnapshot) { s.Runs[0].Mode = RunMode(7) }},
		{"bad kind", func(s *StrategySnapshot) { s.Runs[0].Kind = StartKind(7) }},
		{"negative budget", func(s *StrategySnapshot) { s.Runs[0].PassBudget = -1 }},
		{"target never issued", func(s *StrategySnapshot) { s.Runs[0].OpTarget = chain.Handle(1 << 20) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			snap, chSnap, cfg := mk(t)
			tc.mutate(&snap)
			ch, err := chain.FromSnapshot(chSnap)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := RestoreStrategy(StrategyPaper, ch, cfg, snap); !errors.Is(err, ErrBadStrategySnapshot) {
				t.Fatalf("got %v, want ErrBadStrategySnapshot", err)
			}
		})
	}
	t.Run("lintime with runs", func(t *testing.T) {
		snap, chSnap, cfg := mk(t)
		ch, err := chain.FromSnapshot(chSnap)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := RestoreStrategy(StrategyLinTime, ch, cfg, snap); !errors.Is(err, ErrBadStrategySnapshot) {
			t.Fatalf("got %v, want ErrBadStrategySnapshot", err)
		}
	})
}
