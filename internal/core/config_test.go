package core

import (
	"errors"
	"strings"
	"testing"

	"gridgather/internal/grid"
)

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want error
	}{
		{"view too small", Config{ViewingPathLength: 6, RunPeriod: 13, MaxMergeLen: 2}, ErrViewTooSmall},
		{"bad period", Config{ViewingPathLength: 11, RunPeriod: 0, MaxMergeLen: 2}, ErrBadPeriod},
		{"bad merge len", Config{ViewingPathLength: 11, RunPeriod: 13, MaxMergeLen: 0}, ErrBadMergeLen},
	}
	for _, c := range cases {
		if err := c.cfg.Validate(); !errors.Is(err, c.want) {
			t.Errorf("%s: got %v, want %v", c.name, err, c.want)
		}
	}
	ok := DefaultConfig()
	if err := ok.Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
}

func TestConfigClampsMergeLen(t *testing.T) {
	cfg := Config{ViewingPathLength: 11, RunPeriod: 13, MaxMergeLen: 99}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.MaxMergeLen != 10 {
		t.Errorf("MaxMergeLen clamped to %d, want 10 (V-1)", cfg.MaxMergeLen)
	}
}

func TestDefaultConstantsMatchPaper(t *testing.T) {
	if DefaultViewingPathLength != 11 {
		t.Error("the paper's viewing path length is 11")
	}
	if DefaultRunPeriod != 13 {
		t.Error("the paper's run period L is 13")
	}
	if PassingTriggerDistance != 3 {
		t.Error("run passing triggers at distance 3 (Fig 8)")
	}
	if OpBTraverse != 3 {
		t.Error("operation (b) traverses 3 robots (Fig 11.b)")
	}
}

func TestNewRejectsBadInput(t *testing.T) {
	c := mustChain(t, grid.V(0, 0), grid.V(1, 0), grid.V(1, 1), grid.V(0, 1))
	if _, err := New(c, Config{ViewingPathLength: 2, RunPeriod: 13, MaxMergeLen: 2}); err == nil {
		t.Error("invalid config accepted")
	}
	// A chain broken post-construction must be rejected.
	bad := mustChain(t, grid.V(0, 0), grid.V(1, 0), grid.V(1, 1), grid.V(0, 1))
	bad.SetPos(bad.At(0), grid.V(50, 50))
	if _, err := New(bad, DefaultConfig()); err == nil {
		t.Error("broken chain accepted")
	}
}

func TestAccessors(t *testing.T) {
	c := mustChain(t, squareRing(12)...)
	alg, err := New(c, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if alg.Chain() != c {
		t.Error("Chain accessor wrong")
	}
	if alg.Config().RunPeriod != 13 {
		t.Error("Config accessor wrong")
	}
	if alg.Gathered() {
		t.Error("12x12 ring is not gathered")
	}
	if alg.Round() != 0 {
		t.Error("fresh algorithm at round 0")
	}
}

func TestStringers(t *testing.T) {
	if ModeNormal.String() != "normal" || ModeTraverse.String() != "traverse" || ModePassing.String() != "passing" {
		t.Error("RunMode strings wrong")
	}
	if !strings.Contains(RunMode(9).String(), "9") {
		t.Error("unknown RunMode must include the value")
	}
	if StartStairway.String() != "stairway" || StartCorner.String() != "corner" {
		t.Error("StartKind strings wrong")
	}
	for r := TermSequentRun; r <= TermStuck; r++ {
		if s := r.String(); s == "" || strings.Contains(s, "TerminateReason(") {
			t.Errorf("missing name for reason %d: %q", int(r), s)
		}
	}
	if !strings.Contains(TerminateReason(99).String(), "99") {
		t.Error("unknown reason must include the value")
	}
	c := mustChain(t, squareRing(12)...)
	alg, _ := New(c, DefaultConfig())
	run := alg.InjectRun(0, +1)
	if s := run.String(); !strings.Contains(s, "dir=+1") || !strings.Contains(s, "normal") {
		t.Errorf("run string: %q", s)
	}
}

func TestAnomaliesArithmetic(t *testing.T) {
	a := Anomalies{NotOnCorner: 1, ShortAhead: 2, HopConflicts: 3}
	b := Anomalies{StuckRuns: 4, LostAdvance: 5, TripleOccupancy: 6}
	a.Add(b)
	if a.Total() != 21 {
		t.Errorf("Total = %d, want 21", a.Total())
	}
}

func TestMergePlanEmpty(t *testing.T) {
	c := mustChain(t, squareRing(12)...)
	plan := mustPlan(t, c, 10)
	if !plan.Empty() {
		t.Error("square ring must be a Mergeless Chain")
	}
	flat := mustChain(t,
		grid.V(0, 0), grid.V(1, 0), grid.V(2, 0),
		grid.V(2, 1), grid.V(1, 1), grid.V(0, 1))
	plan = mustPlan(t, flat, 10)
	if plan.Empty() {
		t.Error("flat ring has merge patterns")
	}
}

// TestSpikePriorityPlan pins the suppression rule on the oscillator
// configuration: spikes execute, the overlapping column patterns sit out.
func TestSpikePriorityPlan(t *testing.T) {
	c := mustChain(t,
		grid.V(0, 0), grid.V(-1, 0), grid.V(-1, -1), grid.V(-1, -2),
		grid.V(-1, -3), grid.V(0, -3), grid.V(-1, -3), grid.V(-1, -2),
		grid.V(-1, -1), grid.V(-1, 0))
	plan := mustPlan(t, c, 10)
	if len(plan.Patterns) != 4 {
		t.Fatalf("expected 2 spikes + 2 column patterns, got %d", len(plan.Patterns))
	}
	if plan.Suppressed != 2 {
		t.Errorf("expected both column patterns suppressed, got %d", plan.Suppressed)
	}
	if len(plan.Executing) != 2 {
		t.Errorf("expected only the spikes to execute, got %d", len(plan.Executing))
	}
	for _, pat := range plan.Executing {
		if pat.Len != 1 {
			t.Errorf("executing pattern is not a spike: %+v", pat)
		}
	}
	// The spike whites stay: no hop assigned to them.
	for _, idx := range []int{1, 9, 4, 6} {
		if h, ok := plan.Hop(c.At(idx)); ok {
			t.Errorf("spike white %d must not hop, got %v", idx, h)
		}
	}
}
