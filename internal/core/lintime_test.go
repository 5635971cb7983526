package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"gridgather/internal/chain"
	"gridgather/internal/generate"
	"gridgather/internal/grid"
)

// ringChain builds the boundary ring of a w x h rectangle, the canonical
// lintime test start: every robot sits on the bounding box, so the first
// contraction round moves the whole chain.
func ringChain(t *testing.T, w, h int) *chain.Chain {
	t.Helper()
	var pts []grid.Vec
	for x := 0; x < w-1; x++ {
		pts = append(pts, grid.V(x, 0))
	}
	for y := 0; y < h-1; y++ {
		pts = append(pts, grid.V(w-1, y))
	}
	for x := w - 1; x > 0; x-- {
		pts = append(pts, grid.V(x, h-1))
	}
	for y := h - 1; y > 0; y-- {
		pts = append(pts, grid.V(0, y))
	}
	ch, err := chain.New(pts)
	if err != nil {
		t.Fatalf("ring %dx%d: %v", w, h, err)
	}
	return ch
}

// linTimeChain is one named input of the lintime law tests.
type linTimeChain struct {
	name string
	ch   *chain.Chain
}

// linTimeInputs returns the inputs the FSYNC law is held to beyond the
// boundary rings: seeded random polyominoes of 10–69 cells and spirals of
// 1–6 windings.
func linTimeInputs(t *testing.T) []linTimeChain {
	t.Helper()
	var out []linTimeChain
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 15; trial++ {
		ch, err := generate.RandomPolyomino(10+rng.Intn(60), rng)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, linTimeChain{fmt.Sprintf("polyomino#%d", trial), ch})
	}
	for w := 1; w <= 6; w++ {
		ch, err := generate.Spiral(w)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, linTimeChain{fmt.Sprintf("spiral(%d)", w), ch})
	}
	return out
}

// TestLinTimeGathersWithinDiameterBound pins the strategy's defining
// property: under FSYNC every span >= 2 shrinks by two per round, so a
// chain of maximum span s (its diameter) gathers in exactly
// ceil((s-1)/2) rounds — on boundary rings, where every robot starts on
// the bounding box, and on the polyominoes and spirals of linTimeInputs.
func TestLinTimeGathersWithinDiameterBound(t *testing.T) {
	inputs := linTimeInputs(t)
	for _, side := range []int{3, 4, 9, 16, 33} {
		inputs = append(inputs, linTimeChain{fmt.Sprintf("ring%d", side), ringChain(t, side, side)})
	}
	for _, in := range inputs {
		span := in.ch.Diameter()
		want := span / 2 // ceil((span-1)/2): each round shrinks the span by two
		lt, err := NewLinTime(in.ch, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < 10*(span+1); r++ {
			if lt.Gathered() {
				if r != want {
					t.Fatalf("%s: gathered after %d rounds, want exactly %d (span %d)", in.name, r, want, span)
				}
				break
			}
			if _, err := lt.Step(); err != nil {
				t.Fatalf("%s round %d: %v", in.name, r, err)
			}
		}
		if !lt.Gathered() {
			t.Fatalf("%s: not gathered after %d rounds", in.name, 10*(span+1))
		}
	}
}

// TestLinTimeEdgesStayLegalEveryRound steps random walks, and the
// polyominoes and spirals of linTimeInputs, under FSYNC and a
// deterministic half-activation pattern and asserts the chain edge set
// after every single round — the direct unit-level version of what the
// conformance battery checks end to end. Liveness is only asserted under
// FSYNC: partial activation can suppression-stall by design (a robot whose
// neighbour always sleeps at the wrong time cancels forever), which the
// conformance layer counts as a clean DNF, not a failure.
func TestLinTimeEdgesStayLegalEveryRound(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 8; trial++ {
		for _, half := range []bool{false, true} {
			ch, err := generate.RandomClosedWalk(60+2*rng.Intn(80), rand.New(rand.NewSource(int64(100+trial))))
			if err != nil {
				t.Fatal(err)
			}
			checkLinTimeEdges(t, fmt.Sprintf("walk#%d", trial), ch, half)
		}
	}
	for _, in := range linTimeInputs(t) {
		for _, half := range []bool{false, true} {
			checkLinTimeEdges(t, in.name, in.ch.Clone(), half)
		}
	}
}

// checkLinTimeEdges runs lintime on ch for up to 4000 rounds, under FSYNC
// or with every other robot active, checking chain edges, the absence of
// zero edges and bounding-box monotonicity after every round, and
// gathering under FSYNC.
func checkLinTimeEdges(t *testing.T, name string, ch *chain.Chain, half bool) {
	t.Helper()
	lt, err := NewLinTime(ch, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var active []bool
	for r := 0; r < 4000 && !lt.Gathered(); r++ {
		if half {
			n := lt.Chain().Len()
			active = active[:0]
			for i := 0; i < n; i++ {
				active = append(active, (i+r)%2 == 0)
			}
		} else {
			active = nil
		}
		prev := lt.Chain().Bounds()
		if _, err := lt.StepActivated(active); err != nil {
			t.Fatalf("%s half=%v round %d: %v", name, half, r, err)
		}
		if err := lt.Chain().CheckEdges(); err != nil {
			t.Fatalf("%s half=%v round %d: %v", name, half, r, err)
		}
		if err := lt.Chain().CheckNoZeroEdges(); err != nil {
			t.Fatalf("%s half=%v round %d: %v", name, half, r, err)
		}
		cur := lt.Chain().Bounds()
		if cur.Min.X < prev.Min.X || cur.Min.Y < prev.Min.Y ||
			cur.Max.X > prev.Max.X || cur.Max.Y > prev.Max.Y {
			t.Fatalf("%s half=%v round %d: bbox grew %v -> %v", name, half, r, prev, cur)
		}
	}
	if !half && !lt.Gathered() {
		t.Fatalf("%s: not gathered after 4000 FSYNC rounds", name)
	}
}

// TestLinTimeSuppressionCounterexample is the regression pin for the
// partial-activation hazard the suppression fixpoint exists for: on an
// X-span-1 chain, an active robot clamped up in Y while its sleeping chain
// neighbour stays put would create a diagonal edge. The guard must cancel
// that move and leave the chain untouched.
func TestLinTimeSuppressionCounterexample(t *testing.T) {
	// A 2x2 block as a 4-cycle: spans are 1 in both axes, but force the
	// hazard by using a 2x3 ring where the Y span is 2 (shrinkable) and the
	// X span is 1 (not), so clamping moves only in Y.
	pts := []grid.Vec{
		grid.V(0, 0), grid.V(1, 0), grid.V(1, 1), grid.V(1, 2), grid.V(0, 2), grid.V(0, 1),
	}
	ch, err := chain.New(pts)
	if err != nil {
		t.Fatal(err)
	}
	lt, err := NewLinTime(ch, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Activate only robot 0 at (0,0): its clamp target is (0,1), but its
	// ring neighbour 1 at (1,0) sleeps, so the edge would become (1,-1).
	active := []bool{true, false, false, false, false, false}
	rep, err := lt.StepActivated(active)
	if err != nil {
		t.Fatal(err)
	}
	if rep.RunnerHops != 0 {
		t.Fatalf("suppression failed: %d robots moved, want 0", rep.RunnerHops)
	}
	if got := lt.Chain().PosOf(lt.Chain().At(0)); got != grid.V(0, 0) {
		t.Fatalf("robot 0 moved to %v despite the edge guard", got)
	}
	if err := lt.Chain().CheckEdges(); err != nil {
		t.Fatal(err)
	}
}

// TestStrategyRegistry covers the name registry: parsing, validation, the
// text codec (including the zero value's "paper" rendering) and the
// constructor switch.
func TestStrategyRegistry(t *testing.T) {
	if got := StrategyPaper.String(); got != "paper" {
		t.Fatalf("StrategyPaper.String() = %q, want \"paper\"", got)
	}
	if got := StrategyLinTime.String(); got != "lintime" {
		t.Fatalf("StrategyLinTime.String() = %q, want \"lintime\"", got)
	}
	for _, in := range []string{"", "paper"} {
		got, err := ParseStrategy(in)
		if err != nil || got != StrategyPaper {
			t.Fatalf("ParseStrategy(%q) = %q, %v; want paper, nil", in, got, err)
		}
	}
	if got, err := ParseStrategy("lintime"); err != nil || got != StrategyLinTime {
		t.Fatalf("ParseStrategy(lintime) = %q, %v", got, err)
	}
	if _, err := ParseStrategy("bogus"); err == nil || !strings.Contains(err.Error(), "paper, lintime") {
		t.Fatalf("ParseStrategy(bogus) = %v, want registry-listing error", err)
	}
	if err := StrategyName("bogus").Valid(); err == nil {
		t.Fatal("Valid() accepted an unregistered name")
	}
	if _, err := StrategyName("bogus").MarshalText(); err == nil {
		t.Fatal("MarshalText() accepted an unregistered name")
	}
	if b, err := StrategyPaper.MarshalText(); err != nil || string(b) != "paper" {
		t.Fatalf("StrategyPaper.MarshalText() = %q, %v", b, err)
	}
	var s StrategyName
	if err := s.UnmarshalText([]byte("lintime")); err != nil || s != StrategyLinTime {
		t.Fatalf("UnmarshalText(lintime) = %v, s=%q", err, s)
	}
	if err := s.UnmarshalText([]byte("bogus")); err == nil {
		t.Fatal("UnmarshalText accepted an unregistered name")
	}
	if names := StrategyNames(); len(names) != 2 || names[0] != "paper" || names[1] != "lintime" {
		t.Fatalf("StrategyNames() = %v", names)
	}

	ch := ringChain(t, 5, 5)
	if st, err := NewStrategy(StrategyPaper, ch.Clone(), DefaultConfig()); err != nil {
		t.Fatal(err)
	} else if _, ok := st.(*Algorithm); !ok {
		t.Fatalf("NewStrategy(paper) built %T", st)
	}
	if st, err := NewStrategy(StrategyLinTime, ch.Clone(), DefaultConfig()); err != nil {
		t.Fatal(err)
	} else if _, ok := st.(*LinTime); !ok {
		t.Fatalf("NewStrategy(lintime) built %T", st)
	}
	if _, err := NewStrategy(StrategyName("bogus"), ch.Clone(), DefaultConfig()); err == nil {
		t.Fatal("NewStrategy accepted an unregistered name")
	}
}

// TestLinTimeReportShape pins the report contract consumers rely on:
// contraction hops are RunnerHops, rounds number from zero, merge events
// carry the resolved count, and the strategy exposes no runs.
func TestLinTimeReportShape(t *testing.T) {
	lt, err := NewLinTime(ringChain(t, 7, 7), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if lt.Runs() != nil {
		t.Fatal("LinTime.Runs() must be nil")
	}
	rep, err := lt.Step()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Round != 0 || lt.Round() != 1 {
		t.Fatalf("round numbering off: rep.Round=%d Round()=%d", rep.Round, lt.Round())
	}
	if rep.RunnerHops == 0 {
		t.Fatal("first contraction round on a boundary ring moved nobody")
	}
	if rep.MergeHops != 0 || len(rep.Starts) != 0 {
		t.Fatalf("lintime reported paper-machinery columns: %+v", rep)
	}
	if rep.ChainLen != lt.Chain().Len() {
		t.Fatalf("ChainLen %d != chain %d", rep.ChainLen, lt.Chain().Len())
	}
}

// TestGatheredStepIsNoOp pins the Strategy rule for a gathered chain: for
// both strategies, stepping it under any activation set (nil, all-true,
// all-false, or one of the wrong length) reports Gathered with the
// chain's length, returns no error and consumes no round.
func TestGatheredStepIsNoOp(t *testing.T) {
	sets := []struct {
		name   string
		active []bool
	}{
		{"nil", nil},
		{"all", []bool{true, true, true, true}},
		{"none", []bool{false, false, false, false}},
		{"short", []bool{true}},
		{"long", make([]bool, 9)},
	}
	for _, name := range []StrategyName{StrategyPaper, StrategyLinTime} {
		for _, set := range sets {
			t.Run(name.String()+"/"+set.name, func(t *testing.T) {
				// The 2x2 ring: four robots, already gathered.
				ch := mustChain(t, grid.V(0, 0), grid.V(1, 0), grid.V(1, 1), grid.V(0, 1))
				st, err := NewStrategy(name, ch, DefaultConfig())
				if err != nil {
					t.Fatal(err)
				}
				if !st.Gathered() {
					t.Fatal("the 2x2 ring is not gathered")
				}
				for step := 0; step < 2; step++ {
					rep, err := st.StepActivated(set.active)
					if err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
					want := RoundReport{ChainLen: 4, Gathered: true}
					if !reflect.DeepEqual(rep, want) {
						t.Fatalf("step %d reported %+v, want %+v", step, rep, want)
					}
					if st.Round() != 0 {
						t.Fatalf("step %d: Round() = %d, want 0", step, st.Round())
					}
				}
			})
		}
	}
}
