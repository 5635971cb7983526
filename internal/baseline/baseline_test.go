package baseline

import (
	"errors"
	"math/rand"
	"testing"

	"gridgather/internal/generate"
	"gridgather/internal/grid"
	"gridgather/internal/sim"
)

// randomOpenWalk produces a valid open chain of m stations with fixed,
// distinct endpoints.
func randomOpenWalk(m int, rng *rand.Rand) []grid.Vec {
	pts := []grid.Vec{grid.Zero}
	p := grid.Zero
	for len(pts) < m {
		d := grid.AxisDirs[rng.Intn(4)]
		p = p.Add(d)
		pts = append(pts, p)
	}
	return pts
}

func TestHopperValidation(t *testing.T) {
	if _, err := NewManhattanHopper([]grid.Vec{grid.Zero}); !errors.Is(err, ErrOpenTooShort) {
		t.Errorf("short chain: %v", err)
	}
	if _, err := NewManhattanHopper([]grid.Vec{grid.Zero, grid.V(2, 0)}); !errors.Is(err, ErrOpenBadEdge) {
		t.Errorf("bad edge: %v", err)
	}
}

func TestHopperAlreadyOptimal(t *testing.T) {
	h, err := NewManhattanHopper([]grid.Vec{grid.V(0, 0), grid.V(1, 0), grid.V(2, 0)})
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Optimal || res.Rounds != 0 {
		t.Errorf("straight chain must be optimal immediately: %+v", res)
	}
}

func TestHopperDetour(t *testing.T) {
	// A chain with a big detour: base (0,0), explorer (4,0), path over a
	// hill of height 3.
	pts := []grid.Vec{grid.V(0, 0)}
	for y := 1; y <= 3; y++ {
		pts = append(pts, grid.V(0, y))
	}
	for x := 1; x <= 4; x++ {
		pts = append(pts, grid.V(x, 3))
	}
	for y := 2; y >= 0; y-- {
		pts = append(pts, grid.V(4, y))
	}
	h, err := NewManhattanHopper(pts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Optimal {
		t.Fatalf("hopper did not reach the optimum: %+v", res)
	}
	if res.FinalLen != res.OptimalLen {
		t.Errorf("final length %d, want %d", res.FinalLen, res.OptimalLen)
	}
	if res.Rounds > 8*res.InitialLen {
		t.Errorf("rounds %d not linear-ish in %d", res.Rounds, res.InitialLen)
	}
}

func TestHopperRandomWalks(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 30; trial++ {
		m := 4 + rng.Intn(120)
		pts := randomOpenWalk(m, rng)
		h, err := NewManhattanHopper(pts)
		if err != nil {
			t.Fatal(err)
		}
		res, err := h.Run()
		if err != nil {
			t.Fatalf("trial %d (m=%d): %v", trial, m, err)
		}
		if !res.Optimal {
			t.Fatalf("trial %d: not optimal: %+v", trial, res)
		}
		// Edges must be valid throughout; check the final chain.
		fin := h.Positions()
		for i := 0; i+1 < len(fin); i++ {
			if !fin[i+1].Sub(fin[i]).IsChainEdge() {
				t.Fatalf("trial %d: invalid final edge %v -> %v", trial, fin[i], fin[i+1])
			}
		}
		if fin[0] != pts[0] || fin[len(fin)-1] != pts[len(pts)-1] {
			t.Fatalf("trial %d: endpoints moved", trial)
		}
	}
}

func TestHopperLinearScaling(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	prevRatio := 0.0
	for _, m := range []int{100, 200, 400} {
		pts := randomOpenWalk(m, rng)
		h, err := NewManhattanHopper(pts)
		if err != nil {
			t.Fatal(err)
		}
		res, err := h.Run()
		if err != nil {
			t.Fatal(err)
		}
		ratio := float64(res.Rounds) / float64(m)
		if prevRatio > 0 && ratio > 3*prevRatio+1 {
			t.Errorf("rounds/station grew from %.2f to %.2f: not linear", prevRatio, ratio)
		}
		prevRatio = ratio
	}
}

func TestHopperEndsMonotone(t *testing.T) {
	// After the hopper finishes, the chain must be coordinate-monotone
	// (no U-turns left implies optimal — the termination argument).
	rng := rand.New(rand.NewSource(34))
	for trial := 0; trial < 10; trial++ {
		pts := randomOpenWalk(10+rng.Intn(60), rng)
		h, err := NewManhattanHopper(pts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.Run(); err != nil {
			t.Fatal(err)
		}
		fin := h.Positions()
		sgn := func(v int) int {
			if v > 0 {
				return 1
			}
			if v < 0 {
				return -1
			}
			return 0
		}
		var sx, sy int
		for i := 0; i+1 < len(fin); i++ {
			d := fin[i+1].Sub(fin[i])
			if d.X != 0 {
				if sx != 0 && sgn(d.X) != sx {
					t.Fatalf("trial %d: x not monotone", trial)
				}
				sx = sgn(d.X)
			}
			if d.Y != 0 {
				if sy != 0 && sgn(d.Y) != sy {
					t.Fatalf("trial %d: y not monotone", trial)
				}
				sy = sgn(d.Y)
			}
		}
	}
}

func TestOpenEndpointGather(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	for trial := 0; trial < 10; trial++ {
		m := 2 + rng.Intn(100)
		pts := randomOpenWalk(m, rng)
		rounds, err := OpenEndpointGather(pts)
		if err != nil {
			t.Fatal(err)
		}
		want := (m - 2 + 1) / 2
		if m <= 2 {
			want = 0
		}
		if rounds != want {
			t.Errorf("m=%d: rounds=%d, want %d", m, rounds, want)
		}
	}
	if _, err := OpenEndpointGather([]grid.Vec{grid.Zero}); !errors.Is(err, ErrOpenTooShort) {
		t.Error("short chain accepted")
	}
}

func TestMergeOnlyLivelocksOnSquare(t *testing.T) {
	// Without runs, a big square ring cannot shorten: the watchdog fires.
	// This is the experiment showing the runner machinery is load-bearing.
	ch, err := generate.Rectangle(16, 16)
	if err != nil {
		t.Fatal(err)
	}
	opts := MergeOnlyOptions()
	opts.MaxRounds = 500
	_, err = sim.Gather(ch, opts)
	if !errors.Is(err, sim.ErrWatchdog) {
		t.Fatalf("merge-only on a square must hit the watchdog, got %v", err)
	}
}

func TestMergeOnlyStillGathersMergeRichShapes(t *testing.T) {
	// Shapes full of detectable merge patterns gather without runs.
	ch, err := generate.Rectangle(20, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Gather(ch, MergeOnlyOptions())
	if err != nil || !res.Gathered {
		t.Fatalf("flat ring must gather merge-only: %v %+v", err, res)
	}
}

func TestSequentialRunsGatherSlower(t *testing.T) {
	// Removing pipelining must still gather (one pair generation at a
	// time) but cost strictly more rounds on a run-driven shape.
	gather := func(opts sim.Options) sim.Result {
		t.Helper()
		ch, err := generate.Rectangle(40, 40)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Gather(ch, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	pipelined := gather(PaperOptions())
	sequential := gather(SequentialRunsOptions())
	if !pipelined.Gathered || !sequential.Gathered {
		t.Fatal("both variants must gather")
	}
	if sequential.Rounds <= pipelined.Rounds {
		t.Errorf("sequential runs (%d rounds) must be slower than pipelined (%d rounds)",
			sequential.Rounds, pipelined.Rounds)
	}
}
