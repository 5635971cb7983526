package grid

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestVecArithmetic(t *testing.T) {
	a, b := V(3, -2), V(-1, 5)
	if got := a.Add(b); got != V(2, 3) {
		t.Errorf("Add: got %v", got)
	}
	if got := a.Sub(b); got != V(4, -7) {
		t.Errorf("Sub: got %v", got)
	}
	if got := a.Neg(); got != V(-3, 2) {
		t.Errorf("Neg: got %v", got)
	}
	if got := a.Scale(-2); got != V(-6, 4) {
		t.Errorf("Scale: got %v", got)
	}
	if got := a.Dot(b); got != -13 {
		t.Errorf("Dot: got %d", got)
	}
	if got := a.Cross(b); got != 13 {
		t.Errorf("Cross: got %d", got)
	}
}

func TestNorms(t *testing.T) {
	cases := []struct {
		v        Vec
		l1, linf int
	}{
		{V(0, 0), 0, 0},
		{V(3, -4), 7, 4},
		{V(-2, -2), 4, 2},
		{V(1, 0), 1, 1},
	}
	for _, c := range cases {
		if got := c.v.L1(); got != c.l1 {
			t.Errorf("L1(%v) = %d, want %d", c.v, got, c.l1)
		}
		if got := c.v.LInf(); got != c.linf {
			t.Errorf("LInf(%v) = %d, want %d", c.v, got, c.linf)
		}
	}
}

func TestPredicates(t *testing.T) {
	if !V(0, 0).IsZero() || V(1, 0).IsZero() {
		t.Error("IsZero wrong")
	}
	for _, d := range AxisDirs {
		if !d.IsAxisUnit() {
			t.Errorf("%v should be axis unit", d)
		}
		if !d.IsChainEdge() || !d.IsKingStep() {
			t.Errorf("%v should be chain edge and king step", d)
		}
	}
	if V(1, 1).IsAxisUnit() {
		t.Error("(1,1) is not an axis unit")
	}
	if !V(1, 1).IsKingStep() || V(2, 0).IsKingStep() {
		t.Error("king step classification wrong")
	}
	if !V(0, 0).IsChainEdge() || V(1, 1).IsChainEdge() {
		t.Error("chain edge classification wrong")
	}
	if !East.Perp(North) || East.Perp(West) || East.Perp(East) {
		t.Error("Perp wrong")
	}
	if !East.Parallel(West) || !East.Parallel(East) || East.Parallel(North) {
		t.Error("Parallel wrong")
	}
	if V(0, 0).Perp(North) || V(2, 0).Parallel(East) {
		t.Error("Perp/Parallel must require axis units")
	}
}

func TestRotations(t *testing.T) {
	if East.RotCCW() != North || North.RotCCW() != West || West.RotCCW() != South || South.RotCCW() != East {
		t.Error("RotCCW cycle wrong")
	}
	if East.RotCW() != South || South.RotCW() != West {
		t.Error("RotCW wrong")
	}
	v := V(3, 7)
	if got := v.RotCCW().RotCW(); got != v {
		t.Errorf("RotCCW then RotCW: got %v", got)
	}
	if got := v.RotCCW().RotCCW().RotCCW().RotCCW(); got != v {
		t.Errorf("four CCW rotations: got %v", got)
	}
}

func TestD4GroupProperties(t *testing.T) {
	if len(D4) != 8 {
		t.Fatalf("D4 has %d elements", len(D4))
	}
	// All elements distinct as functions.
	seen := map[[2]Vec]bool{}
	for _, tr := range D4 {
		key := [2]Vec{tr.Apply(East), tr.Apply(North)}
		if seen[key] {
			t.Errorf("duplicate D4 element %+v", tr)
		}
		seen[key] = true
	}
	// Each transform preserves norms and has a working inverse.
	rng := rand.New(rand.NewSource(7))
	for _, tr := range D4 {
		inv := tr.Inverse()
		for i := 0; i < 50; i++ {
			v := V(rng.Intn(21)-10, rng.Intn(21)-10)
			w := tr.Apply(v)
			if w.L1() != v.L1() || w.LInf() != v.LInf() {
				t.Fatalf("transform %+v does not preserve norms: %v -> %v", tr, v, w)
			}
			if got := inv.Apply(w); got != v {
				t.Fatalf("inverse of %+v failed: %v -> %v -> %v", tr, v, w, got)
			}
		}
	}
}

func TestD4Compose(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, a := range D4 {
		for _, b := range D4 {
			c := a.Compose(b)
			for i := 0; i < 10; i++ {
				v := V(rng.Intn(9)-4, rng.Intn(9)-4)
				if c.Apply(v) != a.Apply(b.Apply(v)) {
					t.Fatalf("compose(%+v,%+v) wrong at %v", a, b, v)
				}
			}
		}
	}
}

func TestD4IdentityAndClosure(t *testing.T) {
	for _, a := range D4 {
		if Identity.Compose(a) != a.Compose(Identity) {
			// Composition with identity must agree from both sides as a
			// function; compare on basis images.
			t.Fatalf("identity composition mismatch for %+v", a)
		}
	}
	// Closure: composing any two elements yields an element of D4
	// (transformFromBasis panics otherwise, so reaching here is the test).
	for _, a := range D4 {
		for _, b := range D4 {
			_ = a.Compose(b)
		}
	}
}

func TestBoxBasics(t *testing.T) {
	var b Box
	if !b.Empty() || b.Width() != 0 || b.Height() != 0 {
		t.Error("zero box should be empty")
	}
	if b.Contains(Zero) {
		t.Error("empty box contains nothing")
	}
	b = BoxOf(V(1, 2), V(-3, 5), V(0, 0))
	if b.Min != V(-3, 0) || b.Max != V(1, 5) {
		t.Errorf("BoxOf bounds wrong: %v", b)
	}
	if b.Width() != 5 || b.Height() != 6 {
		t.Errorf("Width/Height wrong: %d x %d", b.Width(), b.Height())
	}
	if !b.Contains(V(0, 3)) || b.Contains(V(2, 3)) {
		t.Error("Contains wrong")
	}
}

func TestBoxFitsSquare(t *testing.T) {
	single := BoxOf(V(4, 4))
	if !single.FitsSquare(1) || !single.FitsSquare(2) {
		t.Error("single point fits any square")
	}
	two := BoxOf(V(0, 0), V(1, 1))
	if two.FitsSquare(1) || !two.FitsSquare(2) {
		t.Error("2x2 box fits exactly a 2-square")
	}
	wide := BoxOf(V(0, 0), V(2, 0))
	if wide.FitsSquare(2) {
		t.Error("3-wide box must not fit a 2-square")
	}
}

func TestBoxIncludeQuick(t *testing.T) {
	f := func(xs []int16, ys []int16) bool {
		n := min(len(xs), len(ys))
		if n == 0 {
			return true
		}
		var b Box
		for i := 0; i < n; i++ {
			b.Include(V(int(xs[i]), int(ys[i])))
		}
		for i := 0; i < n; i++ {
			if !b.Contains(V(int(xs[i]), int(ys[i]))) {
				return false
			}
		}
		return b.Width() >= 1 && b.Height() >= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestTransformApplyQuick(t *testing.T) {
	// Linearity: T(a+b) = T(a)+T(b) for every grid symmetry.
	f := func(ax, ay, bx, by int16) bool {
		a, b := V(int(ax), int(ay)), V(int(bx), int(by))
		for _, tr := range D4 {
			if tr.Apply(a.Add(b)) != tr.Apply(a).Add(tr.Apply(b)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestEdgeCodeExhaustive checks the one-byte edge code against Vec's own
// predicates over every displacement with |x|, |y| <= 2: the chain edges
// round-trip, every other displacement codes to EdgeOther, and the unit,
// parallel, perpendicular, negation and equality tests agree with Vec for
// every pair.
func TestEdgeCodeExhaustive(t *testing.T) {
	var vs []Vec
	for x := -2; x <= 2; x++ {
		for y := -2; y <= 2; y++ {
			vs = append(vs, V(x, y))
		}
	}
	chainCodes := map[EdgeCode]Vec{}
	for _, v := range vs {
		c := EdgeOf(v)
		if v.IsChainEdge() {
			if c == EdgeOther {
				t.Fatalf("chain edge %v coded as EdgeOther", v)
			}
			if got := c.Vec(); got != v {
				t.Fatalf("EdgeOf(%v).Vec() = %v", v, got)
			}
			if prev, dup := chainCodes[c]; dup {
				t.Fatalf("chain edges %v and %v share code %d", prev, v, c)
			}
			chainCodes[c] = v
		} else if c != EdgeOther {
			t.Fatalf("non-chain displacement %v coded as %d, not EdgeOther", v, c)
		}
		if c.IsUnit() != v.IsAxisUnit() {
			t.Fatalf("IsUnit(%v) = %v, Vec says %v", v, c.IsUnit(), v.IsAxisUnit())
		}
		if got, want := c.Neg(), EdgeOf(v.Neg()); got != want {
			t.Fatalf("Neg(%v) = %v, want %v", v, got, want)
		}
		for _, w := range vs {
			e := EdgeOf(w)
			if c.Parallel(e) != v.Parallel(w) {
				t.Fatalf("Parallel(%v, %v) = %v, Vec says %v", v, w, c.Parallel(e), v.Parallel(w))
			}
			if c.Perp(e) != v.Perp(w) {
				t.Fatalf("Perp(%v, %v) = %v, Vec says %v", v, w, c.Perp(e), v.Perp(w))
			}
			if (v.IsChainEdge() || w.IsChainEdge()) && (c == e) != (v == w) {
				t.Fatalf("codes of %v and %v compare %v, vectors %v", v, w, c == e, v == w)
			}
		}
	}
	if len(chainCodes) != 5 {
		t.Fatalf("%d distinct chain-edge codes, want 5", len(chainCodes))
	}
	for _, v := range []Vec{V(3, 0), V(0, -7), V(100, 100), V(-1<<40, 1)} {
		if EdgeOf(v) != EdgeOther {
			t.Fatalf("far displacement %v not coded as EdgeOther", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("decoding EdgeOther must panic: it has no single displacement")
		}
	}()
	_ = EdgeOther.Vec()
}
