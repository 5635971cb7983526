package chain

import (
	"encoding/json"
	"errors"
	"testing"

	"gridgather/internal/grid"
)

// square8 is an 8-robot unit square boundary.
func square8(t *testing.T) *Chain {
	t.Helper()
	return MustNew([]grid.Vec{
		grid.V(0, 0), grid.V(1, 0), grid.V(2, 0), grid.V(2, 1),
		grid.V(2, 2), grid.V(1, 2), grid.V(0, 2), grid.V(0, 1),
	})
}

// sameChain asserts the two chains agree in every observable: length,
// handle space, per-handle positions (dead handles included), ring links,
// order and bounds.
func sameChain(t *testing.T, want, got *Chain) {
	t.Helper()
	if want.Len() != got.Len() {
		t.Fatalf("Len: want %d, got %d", want.Len(), got.Len())
	}
	if want.NumHandles() != got.NumHandles() {
		t.Fatalf("NumHandles: want %d, got %d", want.NumHandles(), got.NumHandles())
	}
	for h := Handle(0); int(h) < want.NumHandles(); h++ {
		if want.PosOf(h) != got.PosOf(h) {
			t.Fatalf("PosOf(%d): want %v, got %v", h, want.PosOf(h), got.PosOf(h))
		}
		if want.Contains(h) != got.Contains(h) {
			t.Fatalf("Contains(%d): want %v, got %v", h, want.Contains(h), got.Contains(h))
		}
		if !want.Contains(h) {
			continue
		}
		if want.Next(h) != got.Next(h) || want.Prev(h) != got.Prev(h) {
			t.Fatalf("links of %d: want (%d,%d), got (%d,%d)",
				h, want.Next(h), want.Prev(h), got.Next(h), got.Prev(h))
		}
		if want.IndexOf(h) != got.IndexOf(h) {
			t.Fatalf("IndexOf(%d): want %d, got %d", h, want.IndexOf(h), got.IndexOf(h))
		}
	}
	if want.Bounds() != got.Bounds() {
		t.Fatalf("Bounds: want %v, got %v", want.Bounds(), got.Bounds())
	}
}

func TestSnapshotRoundTripFresh(t *testing.T) {
	c := square8(t)
	rt, err := FromSnapshot(c.Snapshot())
	if err != nil {
		t.Fatalf("FromSnapshot: %v", err)
	}
	sameChain(t, c, rt)
}

// TestSnapshotRoundTripAfterMerges exercises the states MarshalJSON cannot
// express: dead handles and a spliced ring.
func TestSnapshotRoundTripAfterMerges(t *testing.T) {
	// A rectangle boundary with a one-cell tooth at (2,1)-(2,2)-(2,1):
	// collapsing the tooth tip onto its base is a legal merge that leaves a
	// clean 8-ring plus two dead handles.
	c := MustNew([]grid.Vec{
		grid.V(0, 0), grid.V(1, 0), grid.V(2, 0), grid.V(3, 0),
		grid.V(3, 1), grid.V(2, 1), grid.V(2, 2), grid.V(2, 1),
		grid.V(1, 1), grid.V(0, 1),
	})
	c.SetPos(6, grid.V(2, 1)) // tooth tip joins its co-located neighbours
	events := resolveAll(c)
	if len(events) != 2 {
		t.Fatalf("expected 2 merges, got %d", len(events))
	}
	if c.Len() != 8 {
		t.Fatalf("Len after merges: got %d, want 8", c.Len())
	}
	if err := c.CheckEdges(); err != nil {
		t.Fatalf("post-merge chain invalid: %v", err)
	}

	snap := c.Snapshot()
	// The codec must survive JSON, the form checkpoints store.
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	rt, err := FromSnapshot(back)
	if err != nil {
		t.Fatalf("FromSnapshot: %v", err)
	}
	sameChain(t, c, rt)

	// The restored chain must keep operating in lockstep with the original.
	rt2, err := FromSnapshot(c.Snapshot())
	if err != nil {
		t.Fatalf("FromSnapshot: %v", err)
	}
	c.SetPos(3, grid.V(2, 1))
	rt2.SetPos(3, grid.V(2, 1))
	resolveAll(c)
	resolveAll(rt2)
	sameChain(t, c, rt2)
}

func TestSnapshotIndependence(t *testing.T) {
	c := square8(t)
	snap := c.Snapshot()
	c.SetPos(0, grid.V(50, 50))
	if snap.Pos[0] == grid.V(50, 50) {
		t.Fatal("snapshot aliases the live chain")
	}
	rt, err := FromSnapshot(snap)
	if err != nil {
		t.Fatalf("FromSnapshot: %v", err)
	}
	if rt.PosOf(0) != grid.V(0, 0) {
		t.Fatalf("restored position: got %v, want (0,0)", rt.PosOf(0))
	}
}

func TestFromSnapshotRejectsCorruption(t *testing.T) {
	base := func() Snapshot { return square8(t).Snapshot() }
	cases := []struct {
		name   string
		mutate func(*Snapshot)
	}{
		{"empty", func(s *Snapshot) { *s = Snapshot{} }},
		{"truncated next", func(s *Snapshot) { s.Next = s.Next[:3] }},
		{"truncated live", func(s *Snapshot) { s.Live = s.Live[:7] }},
		{"dead head", func(s *Snapshot) { s.Live[s.Head] = false; s.Live[3] = false }},
		{"head out of range", func(s *Snapshot) { s.Head = 99 }},
		{"negative head", func(s *Snapshot) { s.Head = -2 }},
		{"next to dead handle", func(s *Snapshot) { s.Live[3] = false }},
		{"next out of range", func(s *Snapshot) { s.Next[2] = 42 }},
		{"inconsistent prev", func(s *Snapshot) { s.Prev[1] = 5 }},
		{"short cycle", func(s *Snapshot) { s.Next[3] = 0 }},
		{"illegal edge", func(s *Snapshot) { s.Pos[2] = grid.V(9, 9) }},
		{"zero edge", func(s *Snapshot) { s.Pos[1] = s.Pos[0] }},
		{"single live robot", func(s *Snapshot) {
			for i := range s.Live {
				s.Live[i] = i == 0
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := base()
			tc.mutate(&s)
			if _, err := FromSnapshot(s); !errors.Is(err, ErrBadSnapshot) {
				t.Fatalf("got %v, want ErrBadSnapshot", err)
			}
		})
	}
}
