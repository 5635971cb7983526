package chain

import (
	"encoding/json"
	"errors"
	"fmt"

	"gridgather/internal/grid"
)

// Handle identifies one robot of a chain for the robot's whole lifetime.
// Handles are dense — a chain constructed from n positions uses handles
// 0..n-1 — and are never reused: a robot removed by a merge leaves its
// handle permanently dead. Per-robot lookaside state (run registries, hop
// plans, invariant scratch) is therefore a flat slice indexed by Handle;
// see Scratch.
//
// The robot's simulator-internal ID (stable bookkeeping for run ownership
// and instrumentation, invisible to the algorithm) equals the handle value;
// ID returns it as an int.
type Handle int32

// None is the null handle ("no robot"). The zero value of Handle is a valid
// robot, so fields holding an optional robot must be initialised to None.
const None Handle = -1

// Chain is a closed chain of robots. Index arithmetic is cyclic: index i and
// i+Len() refer to the same robot.
type Chain struct {
	// Struct-of-arrays robot storage, indexed by Handle. Arrays never
	// shrink; dead handles keep their last position (handy for merge
	// forensics) but are unlinked from the ring.
	pos  []grid.Vec
	next []Handle
	prev []Handle
	live []bool

	n    int    // live robot count
	head Handle // the live robot at cyclic index 0

	// Ring-order cache: order[i] is the handle at cyclic index i and
	// idx[h] the index of live handle h. Splices mark it dirty; any
	// index-based accessor rebuilds it in one O(n) ring walk.
	order      []Handle
	idx        []int32
	orderDirty bool

	// Incremental bounding box: counts of live robots on each face of the
	// box. A move or removal that empties a face marks the box dirty; the
	// next Bounds() call recomputes it in O(n). Everything else is O(1).
	bounds      grid.Box
	onMinX      int
	onMaxX      int
	onMinY      int
	onMaxY      int
	boundsDirty bool
}

// Common construction and validation errors.
var (
	ErrTooShort    = errors.New("chain: a closed chain needs at least 2 robots")
	ErrOddLength   = errors.New("chain: a closed grid chain must have even length")
	ErrBadEdge     = errors.New("chain: consecutive robots must be axis-adjacent or co-located")
	ErrZeroEdge    = errors.New("chain: initial configurations may not co-locate chain neighbours")
	ErrNotClosed   = errors.New("chain: the walk does not return to its start")
	ErrEmptyDecode = errors.New("chain: cannot decode empty robot list")
)

// New builds a closed chain from the given positions, in chain order.
// It enforces the paper's initial-configuration requirements: every
// consecutive pair (including last-to-first) must be axis-adjacent, no two
// chain neighbours may coincide, and the length must be even (any closed
// walk on Z^2 has even length, so an odd input is always a typo).
func New(positions []grid.Vec) (*Chain, error) {
	if err := ValidateInitial(positions); err != nil {
		return nil, err
	}
	return fromPositions(positions), nil
}

// MustNew is New but panics on invalid input; intended for tests and
// hand-written example configurations.
func MustNew(positions []grid.Vec) *Chain {
	c, err := New(positions)
	if err != nil {
		panic(err)
	}
	return c
}

// ValidateInitial checks the paper's conditions on a starting configuration
// without building a chain.
func ValidateInitial(positions []grid.Vec) error {
	n := len(positions)
	if n < 2 {
		return ErrTooShort
	}
	if n%2 != 0 {
		return ErrOddLength
	}
	for i := 0; i < n; i++ {
		d := positions[(i+1)%n].Sub(positions[i])
		if d.IsZero() {
			return fmt.Errorf("%w (indices %d,%d at %v)", ErrZeroEdge, i, (i+1)%n, positions[i])
		}
		if !d.IsAxisUnit() {
			return fmt.Errorf("%w (indices %d,%d: %v -> %v)", ErrBadEdge, i, (i+1)%n, positions[i], positions[(i+1)%n])
		}
	}
	return nil
}

func fromPositions(positions []grid.Vec) *Chain {
	n := len(positions)
	c := &Chain{
		pos:   make([]grid.Vec, n),
		next:  make([]Handle, n),
		prev:  make([]Handle, n),
		live:  make([]bool, n),
		order: make([]Handle, n),
		idx:   make([]int32, n),
		n:     n,
		head:  0,
	}
	copy(c.pos, positions)
	for i := 0; i < n; i++ {
		c.next[i] = Handle((i + 1) % n)
		c.prev[i] = Handle((i - 1 + n) % n)
		c.live[i] = true
		c.order[i] = Handle(i)
		c.idx[i] = int32(i)
	}
	c.recomputeBounds()
	return c
}

// Len returns the current number of robots.
func (c *Chain) Len() int { return c.n }

// NumHandles returns the handle-space size: all handles ever issued lie in
// [0, NumHandles). Per-handle lookaside tables (Scratch) size themselves
// with it; the value is fixed for the chain's lifetime.
func (c *Chain) NumHandles() int { return len(c.pos) }

// WrapIndex maps any integer index into [0, n): the cyclic-index
// arithmetic shared by the chain's accessors and the view's window
// offsets. The fast paths cover every offset within one wrap; multi-wrap
// offsets (e.g. a viewing range beyond a tiny chain's length) fall back
// to the modulo.
func WrapIndex(i, n int) int {
	if i >= 0 {
		if i < n {
			return i
		}
		if i < 2*n {
			return i - n // the common wrap of cyclic window arithmetic
		}
	} else if i >= -n {
		return i + n
	}
	i %= n
	if i < 0 {
		i += n
	}
	return i
}

// norm maps any integer index into [0, Len).
func (c *Chain) norm(i int) int { return WrapIndex(i, c.n) }

// reindex rebuilds the ring-order cache by walking the linked ring once.
func (c *Chain) reindex() {
	h := c.head
	for i := 0; i < c.n; i++ {
		c.order[i] = h
		c.idx[h] = int32(i)
		h = c.next[h]
	}
	c.order = c.order[:c.n]
	c.orderDirty = false
}

// At returns the handle of the robot at cyclic index i.
func (c *Chain) At(i int) Handle {
	if c.orderDirty {
		c.reindex()
	}
	return c.order[c.norm(i)]
}

// Pos returns the position of the robot at cyclic index i.
func (c *Chain) Pos(i int) grid.Vec { return c.pos[c.At(i)] }

// PosOf returns the position of the robot with handle h. For a dead handle
// it returns the robot's final (merge) position.
func (c *Chain) PosOf(h Handle) grid.Vec { return c.pos[h] }

// ID returns the robot's simulator-internal ID: stable across rounds and
// merges, used for run ownership and instrumentation only. It equals the
// handle value (robots are only created at construction, in chain order).
func (c *Chain) ID(h Handle) int { return int(h) }

// Next returns the ring successor of live handle h.
func (c *Chain) Next(h Handle) Handle { return c.next[h] }

// Prev returns the ring predecessor of live handle h.
func (c *Chain) Prev(h Handle) Handle { return c.prev[h] }

// IndexOf returns the current cyclic index of h, or -1 if h is no longer
// part of the chain (it was removed by a merge).
func (c *Chain) IndexOf(h Handle) int {
	if !c.Contains(h) {
		return -1
	}
	if c.orderDirty {
		c.reindex()
	}
	return int(c.idx[h])
}

// Contains reports whether h is still part of the chain.
func (c *Chain) Contains(h Handle) bool {
	return h >= 0 && int(h) < len(c.live) && c.live[h]
}

// Edge returns the displacement from robot i to robot i+1.
func (c *Chain) Edge(i int) grid.Vec {
	return c.Pos(i + 1).Sub(c.Pos(i))
}

// Positions returns a copy of all robot positions in chain order.
func (c *Chain) Positions() []grid.Vec {
	if c.orderDirty {
		c.reindex()
	}
	ps := make([]grid.Vec, c.n)
	for i, h := range c.order {
		ps[i] = c.pos[h]
	}
	return ps
}

// Handles returns the live handles in chain order. The slice is shared and
// valid until the next splice; callers must not mutate it.
func (c *Chain) Handles() []Handle {
	if c.orderDirty {
		c.reindex()
	}
	return c.order
}

// PosStore exposes the flat per-handle position array (indexed by Handle,
// dead handles included) for read-only hot paths — the view package reads
// it directly so window accesses compile to plain array arithmetic. Callers
// must not mutate it; use SetPos/MoveBy, which keep the bounding box
// bookkeeping consistent.
func (c *Chain) PosStore() []grid.Vec { return c.pos }

// SetPos teleports the robot with handle h to p, updating the bounding box.
// It is the substrate-level mutator used by movement rules and tests; it
// performs no model checks (edge validity is the caller's responsibility,
// see CheckEdges / CheckEdgesAround).
func (c *Chain) SetPos(h Handle, p grid.Vec) {
	old := c.pos[h]
	if old == p {
		return
	}
	c.pos[h] = p
	c.boundsRemove(old)
	c.boundsAdd(p)
}

// MoveBy displaces the robot with handle h by d.
func (c *Chain) MoveBy(h Handle, d grid.Vec) { c.SetPos(h, c.pos[h].Add(d)) }

// boundsRemove retires one robot's contribution to the bounding box. If a
// box face loses its last robot the box must shrink; the exact extent is
// unknown without a scan, so the box is marked dirty and recomputed lazily.
func (c *Chain) boundsRemove(p grid.Vec) {
	if c.boundsDirty {
		return
	}
	if p.X == c.bounds.Min.X {
		if c.onMinX--; c.onMinX == 0 {
			c.boundsDirty = true
		}
	}
	if p.X == c.bounds.Max.X {
		if c.onMaxX--; c.onMaxX == 0 {
			c.boundsDirty = true
		}
	}
	if p.Y == c.bounds.Min.Y {
		if c.onMinY--; c.onMinY == 0 {
			c.boundsDirty = true
		}
	}
	if p.Y == c.bounds.Max.Y {
		if c.onMaxY--; c.onMaxY == 0 {
			c.boundsDirty = true
		}
	}
}

// boundsAdd accounts a robot arriving at p, growing the box if needed.
func (c *Chain) boundsAdd(p grid.Vec) {
	if c.boundsDirty {
		return
	}
	switch {
	case p.X < c.bounds.Min.X:
		c.bounds.Min.X, c.onMinX = p.X, 1
	case p.X == c.bounds.Min.X:
		c.onMinX++
	}
	switch {
	case p.X > c.bounds.Max.X:
		c.bounds.Max.X, c.onMaxX = p.X, 1
	case p.X == c.bounds.Max.X:
		c.onMaxX++
	}
	switch {
	case p.Y < c.bounds.Min.Y:
		c.bounds.Min.Y, c.onMinY = p.Y, 1
	case p.Y == c.bounds.Min.Y:
		c.onMinY++
	}
	switch {
	case p.Y > c.bounds.Max.Y:
		c.bounds.Max.Y, c.onMaxY = p.Y, 1
	case p.Y == c.bounds.Max.Y:
		c.onMaxY++
	}
}

// recomputeBounds rebuilds the box and its face counts in one walk of the
// live ring — O(Len()), not O(NumHandles()), so late-gather recomputes on
// a shrunken chain stay cheap. A new extreme resets its face count to 1,
// exactly like boundsAdd, so no second pass is needed.
func (c *Chain) recomputeBounds() {
	c.boundsDirty = false
	c.bounds = grid.Box{}
	c.onMinX, c.onMaxX, c.onMinY, c.onMaxY = 0, 0, 0, 0
	if c.n == 0 {
		return
	}
	h := c.head
	c.bounds = grid.BoxOf(c.pos[h])
	c.onMinX, c.onMaxX, c.onMinY, c.onMaxY = 1, 1, 1, 1
	for i, cur := 1, c.next[h]; i < c.n; i, cur = i+1, c.next[cur] {
		c.boundsAdd(c.pos[cur])
	}
}

// Bounds returns the bounding box of the configuration. O(1) unless a
// preceding move or splice emptied a box face, in which case one O(n)
// recompute runs.
func (c *Chain) Bounds() grid.Box {
	if c.boundsDirty {
		c.recomputeBounds()
	}
	return c.bounds
}

// Gathered reports the paper's termination condition: all robots lie within
// a 2x2 subgrid.
func (c *Chain) Gathered() bool { return c.Bounds().FitsSquare(2) }

// CheckEdges verifies that every edge is a legal chain edge (axis unit or
// zero). It is the safety invariant the algorithm must never violate.
func (c *Chain) CheckEdges() error {
	for i := 0; i < c.n; i++ {
		if !c.Edge(i).IsChainEdge() {
			return fmt.Errorf("%w: edge %d..%d is %v (%v -> %v)",
				ErrBadEdge, i, c.norm(i+1), c.Edge(i), c.Pos(i), c.Pos(i+1))
		}
	}
	return nil
}

// CheckEdgesAround verifies only the edges incident to the given handles.
// When the handles are exactly the robots that moved this round, the check
// is equivalent to CheckEdges — an edge between two unmoved robots cannot
// have changed — at O(#moved) instead of O(n) cost.
func (c *Chain) CheckEdgesAround(moved []Handle) error {
	for _, h := range moved {
		if !c.Contains(h) {
			continue
		}
		if d := c.pos[h].Sub(c.pos[c.prev[h]]); !d.IsChainEdge() {
			return fmt.Errorf("%w: edge %d..%d is %v (%v -> %v)",
				ErrBadEdge, c.IndexOf(c.prev[h]), c.IndexOf(h), d, c.pos[c.prev[h]], c.pos[h])
		}
		if d := c.pos[c.next[h]].Sub(c.pos[h]); !d.IsChainEdge() {
			return fmt.Errorf("%w: edge %d..%d is %v (%v -> %v)",
				ErrBadEdge, c.IndexOf(h), c.IndexOf(c.next[h]), d, c.pos[h], c.pos[c.next[h]])
		}
	}
	return nil
}

// CheckNoZeroEdges verifies that no two chain neighbours are co-located;
// this must hold after every round's merge resolution.
func (c *Chain) CheckNoZeroEdges() error {
	if c.n <= 2 {
		return nil // a fully gathered pair may legitimately coincide
	}
	for i := 0; i < c.n; i++ {
		if c.Edge(i).IsZero() {
			return fmt.Errorf("%w: neighbours %d,%d at %v", ErrZeroEdge, i, c.norm(i+1), c.Pos(i))
		}
	}
	return nil
}

// MergeEvent records one splice performed by AppendResolveMergesAround.
type MergeEvent struct {
	// Survivor stays on the chain, Removed was spliced out. Both occupied
	// Pos when the merge happened.
	Survivor, Removed Handle
	Pos               grid.Vec
}

// unlink splices live handle h out of the ring in O(1).
func (c *Chain) unlink(h Handle) {
	p, nx := c.prev[h], c.next[h]
	c.next[p] = nx
	c.prev[nx] = p
	c.live[h] = false
	c.n--
	if c.head == h {
		// The old slice representation shifted every later robot down one
		// index; removing index 0 made the old index 1 the new index 0.
		// Advancing the head reproduces exactly that numbering.
		c.head = nx
	}
	c.orderDirty = true
	c.boundsRemove(c.pos[h])
}

// mergePair merges the co-located ring neighbours a -> b: the robot with the
// larger internal ID is spliced out, an arbitrary but deterministic
// tie-break invisible to the algorithm.
func (c *Chain) mergePair(a, b Handle) MergeEvent {
	surv, rem := a, b
	if surv > rem {
		surv, rem = rem, surv
	}
	c.unlink(rem)
	return MergeEvent{Survivor: surv, Removed: rem, Pos: c.pos[surv]}
}

// AppendResolveMergesAround merges co-located chain neighbours, per the
// paper's model ("their neighbourhoods are merged and one of both is
// removed"), examining only the neighbourhoods of the given seed robots —
// the robots that moved this round — and appends the performed merges to
// dst in execution order. Co-location requires that at least one member of
// the pair moved, so seeding with the movers finds every mergeable pair in
// O(#seeds + #merges) independent of chain length. Each co-located cluster
// is reduced front to back: a splice joins the survivor to a neighbour
// whose pairing (by position) is the next one examined, and positions never
// change during resolution, so cascades stay within the cluster and the
// cluster minimum always survives.
//
// Merging stops early when only two robots remain: a 2-cycle is a gathered
// configuration and needs no further shortening.
func (c *Chain) AppendResolveMergesAround(dst []MergeEvent, seeds []Handle) []MergeEvent {
	events := dst
	for _, h := range seeds {
		if c.n <= 2 {
			break
		}
		if !c.Contains(h) {
			continue // merged away while processing an earlier seed
		}
		// Walk back to the start of the co-located cluster containing h
		// (bounded in case the whole ring has collapsed onto one point),
		// then reduce it front to back.
		start := h
		for steps := 0; c.pos[c.prev[start]] == c.pos[start] && steps < c.n; steps++ {
			start = c.prev[start]
		}
		cur := start
		for c.n > 2 {
			nx := c.next[cur]
			if c.pos[cur] != c.pos[nx] {
				break
			}
			ev := c.mergePair(cur, nx)
			events = append(events, ev)
			cur = ev.Survivor
		}
	}
	return events
}

// Clone returns a deep copy of the chain. Robot IDs (and handles) are
// preserved so traces of a cloned run stay comparable.
func (c *Chain) Clone() *Chain {
	if c.orderDirty {
		c.reindex()
	}
	cp := &Chain{
		pos:         append([]grid.Vec(nil), c.pos...),
		next:        append([]Handle(nil), c.next...),
		prev:        append([]Handle(nil), c.prev...),
		live:        append([]bool(nil), c.live...),
		order:       append([]Handle(nil), c.order...),
		idx:         append([]int32(nil), c.idx...),
		n:           c.n,
		head:        c.head,
		bounds:      c.bounds,
		onMinX:      c.onMinX,
		onMaxX:      c.onMaxX,
		onMinY:      c.onMinY,
		onMaxY:      c.onMaxY,
		boundsDirty: c.boundsDirty,
	}
	return cp
}

// PerimeterLength returns the total L1 length of all edges. For a valid
// post-merge chain this equals Len().
func (c *Chain) PerimeterLength() int {
	total := 0
	for i := 0; i < c.n; i++ {
		total += c.Edge(i).L1()
	}
	return total
}

// Diameter returns the LInf diameter of the configuration, the paper's
// lower-bound witness for gathering time.
func (c *Chain) Diameter() int {
	b := c.Bounds()
	if b.Empty() {
		return 0
	}
	return max(b.Width(), b.Height()) - 1
}

// chainJSON is the serialised form: positions in chain order.
type chainJSON struct {
	Positions [][2]int `json:"positions"`
}

// MarshalJSON encodes the chain as its position sequence.
func (c *Chain) MarshalJSON() ([]byte, error) {
	out := chainJSON{Positions: make([][2]int, 0, c.n)}
	for _, h := range c.Handles() {
		p := c.pos[h]
		out.Positions = append(out.Positions, [2]int{p.X, p.Y})
	}
	return json.Marshal(out)
}

// UnmarshalJSON decodes a chain previously written by MarshalJSON. The
// decoded chain is re-validated against the initial-configuration rules.
func (c *Chain) UnmarshalJSON(data []byte) error {
	var in chainJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return err
	}
	if len(in.Positions) == 0 {
		return ErrEmptyDecode
	}
	ps := make([]grid.Vec, len(in.Positions))
	for i, xy := range in.Positions {
		ps[i] = grid.V(xy[0], xy[1])
	}
	nc, err := New(ps)
	if err != nil {
		return err
	}
	*c = *nc
	return nil
}

// Turn classifies the corner at robot i: the cross product of its incoming
// and outgoing edges. +1 is a left (counter-clockwise) turn, -1 a right
// turn, 0 straight or a reversal. Zero-length edges yield 0.
func (c *Chain) Turn(i int) int {
	in, out := c.Edge(i-1), c.Edge(i)
	cr := in.Cross(out)
	switch {
	case cr > 0:
		return 1
	case cr < 0:
		return -1
	default:
		return 0
	}
}

// TotalTurning returns the sum of signed quarter-turns around the chain; a
// simple closed lattice polygon has total turning +-4. Used by generators
// and tests as a sanity metric.
func (c *Chain) TotalTurning() int {
	t := 0
	for i := 0; i < c.n; i++ {
		t += c.Turn(i)
	}
	return t
}

// EdgeRun describes a maximal straight run of edges: edges Start..Start+Len-1
// (cyclic) all equal Dir. Robots Start..Start+Len participate.
type EdgeRun struct {
	Start int      // index of the first edge (= its source robot)
	Len   int      // number of consecutive equal edges
	Dir   grid.Vec // common edge direction
}

// EdgeRuns decomposes the chain's edge cycle into maximal straight runs in
// chain order. A chain that is one full straight loop cannot exist (the walk
// must close), so the decomposition is well defined whenever Len() >= 2 and
// at least one direction change exists; for degenerate 2-cycles it returns
// the two single-edge runs.
func (c *Chain) EdgeRuns() []EdgeRun {
	n := c.n
	if n == 0 {
		return nil
	}
	// Find a break: an index where the edge direction changes.
	start := -1
	for i := 0; i < n; i++ {
		if c.Edge(i) != c.Edge(i-1) {
			start = i
			break
		}
	}
	if start == -1 {
		// All edges identical — impossible for a closed chain, but keep a
		// defined behaviour for robustness.
		return []EdgeRun{{Start: 0, Len: n, Dir: c.Edge(0)}}
	}
	var runs []EdgeRun
	i := start
	for counted := 0; counted < n; {
		dir := c.Edge(i)
		l := 1
		for counted+l < n && c.Edge(i+l) == dir {
			l++
		}
		runs = append(runs, EdgeRun{Start: c.norm(i), Len: l, Dir: dir})
		i += l
		counted += l
	}
	return runs
}

// String summarises the chain for debugging.
func (c *Chain) String() string {
	return fmt.Sprintf("chain{n=%d bounds=%v}", c.n, c.Bounds())
}
