package core

import (
	"gridgather/internal/grid"
	"gridgather/internal/view"
)

// This file implements the quasi-line geometry of the paper (Definition 1,
// Fig 10): a horizontal quasi line alternates straight runs of >= 3 robots
// with single perpendicular edges. Everything here is phrased relative to a
// local view and is invariant under the grid symmetries and under flipping
// the chain direction — robots have no compass and no IDs.

// StartSpec describes the run(s) a robot may start this round (Fig 5).
type StartSpec struct {
	// Dirs are the chain directions of the new runs: one entry for a
	// stairway start (Fig 5.i), two for a corner start (Fig 5.ii).
	Dirs []int
	// Kind distinguishes the two patterns.
	Kind StartKind
	// Hop is the corner-cutting diagonal hop performed once at a corner
	// start (operation (c) of Fig 11); zero for stairway starts.
	Hop grid.Vec
}

// The Dirs of every StartSpec DetectStart returns: shared read-only
// slices, so a start decision allocates nothing.
var (
	cornerDirs = []int{+1, -1}
	plusDir    = []int{+1}
	minusDir   = []int{-1}
)

// alignedTriple reports whether the robot and its next two chain neighbours
// in direction d form a straight segment (the "first three robots aligned"
// requirement of Definition 1 on the quasi line containing the observer).
// ahead is the leading edge s.Edge(0, d). Exactly two edges are read: the
// leading one must be an axis unit and the next one must repeat it.
func alignedTriple(s *view.Snapshot, d int, ahead grid.EdgeCode) bool {
	return s.V() >= 2 && s.ChainLen() >= 3 && ahead.IsUnit() && s.Edge(d, d) == ahead
}

// DetectStart checks the run start patterns of Fig 5 at the observing
// robot. It reports the runs to start, or ok = false if no pattern matches.
//
//   - Corner start (Fig 5.ii): the robot is the shared endpoint of a
//     straight segment of >= 3 robots on each side, the two segments being
//     perpendicular — the meeting point of a horizontal and a vertical
//     quasi line. Two runs start, one along each line, and the robot
//     performs the corner-cutting diagonal hop.
//   - Stairway start (Fig 5.i): the robot heads a straight segment of >= 3
//     robots on one side while the structure behind it breaks the quasi
//     line within three robots (a perpendicular edge followed by a straight
//     run of exactly two robots): the robot is a quasi-line endpoint
//     adjacent to a stairway. One run starts, moving along the quasi line.
//
// Chains shorter than MinChainForRuns never start runs: the inspected
// windows would self-overlap and such chains always shorten by merges
// alone. The returned Dirs slice is shared; callers must not mutate it.
func DetectStart(s *view.Snapshot) (StartSpec, bool) {
	if s.ChainLen() < MinChainForRuns {
		return StartSpec{}, false
	}
	ePlus := s.Edge(0, +1)
	eMinus := s.Edge(0, -1)
	if !ePlus.Perp(eMinus) {
		// Both patterns stand on a corner: the corner start's two lines
		// meet there, and a stairway is entered through an edge
		// perpendicular to the line (stairwayBehind). Most robots stand
		// mid-segment and are done after two edge reads.
		return StartSpec{}, false
	}
	aheadPlus := alignedTriple(s, +1, ePlus)
	aheadMinus := alignedTriple(s, -1, eMinus)

	// Corner start: straight >= 3 on both sides, perpendicular.
	if aheadPlus && aheadMinus {
		return StartSpec{
			Dirs: cornerDirs,
			Kind: StartCorner,
			Hop:  ePlus.Vec().Add(eMinus.Vec()),
		}, true
	}

	// Stairway start, trying each direction as the quasi-line side.
	if aheadPlus && stairwayBehind(s, +1, ePlus, eMinus) {
		return StartSpec{Dirs: plusDir, Kind: StartStairway}, true
	}
	if aheadMinus && stairwayBehind(s, -1, eMinus, ePlus) {
		return StartSpec{Dirs: minusDir, Kind: StartStairway}, true
	}
	return StartSpec{}, false
}

// stairwayBehind checks the rest of the Fig 5.(i) pattern once the quasi
// line is known to extend straight in direction d along axis = s.Edge(0, d):
// the stairway behind (-d), entered through b1 = s.Edge(0, -d).
func stairwayBehind(s *view.Snapshot, d int, axis, b1 grid.EdgeCode) bool {
	if !b1.Perp(axis) {
		return false
	}
	b2 := s.Edge(-d, -d) // first -> second robot behind
	if !b2.Parallel(axis) {
		// Straight on (handled as corner start above), a reversal (a merge
		// pattern, which suppresses starts), or a second perpendicular
		// edge: not a stairway.
		return false
	}
	// A third straight robot behind (b3 == b2) means the quasi line
	// continues through an interior jog — not an endpoint.
	b3 := s.Edge(-2*d, -d) // second -> third robot behind
	return b3 != b2
}

// EndpointAhead scans the chain in front of a run (direction d) and reports
// whether the quasi line the run is working on provably ends within the
// viewing range. When it does, endOffset is the chain offset of the last
// robot still on the quasi line (the final corner); the caller combines
// this with run visibility to evaluate termination condition 2 of Table 1.
// It is scanLine without the run mask; see there for the parser.
func EndpointAhead(s *view.Snapshot, d int) (endOffset int, ok bool) {
	var l lineScan
	scanLine(s, d, min(s.V(), s.ChainLen()-1), 0, &l)
	return l.end, l.endSeen
}

// lineScan is what one pass over the window in front of a run yields
// (scanLine).
type lineScan struct {
	// end and endSeen are EndpointAhead's verdict: endSeen when the quasi
	// line provably ends in view, end the offset of its last robot.
	end     int
	endSeen bool
	// aligned is Snapshot.AlignedAhead(d): the length of the straight run
	// of identical unit edges that starts at the observer.
	aligned int
	// lead and trail are the observer's edges in direction d and -d.
	lead, trail grid.EdgeCode
	// away and towards are the first offsets (times d) whose robot carries
	// a run moving away from, or towards, the observer; 0 when none was
	// read. Filled only when the pass reads the run mask.
	away, towards int
}

// scanLine is the quasi-line parser, the one pass over the maxEdges edges
// in front of the observer in direction d (maxEdges = min(V, n-1)).
//
// The parser accepts the structure of Definition 1, tolerant of where the
// run currently stands (on a corner, mid-segment, or about to cross a jog):
// maximal groups of identical edges must alternate between the line axis —
// all in one direction, with >= 2 edges except possibly the truncated first
// and last groups — and single perpendicular jog edges. Any confirmed
// deviation (a perpendicular double edge, a straight group of one edge
// strictly inside, a reversal or switchback) marks the endpoint.
//
// Most windows in front of a run are one unit edge repeated to the
// horizon, and their result is known without a parse: the first group
// spans the window and may continue beyond it, so the line is aligned to
// the horizon, no endpoint is in view, and no tail follows (runsTo <=
// maxEdges). scanLine checks that case first, in two word compares of the
// edge codes and two of the run mask where the window does not wrap
// (view.Snapshot.Straight, RunsAhead), and parses every other window
// edge by edge (parseLine).
//
// runsTo > 0 makes the same pass read the run mask of every robot it
// reaches, recording the first run moving away and the first moving
// towards the observer, and read on past an early endpoint until offset
// runsTo for the latter: the Table 1 probes and the passing trigger of a
// run's decision (computeRunDecision), which never look farther than the
// endpoint or that offset.
func scanLine(s *view.Snapshot, d, maxEdges, runsTo int, l *lineScan) {
	if maxEdges >= 2 && s.Straight(d, maxEdges) {
		*l = lineScan{lead: s.Edge(0, d), trail: s.Edge(0, -d), aligned: maxEdges}
		if runsTo > 0 {
			l.away, l.towards = s.RunsAhead(d, maxEdges)
		}
		return
	}
	parseLine(s, d, maxEdges, runsTo, l)
}

// parseLine is scanLine's byte parser, which judges any window. The edges
// are streamed through one view.Ray, checked once at its farthest offset,
// not buffered: each group is judged as soon as its verdict is known (on
// its first edge, on a repeated jog edge, or when it closes) and the parse
// stops at the first deviation. The cost is the length of the quasi line
// seen, whatever the viewing range, and the scan allocates nothing —
// which keeps the unbounded-view pair walk (pairStarts) as cheap as a
// robot's own look. The first group is the straight run AlignedAhead
// counts, so the count comes with the parse.
func parseLine(s *view.Snapshot, d, maxEdges, runsTo int, l *lineScan) {
	*l = lineScan{lead: s.Edge(0, d), trail: s.Edge(0, -d)}
	if maxEdges < 2 {
		// A two-robot chain: no quasi line to parse, one edge to read.
		if maxEdges == 1 {
			r := s.Ahead(d, 1)
			if r.Next().IsUnit() {
				l.aligned = 1
			}
			if runsTo > 0 {
				l.noteRuns(&r, 1)
			}
		}
		return
	}
	// Determine the line axis the run is travelling on, disambiguated by
	// the trailing edge: mid-segment the leading and trailing edges are
	// parallel; on a corner the leading edge opens the next segment; just
	// before a jog the leading edge is the jog and the axis continues with
	// the edge after it.
	e1, eT := l.lead, l.trail
	e2 := s.Edge(d, d)
	axis := e1
	if e1.Perp(eT) && e2 != e1 && e2.Parallel(eT) {
		axis = e2 // standing before a jog: e1 is the jog edge
	}
	lineDir := grid.EdgeZero // unknown until a straight edge fixes it
	if e1.Parallel(axis) {
		lineDir = e1
	} else if e2.Parallel(axis) {
		lineDir = e2
	}

	// Walk the groups along the known axis. Straight groups must keep one
	// direction and span >= 2 edges (except the truncated first and last);
	// perpendicular jog groups must be single edges between straight
	// groups. The first confirmed deviation marks the quasi-line end;
	// lastGood is the last robot of the last straight group judged sound.
	r := s.Ahead(d, maxEdges)
	read := 0 // robots whose run mask the pass has read
	lastGood := 0
	prevStraight := false
	var (
		dir      grid.EdgeCode // edge of the open group
		size     int           // its edge count
		straight bool          // whether it lies on the line axis
	)
scan:
	for j := 0; j <= maxEdges; j++ {
		var e grid.EdgeCode
		if j < maxEdges {
			e = r.Next()
			if runsTo > 0 {
				read++
				l.noteRuns(&r, read)
			}
			if j > 0 && e == dir {
				size++
				if !straight {
					l.end, l.endSeen = lastGood, true // a perpendicular double edge
					break scan
				}
				continue
			}
		}
		if j > 0 {
			// The open group closes at robot j; it is the final group
			// exactly when the horizon closed it (it may continue beyond).
			if j == size && e1.IsUnit() {
				l.aligned = size // the first group: the aligned run
			}
			if straight {
				if size == 1 && j < maxEdges && j > 1 {
					// A straight group of a single edge strictly inside the
					// structure: a two-robot run, i.e. a stairway step.
					l.end, l.endSeen = lastGood, true
					break scan
				}
				lastGood = j
			}
			prevStraight = straight
		}
		if j == maxEdges {
			break
		}
		dir, size, straight = e, 1, e.Parallel(axis)
		switch {
		case straight:
			if lineDir != grid.EdgeZero && e != lineDir {
				// Reversal or switchback: a merge shape, not a quasi line.
				l.end, l.endSeen = lastGood, true
				break scan
			}
			lineDir = e
		case j > 0 && !prevStraight:
			// Two jogs may not follow each other.
			l.end, l.endSeen = lastGood, true
			break scan
		}
	}
	// With no confirmed violation within view the final (possibly
	// truncated) group may continue beyond the horizon: endSeen stays
	// false. An early endpoint leaves the passing trigger's offsets to
	// read.
	for read < runsTo && l.towards == 0 {
		r.Next()
		read++
		l.noteRuns(&r, read)
	}
}

// noteRuns records the run states of the robot the ray stands at, offset
// k, if they are the first of their kind the pass has met.
func (l *lineScan) noteRuns(r *view.Ray, k int) {
	away, towards := r.Runs()
	if away && l.away == 0 {
		l.away = k
	}
	if towards && l.towards == 0 {
		l.towards = k
	}
}

// cornerAt reports whether a robot with leading edge lead and trailing
// edge trail, with respect to its travel direction, stands on a corner:
// the two edges are perpendicular. Runner operations (a) and (b) act only
// on corners.
func cornerAt(lead, trail grid.EdgeCode) bool { return trail.Perp(lead) }
