package core

import (
	"fmt"

	"gridgather/internal/chain"
	"gridgather/internal/grid"
)

// This file implements the global structure analysis behind the proof of
// Lemma 1 (paper §5.1, Fig 16–18): a Mergeless Chain decomposes into
// maximal quasi lines (Definition 1) connected by stairways (alternating
// single edges). The decomposition is analysis tooling — robots never see
// it — used by experiment E9 and by tests to cross-validate the local
// run-start patterns of Fig 5 against the global structure.

// SegmentKind classifies a decomposition segment.
type SegmentKind int

// Segment kinds. QuasiLine segments satisfy Definition 1 (straight runs of
// >= 2 edges along one axis and direction, separated by single
// perpendicular jog edges). Stairway segments are maximal stretches of
// alternating single edges between quasi lines (possibly empty in the
// chain, so never reported with zero length). Irregular marks structure
// that fits neither — it cannot occur on a Mergeless Chain.
const (
	SegQuasiLine SegmentKind = iota
	SegStairway
	SegIrregular
)

// String names the kind.
func (k SegmentKind) String() string {
	switch k {
	case SegQuasiLine:
		return "quasi-line"
	case SegStairway:
		return "stairway"
	default:
		return "irregular"
	}
}

// Segment is one piece of the decomposition: the edges FirstEdge ..
// FirstEdge+EdgeLen-1 (cyclic). The robots spanned are FirstEdge ..
// FirstEdge+EdgeLen; consecutive segments share their boundary robot,
// matching the paper's picture of quasi lines meeting stairways at the
// run-start robots.
type Segment struct {
	FirstEdge int
	EdgeLen   int
	Kind      SegmentKind
	// Dir is the common direction of the straight runs of a quasi line
	// (zero for other kinds).
	Dir grid.Vec
}

// String renders the segment compactly.
func (s Segment) String() string {
	return fmt.Sprintf("%v[e%d+%d]", s.Kind, s.FirstEdge, s.EdgeLen)
}

// Decompose partitions the chain's edge cycle into quasi lines, stairways
// and irregular leftovers. On a Mergeless Chain the result contains no
// irregular segment (the structural claim of the proof of Lemma 1, which
// TestDecomposeMergeless verifies on random mergeless chains).
func Decompose(ch *chain.Chain) []Segment {
	runs := ch.EdgeRuns()
	m := len(runs)
	if m == 0 {
		return nil
	}
	if m == 1 {
		// A single straight cycle cannot exist; report it as irregular.
		return []Segment{{FirstEdge: runs[0].Start, EdgeLen: runs[0].Len, Kind: SegIrregular}}
	}

	long := func(i int) bool { return runs[mod(i, m)].Len >= 2 }

	// Greedily grow quasi lines: a maximal block of long runs of one axis
	// and direction, separated by single perpendicular edges.
	consumed := make([]bool, m)
	var segs []Segment
	for i := 0; i < m; i++ {
		if consumed[i] || !long(i) {
			continue
		}
		dir := runs[i].Dir
		// Extend forward: pattern (single perp, long same-dir)*.
		endRun := i
		edges := runs[i].Len
		for {
			j1, j2 := mod(endRun+1, m), mod(endRun+2, m)
			if j2 == i || consumed[j1] || consumed[j2] {
				break
			}
			if runs[j1].Len == 1 && runs[j1].Dir.Perp(dir) &&
				long(j2) && runs[j2].Dir == dir {
				edges += runs[j1].Len + runs[j2].Len
				consumed[j1], consumed[j2] = true, true
				endRun = j2
				continue
			}
			break
		}
		consumed[i] = true
		segs = append(segs, Segment{
			FirstEdge: runs[i].Start,
			EdgeLen:   edges,
			Kind:      SegQuasiLine,
			Dir:       dir,
		})
	}

	// Remaining runs form stairways (maximal stretches of alternating
	// singles) or irregular leftovers (anti-parallel neighbours, long runs
	// swallowed by none — impossible when mergeless).
	for i := 0; i < m; i++ {
		if consumed[i] {
			continue
		}
		// Grow a stretch of unconsumed runs.
		end := i
		for mod(end+1, m) != i && !consumed[mod(end+1, m)] {
			end++
		}
		edges := 0
		kind := SegStairway
		for k := i; k <= end; k++ {
			r := runs[mod(k, m)]
			edges += r.Len
			if r.Len > 1 {
				kind = SegIrregular
			}
			if k > i {
				prev := runs[mod(k-1, m)]
				if !r.Dir.Perp(prev.Dir) {
					kind = SegIrregular // reversal: a spike, hence mergeable
				}
			}
			consumed[mod(k, m)] = true
		}
		segs = append(segs, Segment{
			FirstEdge: runs[mod(i, m)].Start,
			EdgeLen:   edges,
			Kind:      kind,
		})
	}

	// Reversal junctions (adjacent anti-parallel edge runs) are spikes —
	// mergeable structure that belongs to no quasi line or stairway. They
	// carry no edges of their own, so they are flagged as zero-length
	// irregular markers at the turning robot.
	for i := 0; i < m; i++ {
		next := runs[mod(i+1, m)]
		if next.Dir == runs[i].Dir.Neg() {
			segs = append(segs, Segment{
				FirstEdge: next.Start,
				EdgeLen:   0,
				Kind:      SegIrregular,
			})
		}
	}
	return segs
}

// DecomposeStats summarises a decomposition for the experiment tables.
type DecomposeStats struct {
	QuasiLines   int
	Stairways    int
	Irregular    int
	QLEdges      int
	StairEdges   int
	LongestQL    int // edges
	LongestStair int // edges
}

// Stats aggregates segment counts and sizes.
func Stats(segs []Segment) DecomposeStats {
	var st DecomposeStats
	for _, s := range segs {
		switch s.Kind {
		case SegQuasiLine:
			st.QuasiLines++
			st.QLEdges += s.EdgeLen
			st.LongestQL = max(st.LongestQL, s.EdgeLen)
		case SegStairway:
			st.Stairways++
			st.StairEdges += s.EdgeLen
			st.LongestStair = max(st.LongestStair, s.EdgeLen)
		default:
			st.Irregular++
		}
	}
	return st
}

func mod(i, m int) int {
	i %= m
	if i < 0 {
		i += m
	}
	return i
}
