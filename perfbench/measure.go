package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"time"
)

// quantile returns the q-quantile of sorted values by linear interpolation
// between closest ranks (the R-7 / numpy default rule).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(sorted)-1)
	return sorted[lo] + (pos-float64(lo))*(sorted[hi]-sorted[lo])
}

// durationsMS converts unit latencies to sorted milliseconds.
func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	slices.Sort(out)
	return out
}

// medianDuration is the median of the set-up repetitions.
func medianDuration(ds []time.Duration) time.Duration {
	s := slices.Clone(ds)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// heapPeak tracks the peak live heap of a timed phase: the live bytes a
// forced GC finds at the points where a workload retains the most. A
// forced GC marks exactly what is reachable; the figure a background GC
// reports also counts whatever was allocated while it marked, which made
// the gather workload's peak swing between 5 and 16 MB from run to run.
type heapPeak struct {
	s    [1]metrics.Sample
	peak uint64
}

func newHeapPeak() (*heapPeak, error) {
	h := &heapPeak{}
	h.s[0].Name = "/gc/heap/live:bytes"
	metrics.Read(h.s[:])
	if h.s[0].Value.Kind() != metrics.KindUint64 {
		return nil, fmt.Errorf("runtime metric %s is not supported by this Go runtime", h.s[0].Name)
	}
	return h, nil
}

// force runs a full GC and returns the live heap it found.
func (h *heapPeak) force() uint64 {
	runtime.GC()
	metrics.Read(h.s[:])
	v := h.s[0].Value.Uint64()
	h.peak = max(h.peak, v)
	return v
}

// gcCPU reads the runtime's cumulative GC and total CPU estimates, so the
// GC share of a phase is the ratio of their deltas.
type gcCPU struct {
	s [2]metrics.Sample
}

func newGCCPU() *gcCPU {
	g := &gcCPU{}
	g.s[0].Name = "/cpu/classes/gc/total:cpu-seconds"
	g.s[1].Name = "/cpu/classes/total:cpu-seconds"
	return g
}

func (g *gcCPU) read() (gc, total float64) {
	metrics.Read(g.s[:])
	if g.s[0].Value.Kind() != metrics.KindFloat64 || g.s[1].Value.Kind() != metrics.KindFloat64 {
		return 0, 0
	}
	return g.s[0].Value.Float64(), g.s[1].Value.Float64()
}

// spanID names a traced call. Every span wraps one call into a layer of
// the program, made from the benchmark's own code.
type spanID uint8

const (
	spSetup spanID = iota
	spGenerateNamed
	spExpandItem
	spPrime
	spPeriod
	spRound
	spReindex
	spMergeScan
	spCombine
	spDecide
	spStartScan
	spStep
	spItem
	spFromBytes
	spNewEngine
	spRun
	spActivate
	spRequest
	spDecode
	spKey
	spHTTP
	spStream
	spMissEngine
	numSpans
)

var spanNames = [numSpans]string{
	spSetup:         "setup",
	spGenerateNamed: "generate.Named",
	spExpandItem:    "workload.Spec.ExpandItem",
	spPrime:         "serve.prime",
	spPeriod:        "gather.period",
	spRound:         "gather.round",
	spReindex:       "chain.Handles",
	spMergeScan:     "core.KernelMergeScan",
	spCombine:       "core.CombineMergePlan",
	spDecide:        "core.KernelDecide",
	spStartScan:     "core.KernelStartScan",
	spStep:          "sim.Engine.Step",
	spItem:          "campaign.item",
	spFromBytes:     "workload.Item.Chain",
	spNewEngine:     "sim.NewEngine",
	spRun:           "sim.Engine.Run",
	spActivate:      "sched.Scheduler.Activate",
	spRequest:       "serve.request",
	spDecode:        "serve.decode",
	spKey:           "serve.CacheKey",
	spHTTP:          "serve.Server.ServeHTTP",
	spStream:        "serve.stream",
	spMissEngine:    "sim.Gather",
}

// span is one recorded call: start and end are nanoseconds since the
// tracer's epoch, parent indexes the enclosing span (-1 for a root).
type span struct {
	name       spanID
	unit       int32
	parent     int32
	start, end int64
}

// spanAgg aggregates every span of one name, retained or not.
type spanAgg struct {
	count       int64
	total, self int64
}

// frame is an open span on the tracer stack.
type frame struct {
	name     spanID
	idx      int32 // index in spans, -1 when the buffer was full
	start    int64
	children int64 // summed duration of closed child spans
}

// tracer keeps spans in memory: a buffer sized once before the timed
// phase, so recording allocates nothing, and per-name aggregates of total
// and self time computed as spans close. Spans past the buffer's capacity
// are aggregated but not retained.
type tracer struct {
	epoch   time.Time
	spans   []span
	dropped int64
	stack   [8]frame
	depth   int
	agg     [numSpans]spanAgg
}

func newTracer(capacity int) *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, capacity)}
}

func (t *tracer) begin(name spanID, unit int) {
	now := int64(time.Since(t.epoch))
	parent := int32(-1)
	if t.depth > 0 {
		parent = t.stack[t.depth-1].idx
	}
	idx := int32(-1)
	if len(t.spans) < cap(t.spans) {
		idx = int32(len(t.spans))
		t.spans = append(t.spans, span{name: name, unit: int32(unit), parent: parent, start: now})
	} else {
		t.dropped++
	}
	t.stack[t.depth] = frame{name: name, idx: idx, start: now}
	t.depth++
}

func (t *tracer) end() {
	now := int64(time.Since(t.epoch))
	t.depth--
	f := t.stack[t.depth]
	dur := now - f.start
	a := &t.agg[f.name]
	a.count++
	a.total += dur
	a.self += dur - f.children
	if f.idx >= 0 {
		t.spans[f.idx].end = now
	}
	if t.depth > 0 {
		t.stack[t.depth-1].children += dur
	}
}

// meanUS is the mean duration of one call of the named span in µs.
func (t *tracer) meanUS(name spanID) float64 {
	a := t.agg[name]
	if a.count == 0 {
		return 0
	}
	return float64(a.total) / float64(a.count) / 1e3
}

// totalUS is the summed duration of every call of the named span in µs.
func (t *tracer) totalUS(name spanID) float64 { return float64(t.agg[name].total) / 1e3 }

// writeSummary prints one line per span name that occurred: calls, total
// and self time.
func (t *tracer) writeSummary(w io.Writer) {
	fmt.Fprintf(w, "trace: %d spans retained, %d aggregated only\n", len(t.spans), t.dropped)
	fmt.Fprintf(w, "trace: %-28s %10s %12s %12s %10s\n", "span", "calls", "total_ms", "self_ms", "mean_us")
	for id := spanID(0); id < numSpans; id++ {
		a := t.agg[id]
		if a.count == 0 {
			continue
		}
		fmt.Fprintf(w, "trace: %-28s %10d %12.3f %12.3f %10.3f\n", spanNames[id], a.count,
			float64(a.total)/1e6, float64(a.self)/1e6, t.meanUS(id))
	}
}

// writeFile writes the stamp, the per-name aggregates and every retained
// span as JSON lines.
func (t *tracer) writeFile(w io.Writer, st stamp) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(map[string]any{"stamp": st, "dropped_spans": t.dropped}); err != nil {
		return err
	}
	for id := spanID(0); id < numSpans; id++ {
		a := t.agg[id]
		if a.count == 0 {
			continue
		}
		if err := enc.Encode(map[string]any{"aggregate": spanNames[id], "calls": a.count,
			"total_ns": a.total, "self_ns": a.self}); err != nil {
			return err
		}
	}
	for _, s := range t.spans {
		fmt.Fprintf(bw, `{"name":%q,"unit":%d,"parent":%d,"start_ns":%d,"end_ns":%d}`+"\n",
			spanNames[s.name], s.unit, s.parent, s.start, s.end)
	}
	return bw.Flush()
}

// pyQuartiles returns the first quartile, median and third quartile of
// values the way Python's statistics.quantiles(values, n=4) and
// statistics.median compute them.
func pyQuartiles(values []float64) (q1, med, q3 float64) {
	s := slices.Clone(values)
	slices.Sort(s)
	ld := len(s)
	if ld == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if ld%2 == 1 {
		med = s[ld/2]
	} else {
		med = (s[ld/2-1] + s[ld/2]) / 2
	}
	if ld < 2 {
		return s[0], med, s[0]
	}
	// The "exclusive" method: m = ld+1, j = i*m/n clamped to [1, ld-1].
	q := func(i int) float64 {
		const n = 4
		m := ld + 1
		j := min(max(i*m/n, 1), ld-1)
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q(1), med, q(3)
}
