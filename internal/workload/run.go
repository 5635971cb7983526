package workload

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"gridgather/internal/parallel"
	"gridgather/internal/sim"
)

// Trace errors.
var (
	// ErrBadTrace rejects a campaign trace that does not decode.
	ErrBadTrace = errors.New("workload: invalid campaign trace")
	// ErrReplayDiverged is Replay's verdict when a fresh run of a recorded
	// item does not reproduce the recorded result exactly. Simulations are
	// deterministic, so any divergence means the code changed behaviour
	// (or the trace was edited) since the trace was recorded.
	ErrReplayDiverged = errors.New("workload: replay diverged from the recorded trace")
)

// DNF verdicts recorded in a trace. Watchdog and stall expiries are
// deterministic clean outcomes of a campaign item, not errors: the same
// item DNFs the same way on every run, so they record and replay like any
// other result.
const (
	// DNFWatchdog records a sim.ErrWatchdog expiry.
	DNFWatchdog = "watchdog"
	// DNFStalled records a sim.ErrStalled fixpoint.
	DNFStalled = "stalled"
)

// Record is one executed campaign item in an NDJSON trace: the expanded
// item plus what running it produced.
type Record struct {
	// Item is the expanded campaign entry, self-contained.
	Item Item `json:"item"`
	// Gathered reports success; DNF carries the deterministic
	// did-not-finish verdict ("watchdog" or "stalled") when it is false.
	Gathered bool   `json:"gathered"`
	DNF      string `json:"dnf,omitempty"`
	// Result is the engine's full accounting for the run.
	Result sim.Result `json:"result"`
}

// runItem executes one expanded item. Watchdog and stall DNFs fold into
// the Record; every other engine error is a real failure.
func runItem(it Item) (Record, error) {
	ch, err := it.Chain()
	if err != nil {
		return Record{}, fmt.Errorf("workload: item %d: rebuilding scenario: %w", it.Index, err)
	}
	res, err := sim.Gather(ch, it.Options())
	rec := Record{Item: it, Gathered: err == nil, Result: res}
	switch {
	case err == nil:
	case errors.Is(err, sim.ErrWatchdog):
		rec.DNF = DNFWatchdog
	case errors.Is(err, sim.ErrStalled):
		rec.DNF = DNFStalled
	default:
		return Record{}, fmt.Errorf("workload: item %d (%s, n=%d): %w", it.Index, it.Family, it.N, err)
	}
	return rec, nil
}

// Execute expands the spec and runs every item, fanning out over workers
// campaign-level goroutines (0 = GOMAXPROCS). The record stream is a pure
// function of the spec: items are deterministic, runs are deterministic,
// and records come back in item order at any worker count.
func Execute(ctx context.Context, s Spec, workers int) ([]Record, error) {
	items, err := s.Expand(ctx, workers)
	if err != nil {
		return nil, err
	}
	tasks := make([]parallel.Task[Record], len(items))
	for i := range tasks {
		tasks[i] = func(index int) (Record, error) { return runItem(items[index]) }
	}
	return parallel.RunContext(ctx, workers, tasks)
}

// WriteTrace writes records as NDJSON, one record per line, in order —
// the campaign trace format (DESIGN.md §13).
func WriteTrace(w io.Writer, recs []Record) error {
	enc := json.NewEncoder(w)
	for _, rec := range recs {
		if err := enc.Encode(rec); err != nil {
			return fmt.Errorf("workload: writing trace record %d: %w", rec.Item.Index, err)
		}
	}
	return nil
}

// ReadTrace decodes an NDJSON campaign trace written by WriteTrace.
// Blank lines are skipped; anything else that does not decode wraps
// ErrBadTrace with its line number.
func ReadTrace(r io.Reader) ([]Record, error) {
	var out []Record
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		var rec Record
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&rec); err != nil {
			return nil, fmt.Errorf("%w: line %d: %v", ErrBadTrace, line, err)
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadTrace, err)
	}
	return out, nil
}

// Replay re-runs every recorded item and verifies the fresh outcome
// against the trace byte-for-byte (canonical JSON of the result plus the
// gathered/DNF verdict). It returns nil when the whole trace reproduces,
// and an ErrReplayDiverged naming the first divergent item otherwise.
// Verification fans out over workers goroutines.
func Replay(ctx context.Context, recs []Record, workers int) error {
	tasks := make([]parallel.Task[struct{}], len(recs))
	for i := range tasks {
		tasks[i] = func(index int) (struct{}, error) {
			return struct{}{}, replayOne(recs[index])
		}
	}
	_, err := parallel.RunContext(ctx, workers, tasks)
	return err
}

// replayOne verifies one record.
func replayOne(rec Record) error {
	fresh, err := runItem(rec.Item)
	if err != nil {
		return err
	}
	if fresh.Gathered != rec.Gathered || fresh.DNF != rec.DNF {
		return fmt.Errorf("%w: item %d: verdict gathered=%v dnf=%q, recorded gathered=%v dnf=%q",
			ErrReplayDiverged, rec.Item.Index, fresh.Gathered, fresh.DNF, rec.Gathered, rec.DNF)
	}
	got, err := json.Marshal(fresh.Result)
	if err != nil {
		return fmt.Errorf("workload: item %d: %w", rec.Item.Index, err)
	}
	want, err := json.Marshal(rec.Result)
	if err != nil {
		return fmt.Errorf("workload: item %d: %w", rec.Item.Index, err)
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("%w: item %d (%s, n=%d): fresh result %s != recorded %s",
			ErrReplayDiverged, rec.Item.Index, rec.Item.Family, rec.Item.N, got, want)
	}
	return nil
}
