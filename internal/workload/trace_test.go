package workload

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
)

// traceSpec is a tiny campaign that runs in well under a second: small
// walks under FSYNC and a deterministic scheduler, both strategies.
const traceSpec = `name: trace-test
seed: 7
items: 6
families:
  - shape: walk
    size: uniform:16:48
scheds:
  - fsync
  - rr:2
strategies:
  - paper
  - lintime
`

// TestExecuteTraceReplay drives the whole record/replay loop: execute a
// campaign, write the NDJSON trace, read it back identically, and replay
// it against fresh runs with zero divergences.
func TestExecuteTraceReplay(t *testing.T) {
	s, err := ParseSpec([]byte(traceSpec))
	if err != nil {
		t.Fatal(err)
	}
	recs, err := Execute(context.Background(), s, 4)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if len(recs) != s.Items {
		t.Fatalf("Execute returned %d records, want %d", len(recs), s.Items)
	}
	for _, rec := range recs {
		if !rec.Gathered {
			t.Fatalf("item %d DNFed (%s) in the all-gatherable trace spec", rec.Item.Index, rec.DNF)
		}
		if rec.Result.Rounds == 0 {
			t.Fatalf("item %d recorded zero rounds", rec.Item.Index)
		}
	}

	var buf bytes.Buffer
	if err := WriteTrace(&buf, recs); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadTrace: %v", err)
	}
	if !reflect.DeepEqual(recs, back) {
		t.Fatal("trace did not round-trip through NDJSON")
	}

	if err := Replay(context.Background(), back, 4); err != nil {
		t.Fatalf("Replay of a fresh trace diverged: %v", err)
	}

	// Tamper with a recorded result: Replay must call the divergence.
	back[2].Result.Rounds++
	err = Replay(context.Background(), back, 1)
	if !errors.Is(err, ErrReplayDiverged) {
		t.Fatalf("Replay(tampered) = %v, want ErrReplayDiverged", err)
	}
	back[2].Result.Rounds--

	// Tamper with a verdict.
	back[4].Gathered = false
	back[4].DNF = DNFWatchdog
	if err := Replay(context.Background(), back, 1); !errors.Is(err, ErrReplayDiverged) {
		t.Fatalf("Replay(tampered verdict) = %v, want ErrReplayDiverged", err)
	}
}

// TestExecuteDeterministic pins that two executions of the same spec
// produce byte-identical traces — the property that makes campaign traces
// committable artifacts.
func TestExecuteDeterministic(t *testing.T) {
	s, err := ParseSpec([]byte(traceSpec))
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	for _, buf := range []*bytes.Buffer{&a, &b} {
		recs, err := Execute(context.Background(), s, 3)
		if err != nil {
			t.Fatal(err)
		}
		if err := WriteTrace(buf, recs); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two executions of one spec produced different traces")
	}
}

// TestExecuteRecordsDNF pins that deterministic DNFs are first-class
// campaign outcomes: a paper-strategy campaign under rr:5 stalls on
// square rings and must record (and replay) as dnf, not error out.
func TestExecuteRecordsDNF(t *testing.T) {
	spec := `seed: 3
items: 2
families:
  - shape: rectangle
    size: 64
scheds:
  - rr:5
`
	s, err := ParseSpec([]byte(spec))
	if err != nil {
		t.Fatal(err)
	}
	recs, err := Execute(context.Background(), s, 2)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	dnfs := 0
	for _, rec := range recs {
		if !rec.Gathered {
			dnfs++
			if rec.DNF != DNFStalled && rec.DNF != DNFWatchdog {
				t.Fatalf("item %d: unlabelled DNF %q", rec.Item.Index, rec.DNF)
			}
		}
	}
	if dnfs == 0 {
		t.Fatal("rr:5 on square rings gathered everything — the livelock boundary moved")
	}
	if err := Replay(context.Background(), recs, 2); err != nil {
		t.Fatalf("Replay of a DNF trace: %v", err)
	}
}

// TestReadTraceRejects pins the typed trace errors.
func TestReadTraceRejects(t *testing.T) {
	cases := map[string]string{
		"garbage":       "not json\n",
		"unknown field": `{"item":{"index":0},"gathered":true,"bogus":1}` + "\n",
		"wrong shape":   `[1,2,3]` + "\n",
	}
	for name, in := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := ReadTrace(strings.NewReader(in)); !errors.Is(err, ErrBadTrace) {
				t.Fatalf("ReadTrace = %v, want ErrBadTrace", err)
			}
		})
	}
	// Blank lines are tolerated.
	recs, err := ReadTrace(strings.NewReader("\n\n"))
	if err != nil || len(recs) != 0 {
		t.Fatalf("ReadTrace(blank) = %d recs, %v", len(recs), err)
	}
}
