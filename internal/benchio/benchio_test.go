package benchio

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func fixture() *Report {
	return &Report{
		Schema:     Schema,
		Label:      "PRX",
		GOMAXPROCS: 2,
		NumCPU:     2,
		GoVersion:  "go1.24.0",
		Entries: []Entry{
			{Name: "StepSquare/n=512", Iterations: 100, NsPerOp: 60000, AllocsPerOp: 2},
			{Name: "GatherSquare/n=512", Iterations: 20, NsPerOp: 5.2e7, BytesPerOp: 870176,
				AllocsPerOp: 2006, Metrics: map[string]float64{"rounds": 773}},
		},
		Notes: []string{"measured on the CI baseline"},
	}
}

func TestEncodeDeterministicAndSorted(t *testing.T) {
	a, err := Encode(fixture())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Encode(fixture())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("two encodings of the same report differ")
	}
	if !bytes.HasSuffix(a, []byte("\n")) {
		t.Error("encoding lacks trailing newline")
	}
	// Entries must be name-sorted regardless of input order.
	if gather := bytes.Index(a, []byte("GatherSquare")); gather > bytes.Index(a, []byte("StepSquare")) {
		t.Errorf("entries not sorted by name:\n%s", a)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	want := fixture()
	if err := Write(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Label != want.Label || len(got.Entries) != len(want.Entries) {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	if got.GOMAXPROCS != 2 || got.NumCPU != 2 || got.GoVersion != "go1.24.0" {
		t.Errorf("host stamp did not survive the round trip: %+v", got)
	}
	e := got.Entry("GatherSquare/n=512")
	if e == nil || e.AllocsPerOp != 2006 || e.Metrics["rounds"] != 773 {
		t.Errorf("entry did not survive the round trip: %+v", e)
	}
	if got.Entry("nope") != nil {
		t.Error("Entry returned a match for an unknown name")
	}
}

func TestReadRejectsWrongSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	r := fixture()
	r.Schema = Schema + 1
	data, err := Encode(r)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(path); err == nil {
		t.Error("Read accepted a report with a foreign schema")
	}
}

func TestCompare(t *testing.T) {
	committed := fixture()
	fresh := fixture()
	if v := Compare(committed, fresh, 0.20); len(v) != 0 {
		t.Errorf("identical reports must compare clean, got %v", v)
	}

	// The host stamp is documentation: another host, or a snapshot older
	// than the stamp, compares clean.
	fresh.GOMAXPROCS, fresh.NumCPU, fresh.GoVersion = 8, 16, "go1.22.0"
	committed.GOMAXPROCS, committed.NumCPU, committed.GoVersion = 0, 0, ""
	if v := Compare(committed, fresh, 0.20); len(v) != 0 {
		t.Errorf("host stamps must not gate, got %v", v)
	}

	// Within tolerance: 2006 -> 2300 is under 2006*1.2+1.
	fresh = fixture()
	fresh.Entry("GatherSquare/n=512").AllocsPerOp = 2300
	if v := Compare(committed, fresh, 0.20); len(v) != 0 {
		t.Errorf("in-tolerance drift must pass, got %v", v)
	}

	// Regression: well past 20%.
	fresh = fixture()
	fresh.Entry("GatherSquare/n=512").AllocsPerOp = 4000
	v := Compare(committed, fresh, 0.20)
	if len(v) != 1 || !strings.Contains(v[0], "regression") {
		t.Errorf("regression not flagged: %v", v)
	}

	// Zero-alloc entries get one alloc of slack, not a free pass.
	committed = fixture()
	committed.Entry("StepSquare/n=512").AllocsPerOp = 0
	fresh = fixture()
	fresh.Entry("StepSquare/n=512").AllocsPerOp = 0.8
	if v := Compare(committed, fresh, 0.20); len(v) != 0 {
		t.Errorf("sub-slack drift on zero-alloc entry must pass, got %v", v)
	}
	fresh.Entry("StepSquare/n=512").AllocsPerOp = 5
	if v := Compare(committed, fresh, 0.20); len(v) != 1 {
		t.Errorf("zero-alloc regression not flagged: %v", v)
	}

	// Bytes/op: relative tolerance plus the absolute slack.
	committed = fixture()
	fresh = fixture()
	fresh.Entry("GatherSquare/n=512").BytesPerOp = 870176 * 1.15
	if v := Compare(committed, fresh, 0.20); len(v) != 0 {
		t.Errorf("in-tolerance bytes/op drift must pass, got %v", v)
	}
	fresh.Entry("GatherSquare/n=512").BytesPerOp = 870176 * 60
	v = Compare(committed, fresh, 0.20)
	if len(v) != 1 || !strings.Contains(v[0], "bytes/op regression") {
		t.Errorf("bytes/op regression not flagged: %v", v)
	}

	// Near-zero entries get BytesSlack of absolute slack, not a free pass.
	fresh = fixture()
	fresh.Entry("StepSquare/n=512").BytesPerOp = BytesSlack - 1
	if v := Compare(committed, fresh, 0.20); len(v) != 0 {
		t.Errorf("sub-slack bytes/op drift on a zero-byte entry must pass, got %v", v)
	}
	fresh.Entry("StepSquare/n=512").BytesPerOp = 3 * BytesSlack
	if v := Compare(committed, fresh, 0.20); len(v) != 1 || !strings.Contains(v[0], "bytes/op") {
		t.Errorf("zero-byte entry regression not flagged: %v", v)
	}

	// Staleness, both directions.
	committed = fixture()
	fresh = fixture()
	fresh.Entries = fresh.Entries[:1]
	v = Compare(committed, fresh, 0.20)
	if len(v) != 1 || !strings.Contains(v[0], "no longer measured") {
		t.Errorf("missing measurement not flagged as stale: %v", v)
	}
	fresh = fixture()
	fresh.Entries = append(fresh.Entries, Entry{Name: "NewBench", AllocsPerOp: 1})
	v = Compare(committed, fresh, 0.20)
	if len(v) != 1 || !strings.Contains(v[0], "not recorded") {
		t.Errorf("unrecorded benchmark not flagged as stale: %v", v)
	}
}
