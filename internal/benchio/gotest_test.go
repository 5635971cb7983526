package benchio

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// transcript is `go test -run '^$' -bench . -benchmem` over three packages
// at GOMAXPROCS 2, trimmed: package headers, a package without tests,
// custom metrics printed before B/op, a benchmark outside the trajectory,
// and the PASS/ok trailers.
const transcript = `goos: linux
goarch: amd64
pkg: gridgather/internal/chain
cpu: Intel(R) Xeon(R) Processor
BenchmarkTrajectory/ResolveMergesSeeded/n=4096-2         	   59832	     20056 ns/op	      24 B/op	       0 allocs/op
PASS
ok  	gridgather/internal/chain	1.521s
?   	gridgather/cmd/chaingen	[no test files]
goos: linux
goarch: amd64
pkg: gridgather/internal/core
cpu: Intel(R) Xeon(R) Processor
BenchmarkTrajectory/KernelDecide/n=4096/round=2000-2     	   87192	     16053 ns/op	       232.0 runs	       0 B/op	       0 allocs/op
BenchmarkTrajectory/StepSquare/n=512-2                   	   21346	     56402.7 ns/op	      38 B/op	       1 allocs/op
PASS
ok  	gridgather/internal/core	4.034s
goos: linux
goarch: amd64
pkg: gridgather/internal/sched
cpu: Intel(R) Xeon(R) Processor
BenchmarkBoundedAdversaryActivate-2                      	  960314	      1247 ns/op	       0 B/op	       0 allocs/op
BenchmarkTrajectory/ParallelHarness/quickE1-2            	     483	   2074368 ns/op	     11569.6 tasks_per_sec	  945557 B/op	    3551 allocs/op
PASS
ok  	gridgather/internal/sched	2.811s
`

func TestParseGoTest(t *testing.T) {
	rep, err := ParseGoTest(strings.NewReader(transcript))
	if err != nil {
		t.Fatal(err)
	}
	want := []Entry{
		{Name: "ResolveMergesSeeded/n=4096", Iterations: 59832, NsPerOp: 20056, BytesPerOp: 24},
		{Name: "KernelDecide/n=4096/round=2000", Iterations: 87192, NsPerOp: 16053,
			Metrics: map[string]float64{"runs": 232}},
		{Name: "StepSquare/n=512", Iterations: 21346, NsPerOp: 56403, BytesPerOp: 38, AllocsPerOp: 1},
		{Name: "ParallelHarness/quickE1", Iterations: 483, NsPerOp: 2074368, BytesPerOp: 945557,
			AllocsPerOp: 3551, Metrics: map[string]float64{"tasks_per_sec": 11570}},
	}
	if !reflect.DeepEqual(rep.Entries, want) {
		t.Errorf("entries:\n got %+v\nwant %+v", rep.Entries, want)
	}
	if rep.Schema != Schema || rep.GOMAXPROCS != 2 {
		t.Errorf("schema %d, GOMAXPROCS %d; want %d, 2", rep.Schema, rep.GOMAXPROCS, Schema)
	}

	// go test appends no suffix at GOMAXPROCS 1.
	rep, err = ParseGoTest(strings.NewReader(
		"BenchmarkTrajectory/KernelMergeScan/n=4096/round=2000 \t 100\t 7806 ns/op\t 0 B/op\t 0 allocs/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.GOMAXPROCS != 1 || rep.Entries[0].Name != "KernelMergeScan/n=4096/round=2000" {
		t.Errorf("unsuffixed line read as %q at GOMAXPROCS %d", rep.Entries[0].Name, rep.GOMAXPROCS)
	}
}

// TestParseGoTestRefuses pins every output the parser must refuse rather
// than turn into a partial report the gate would wave through.
func TestParseGoTestRefuses(t *testing.T) {
	ok := "BenchmarkTrajectory/StepSquare/n=512-2 \t 21346\t 56403 ns/op\t 38 B/op\t 1 allocs/op\n"
	for _, c := range []struct{ name, input, want string }{
		{"package FAIL", ok + "FAIL\tgridgather/internal/sim\t0.1s\n", "failure"},
		{"bare FAIL", ok + "FAIL\n", "failure"},
		{"sub-benchmark FAIL", "    --- FAIL: BenchmarkTrajectory/Theorem1GatherSquare/n=512\n" + ok, "failure"},
		{"FAIL after the name", "BenchmarkTrajectory/Theorem1GatherSquare/n=512-2 \t--- FAIL: BenchmarkTrajectory/Theorem1GatherSquare/n=512-2\n", "failure"},
		{"no -benchmem", "BenchmarkTrajectory/StepSquare/n=512-2 \t 21346\t 56403 ns/op\n", "-benchmem"},
		{"no allocs/op", "BenchmarkTrajectory/StepSquare/n=512-2 \t 21346\t 56403 ns/op\t 38 B/op\n", "-benchmem"},
		{"repeated name (-count 2)", ok + ok, "twice"},
		{"repeated name (-cpu 1,2)", strings.Replace(ok, "-2 ", " ", 1) + ok, "twice"},
		{"malformed", "BenchmarkTrajectory/StepSquare/n=512-2 \t 21346\t 56403 ns/op\t 38\n", "malformed"},
		{"no trajectory line", strings.Replace(transcript, "BenchmarkTrajectory/", "BenchmarkOther/", -1), "no BenchmarkTrajectory line"},
		{"empty input", "", "no BenchmarkTrajectory line"},
	} {
		rep, err := ParseGoTest(strings.NewReader(c.input))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, %v; want an error containing %q", c.name, rep, err, c.want)
		}
	}
}

// goTestLines renders a report's entries the way `go test -bench
// -benchmem` prints them at GOMAXPROCS procs: custom metrics, sorted,
// between ns/op and B/op.
func goTestLines(r *Report, procs int) string {
	var b strings.Builder
	for _, e := range r.Entries {
		fmt.Fprintf(&b, "%s%s-%d \t%8d\t%10.0f ns/op", trajectoryPrefix, e.Name, procs, e.Iterations, e.NsPerOp)
		units := make([]string, 0, len(e.Metrics))
		for u := range e.Metrics {
			units = append(units, u)
		}
		sort.Strings(units)
		for _, u := range units {
			fmt.Fprintf(&b, "\t%12.1f %s", e.Metrics[u], u)
		}
		fmt.Fprintf(&b, "\t%8.0f B/op\t%8.0f allocs/op\n", e.BytesPerOp, e.AllocsPerOp)
	}
	return b.String()
}

// TestCommittedTrajectoryRoundTrips renders the committed trajectory's own
// numbers as go test lines: they parse back to the same entries and pass
// the gate against the file, and the gate fails on each way the
// measurement can go wrong.
func TestCommittedTrajectoryRoundTrips(t *testing.T) {
	committed, err := Read("../../BENCH_PR20.json")
	if err != nil {
		t.Fatal(err)
	}
	lines := goTestLines(committed, committed.GOMAXPROCS)
	fresh, err := ParseGoTest(strings.NewReader(lines))
	if err != nil {
		t.Fatal(err)
	}
	fresh.Sort()
	if !reflect.DeepEqual(fresh.Entries, committed.Entries) || fresh.GOMAXPROCS != committed.GOMAXPROCS {
		t.Errorf("round trip changed the entries:\n got %+v\nwant %+v", fresh.Entries, committed.Entries)
	}
	if v := Compare(committed, fresh, 0.20); len(v) != 0 {
		t.Errorf("the committed numbers fail the gate against themselves: %v", v)
	}

	gate := func(input string) []string {
		t.Helper()
		fresh, err := ParseGoTest(strings.NewReader(input))
		if err != nil {
			t.Fatal(err)
		}
		return Compare(committed, fresh, 0.20)
	}
	first := strings.SplitAfterN(lines, "\n", 2)
	for _, c := range []struct{ name, input, want string }{
		{"recorded, not measured", first[1], "no longer measured"},
		{"measured, not recorded", lines + "BenchmarkTrajectory/NewBench-2 \t 1\t 1 ns/op\t 0 B/op\t 0 allocs/op\n", "not recorded"},
		{"allocs/op over the limit", strings.Replace(lines, " 0 allocs/op", " 2 allocs/op", 1), "allocs/op regression"},
		{"bytes/op over the limit", strings.Replace(lines, " 0 B/op", " 4097 B/op", 1), "bytes/op regression"},
	} {
		if v := gate(c.input); len(v) != 1 || !strings.Contains(v[0], c.want) {
			t.Errorf("%s: violations %q, want one containing %q", c.name, v, c.want)
		}
	}
}
