package benchio

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// trajectoryPrefix starts every trajectory result line: each measured
// package runs its pinned entries as sub-benchmarks of one
// BenchmarkTrajectory, and an entry's name is its sub-benchmark path.
const trajectoryPrefix = "BenchmarkTrajectory/"

// ParseGoTest reads the output of `go test -bench -benchmem` over one or
// more packages and returns the trajectory measured there: one entry per
// BenchmarkTrajectory line, named without the "BenchmarkTrajectory/"
// prefix and the "-N" suffix `go test` appends when GOMAXPROCS is N > 1.
// The report's GOMAXPROCS is that N (1 when absent); NumCPU, GoVersion and
// Label are left to the caller. ns/op and custom metrics are rounded to
// whole units: sub-unit digits are noise and would churn the committed
// JSON. Every other line is skipped.
//
// The output is refused when it reports a failure (a FAIL or --- FAIL
// line), when a trajectory line lacks the B/op and allocs/op columns of
// -benchmem, when a name is measured twice (how -count samples aggregate
// is not defined yet), and when it holds no trajectory line at all.
func ParseGoTest(r io.Reader) (*Report, error) {
	rep := &Report{Schema: Schema}
	sc := bufio.NewScanner(r)
	for line := 1; sc.Scan(); line++ {
		text := sc.Text()
		if strings.HasPrefix(strings.TrimSpace(text), "FAIL") || strings.Contains(text, "--- FAIL") {
			return nil, fmt.Errorf("benchio: line %d reports a failure: %s", line, text)
		}
		if !strings.HasPrefix(text, trajectoryPrefix) {
			continue
		}
		e, procs, err := parseBenchLine(text)
		if err != nil {
			return nil, fmt.Errorf("benchio: line %d: %w", line, err)
		}
		if rep.Entry(e.Name) != nil {
			// Also what a -cpu list produces: the suffix is stripped.
			return nil, fmt.Errorf("benchio: line %d: %q is measured twice", line, e.Name)
		}
		rep.GOMAXPROCS = procs
		rep.Entries = append(rep.Entries, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("benchio: reading go test output: %w", err)
	}
	if len(rep.Entries) == 0 {
		return nil, errors.New("benchio: no BenchmarkTrajectory line in the input")
	}
	return rep, nil
}

// parseBenchLine reads one trajectory result line: the name, the
// iteration count, then value-unit pairs (ns/op, any custom metrics,
// B/op, allocs/op). It returns the entry and the GOMAXPROCS suffix.
func parseBenchLine(text string) (Entry, int, error) {
	f := strings.Fields(text)
	if len(f) < 2 || len(f)%2 != 0 {
		return Entry{}, 0, fmt.Errorf("malformed benchmark line %q", text)
	}
	name, procs := strings.TrimPrefix(f[0], trajectoryPrefix), 1
	if i := strings.LastIndexByte(name, '-'); i >= 0 {
		if p, err := strconv.Atoi(name[i+1:]); err == nil && p > 0 {
			name, procs = name[:i], p
		}
	}
	n, err := strconv.Atoi(f[1])
	if err != nil {
		return Entry{}, 0, fmt.Errorf("malformed benchmark line %q", text)
	}
	e := Entry{Name: name, Iterations: n}
	var haveBytes, haveAllocs bool
	for i := 2; i < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return Entry{}, 0, fmt.Errorf("malformed benchmark line %q", text)
		}
		switch unit := f[i+1]; unit {
		case "ns/op":
			e.NsPerOp = math.Round(v)
		case "B/op":
			e.BytesPerOp, haveBytes = v, true
		case "allocs/op":
			e.AllocsPerOp, haveAllocs = v, true
		default:
			if e.Metrics == nil {
				e.Metrics = make(map[string]float64)
			}
			e.Metrics[unit] = math.Round(v)
		}
	}
	if !haveBytes || !haveAllocs {
		return Entry{}, 0, fmt.Errorf("%q has no B/op and allocs/op columns (run go test with -benchmem)", name)
	}
	return e, procs, nil
}
