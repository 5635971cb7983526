// Command perfbench is the repository's benchmark. It drives the gathering
// engine, the campaign layer and the gatherd service from outside through
// their public functions, checks every output, and prints end-to-end
// metrics (untraced runs) or per-layer metrics (traced runs) as one JSON
// object on the last line of standard output. See README.md.
//
//	perfbench --workload gather --seed 1 --seconds 20 --trace 0
//	perfbench --workload serve --seed 1 --seconds 20 --repeat 10
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// defaultSeed is the seed whose outputs are pinned in pins.json.
const defaultSeed = 1

// setupReps is how many times every workload builds its set-up; setup_s
// is the median, and the last build is the one the timed phase uses.
const setupReps = 5

// spanCapacity bounds the retained spans of a traced run (32 bytes each).
const spanCapacity = 1 << 18

// config is one benchmark run's parameters.
type config struct {
	workload string
	seed     int64
	seconds  float64
	tr       *tracer // nil in untraced runs
}

// counter is a count from the first pass over a workload's inputs. It
// repeats exactly across runs at one seed and between traced and untraced
// runs, except allocation counts, which move by a few in ten thousand
// (bench_test.go holds both to that).
type counter struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// outcome is what a workload measured and checked.
type outcome struct {
	attempted, failed int
	problems          []string

	setup       []time.Duration // one per set-up repetition
	units       []time.Duration // timed-unit latencies
	robotRounds float64         // Σ InitialLen × Rounds in the timed phase
	wall        time.Duration   // timed-phase wall time
	peakHeap    uint64          // peak live heap in the timed phase, bytes
	passes      int

	digests  map[string]string // first-pass output digests by input
	counters []counter
	layer    map[string]float64 // per-layer metrics, traced runs only
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	o.problem(format, args...)
}

// problem records a failed check; the first few are printed.
func (o *outcome) problem(format string, args ...any) {
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) count(name string, v int64) {
	o.counters = append(o.counters, counter{name, v})
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics of untraced runs; BENCHMARK.json names the
// same ones.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"p90_ms", "ms"},
	{"robot_rounds_per_s", "1/s"},
	{"peak_heap_mb", "MB"},
}

// perLayer lists the metrics of traced runs, in BENCHMARK.json order. A
// workload that does not reach a layer reports 0 for its metrics.
var perLayer = []metricDef{
	{"chain.reindex_us", "us"},
	{"chain.merge_events", "count"},
	{"core.merge_scan_us", "us"},
	{"core.combine_us", "us"},
	{"core.decide_us", "us"},
	{"core.start_scan_us", "us"},
	{"core.rest_us", "us"},
	{"core.merge_patterns", "count"},
	{"core.runs_started", "count"},
	{"core.active_runs_mean", "count"},
	{"core.hops", "count"},
	{"core.hop_conflicts", "count"},
	{"core.hop_accept_ratio", "ratio"},
	{"sim.step_us", "us"},
	{"sim.step_start_round_us", "us"},
	{"sim.alloc_bytes_per_round", "B"},
	{"sim.alloc_bytes_per_start_round", "B"},
	{"sim.allocs_per_round", "count"},
	{"runtime.gc_cpu_share", "ratio"},
	{"sim.new_engine_us", "us"},
	{"sim.run_us", "us"},
	{"sim.alloc_bytes_per_item", "B"},
	{"sim.stalled_items", "count"},
	{"sim.watchdog_items", "count"},
	{"sim.dnf_robot_round_share", "ratio"},
	{"sched.activate_us", "us"},
	{"generate.named_ms", "ms"},
	{"generate.from_bytes_us", "us"},
	{"workload.expand_item_us", "us"},
	{"workload.gathered_ratio", "ratio"},
	{"serve.decode_us", "us"},
	{"serve.key_us", "us"},
	{"serve.hit_us", "us"},
	{"serve.hit_rest_us", "us"},
	{"serve.first_event_ms", "ms"},
	{"serve.miss_engine_ms", "ms"},
	{"serve.miss_overhead_ms", "ms"},
	{"serve.sse_bytes_per_miss", "B"},
	{"serve.retained_heap_mb", "MB"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.engine_rounds", "count"},
	{"trace.unit_p50_ms", "ms"},
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(config) (*outcome, error){
	"gather":   runGather,
	"campaign": runCampaign,
	"serve":    runServe,
}

// stamp identifies the host and the run in every output.
type stamp struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Traced     bool    `json:"traced"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"num_cpu"`
	GoVersion  string  `json:"go_version"`
}

func newStamp(c config) stamp {
	return stamp{
		Workload: c.workload, Seed: c.seed, Seconds: c.seconds, Traced: c.tr != nil,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(),
	}
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: gather, campaign or serve")
	seed := fs.Int64("seed", defaultSeed, "workload seed; every input is derived from it")
	seconds := fs.Float64("seconds", 10, "length of the timed phase; whole passes run until it has passed")
	trace := fs.Int("trace", 0, "1 runs traced: per-layer metrics instead of end-to-end ones")
	outDir := fs.String("out-dir", ".bench_build", "directory for the span file of traced runs")
	repeat := fs.Int("repeat", 0, "steadiness report: run the workload this many times, seeds seed, seed+1, ..., and print medians and quartiles")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads[*name]; !ok || fs.NArg() > 0 || *seconds < 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload gather|campaign|serve, --seconds >= 0 and --trace 0|1\n")
		return 2
	}
	if *repeat > 0 {
		return steadiness(*repeat, *name, *seed, *seconds, *trace, *outDir, stdout, stderr)
	}
	cfg := config{workload: *name, seed: *seed, seconds: *seconds}
	if *trace == 1 {
		cfg.tr = newTracer(spanCapacity)
	}
	st := newStamp(cfg)
	line, _ := json.Marshal(map[string]stamp{"stamp": st})
	fmt.Fprintf(stdout, "%s\n", line)

	out, err := workloads[*name](cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	res := summarize(cfg, out)
	line, _ = json.Marshal(map[string]any{"counters": out.counters, "digests": out.digests})
	fmt.Fprintf(stdout, "%s\n", line)
	fmt.Fprintf(stdout, "setup: %d repetitions, seconds %v\n", len(out.setup), secondsOf(out.setup))
	fmt.Fprintf(stdout, "samples: %d timed units in %d passes over %.3f s; failed %d of %d attempted\n",
		len(out.units), out.passes, out.wall.Seconds(), out.failed, out.attempted)
	for _, p := range out.problems {
		fmt.Fprintf(stdout, "check failed: %s\n", p)
	}
	if cfg.tr != nil {
		cfg.tr.writeSummary(stdout)
		path := filepath.Join(*outDir, fmt.Sprintf("perfbench-trace-%s-seed%d.jsonl", *name, *seed))
		if err := writeTraceFile(path, cfg.tr, st); err != nil {
			fmt.Fprintf(stderr, "perfbench: writing spans: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "trace: spans written to %s\n", path)
	}
	line, _ = json.Marshal(res)
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

func secondsOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func writeTraceFile(path string, tr *tracer, st stamp) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.writeFile(f, st); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// summarize turns an outcome into the result line: end-to-end metrics for
// untraced runs, per-layer metrics for traced ones.
func summarize(c config, o *outcome) result {
	res := result{
		Correct:   o.failed == 0 && len(o.problems) == 0 && o.attempted > 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]metric{},
	}
	ms := durationsMS(o.units)
	if c.tr == nil {
		values := map[string]float64{
			"setup_s":            medianDuration(o.setup).Seconds(),
			"p50_ms":             quantile(ms, 0.5),
			"p90_ms":             quantile(ms, 0.9),
			"robot_rounds_per_s": o.robotRounds / o.wall.Seconds(),
			"peak_heap_mb":       float64(o.peakHeap) / 1e6,
		}
		for _, d := range endToEnd {
			res.set(d, values[d.name])
		}
		// p90 needs at least ten samples beyond it.
		if len(ms)/10 < 10 {
			res.Correct = false
		}
		return res
	}
	o.layer["trace.unit_p50_ms"] = quantile(ms, 0.5)
	for _, d := range perLayer {
		res.set(d, o.layer[d.name])
	}
	return res
}

// set records a metric. A value JSON cannot carry — a quantile of no
// samples, a ratio of zeros — is reported as 0 and makes the run
// incorrect.
func (r *result) set(d metricDef, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
		r.Correct = false
	}
	r.Metrics[d.name] = metric{v, d.unit}
}

// timedPhase reports whether another pass should start: the first pass
// always runs, later ones until the run length has passed.
func timedPhase(c config, start time.Time, passesDone int) bool {
	return passesDone == 0 || time.Since(start).Seconds() < c.seconds
}

// steadiness runs the workload n times as child processes, one seed each,
// and prints every metric's median and quartiles (Python's
// statistics.quantiles rule) with the interquartile spread as a share of
// the median — the figures the bounds in BENCHMARK.json are set from.
func steadiness(n int, name string, seed int64, seconds float64, trace int, outDir string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	values := map[string][]float64{}
	units := map[string]string{}
	var order []string
	for i := 0; i < n; i++ {
		s := seed + int64(i)
		res, err := runChild(exe, name, s, seconds, trace, outDir)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: seed %d: %v\n", s, err)
			return 1
		}
		if !res.Correct {
			fmt.Fprintf(stderr, "perfbench: seed %d: run reported correct=false\n", s)
			return 1
		}
		var parts []string
		for _, d := range append(endToEnd, perLayer...) {
			m, ok := res.Metrics[d.name]
			if !ok {
				continue
			}
			if _, seen := units[d.name]; !seen {
				order = append(order, d.name)
				units[d.name] = m.Unit
			}
			values[d.name] = append(values[d.name], m.Value)
			if trace == 0 {
				parts = append(parts, fmt.Sprintf("%s=%.6g", d.name, m.Value))
			}
		}
		fmt.Fprintf(stdout, "run %d seed %d: %s\n", i+1, s, strings.Join(parts, " "))
	}
	fmt.Fprintf(stdout, "steadiness: workload %s, %d runs of %g s, trace %d, GOMAXPROCS %d, NumCPU %d, %s\n",
		name, n, seconds, trace, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())
	fmt.Fprintf(stdout, "%-34s %-6s %14s %14s %14s %9s\n", "metric", "unit", "q1", "median", "q3", "iqr/med")
	for _, m := range order {
		q1, med, q3 := pyQuartiles(values[m])
		spread := 0.0
		if med != 0 {
			spread = (q3 - q1) / med
		}
		fmt.Fprintf(stdout, "%-34s %-6s %14.6g %14.6g %14.6g %9.4f\n", m, units[m], q1, med, q3, spread)
	}
	return 0
}

// runChild runs one benchmark process and parses its result line.
func runChild(exe, name string, seed int64, seconds float64, trace int, outDir string) (result, error) {
	var res result
	out, err := exec.Command(exe, "--workload", name, "--seed", fmt.Sprint(seed),
		"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(trace), "--out-dir", outDir).Output()
	if err != nil {
		return res, err
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return res, fmt.Errorf("parsing result line: %w", err)
	}
	return res, nil
}
