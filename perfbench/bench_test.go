package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"slices"
	"strings"
	"testing"
)

// firstPass runs one pass of a workload in-process and returns its
// counters, digests and result line.
func firstPass(t *testing.T, workload string, trace bool) (map[string]int64, map[string]string, result) {
	t.Helper()
	args := []string{"--workload", workload, "--seconds", "0", "--trace", "0", "--out-dir", t.TempDir()}
	if trace {
		args[5] = "1"
	}
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("%s: exit %d: %s", workload, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: result line: %v", workload, err)
	}
	var line struct {
		Counters []counter         `json:"counters"`
		Digests  map[string]string `json:"digests"`
	}
	for _, l := range lines {
		if strings.HasPrefix(l, `{"counters"`) {
			if err := json.Unmarshal([]byte(l), &line); err != nil {
				t.Fatalf("%s: counters line: %v", workload, err)
			}
		}
	}
	counts := map[string]int64{}
	for _, c := range line.Counters {
		counts[c.Name] = c.Value
	}
	if len(counts) == 0 || len(line.Digests) == 0 {
		t.Fatalf("%s: no counters or digests in output:\n%s", workload, stdout.String())
	}
	return counts, line.Digests, res
}

// TestCountersRepeat holds the printed counters to exactness: two untraced
// runs at one seed and a traced one agree on every counter and output
// digest. Allocation counts are the exception, held to 1%: Go's maps grow
// by splitting tables chosen by a per-process random hash seed, and fmt's
// printer pool refills after a GC, so the count of a run moves by a few
// in ten thousand between processes.
func TestCountersRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload three times")
	}
	for _, w := range []string{"gather", "campaign", "serve"} {
		t.Run(w, func(t *testing.T) {
			base, baseDigests, res := firstPass(t, w, false)
			if !res.Correct {
				t.Fatalf("untraced run not correct: %+v", res)
			}
			for _, trace := range []bool{false, true} {
				got, digests, res := firstPass(t, w, trace)
				if !res.Correct {
					t.Fatalf("trace=%v run not correct: %+v", trace, res)
				}
				for name, want := range base {
					g, ok := got[name]
					switch {
					case !ok:
						t.Errorf("trace=%v: counter %s missing", trace, name)
					case name == "allocs":
						if math.Abs(float64(g-want)) > 0.01*float64(want) {
							t.Errorf("trace=%v: allocs %d, want %d within 1%%", trace, g, want)
						}
					case g != want:
						t.Errorf("trace=%v: counter %s = %d, want %d", trace, name, g, want)
					}
				}
				for k, d := range baseDigests {
					if digests[k] != d {
						t.Errorf("trace=%v: digest %s = %s, want %s", trace, k, digests[k], d)
					}
				}
			}
		})
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json names exactly the workloads
// and metrics this program reports.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	}
	var b struct {
		Workloads []def `json:"workloads"`
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	slices.Sort(names)
	if want := []string{"campaign", "gather", "serve"}; !slices.Equal(names, want) {
		t.Errorf("workloads %v, want %v", names, want)
	}
	check := func(kind string, got []def, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, want %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d] = %s (%s), want %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
	for _, d := range b.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
	}
}

// TestQuartiles pins the quartile rule to Python's:
// statistics.quantiles([3, 1, 4, 1, 5, 9, 2, 6, 5, 3], n=4) is
// [1.75, 3.5, 5.25].
func TestQuartiles(t *testing.T) {
	q1, med, q3 := pyQuartiles([]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3})
	if q1 != 1.75 || med != 3.5 || q3 != 5.25 {
		t.Errorf("quartiles %g %g %g, want 1.75 3.5 5.25", q1, med, q3)
	}
}
