package experiments

import (
	"fmt"
	"strings"
	"testing"
)

// quickParams keeps the suite fast in unit tests.
func quickParams() Params {
	return Params{Seed: 7, Quick: true}
}

func TestAllExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite skipped in -short mode")
	}
	outs, err := All(quickParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 11 {
		t.Fatalf("expected 11 executable experiments, got %d", len(outs))
	}
	ids := map[string]bool{}
	for _, o := range outs {
		ids[o.ID] = true
		if o.Title == "" || len(o.Tables) == 0 {
			t.Errorf("%s: missing title or tables", o.ID)
		}
		for _, tb := range o.Tables {
			md := tb.Markdown()
			if !strings.Contains(md, "|") || len(tb.Rows) == 0 {
				t.Errorf("%s: empty table", o.ID)
			}
		}
	}
	for _, want := range []string{"E1", "E2/E3", "E4", "E8", "E9", "E10", "E11", "E12", "E13", "E-sched", "E-strat"} {
		if !ids[want] {
			t.Errorf("experiment %s missing", want)
		}
	}
}

func TestE1LinearFits(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling sweep skipped in -short mode")
	}
	o, err := E1Theorem1(Params{Seed: 3, Trials: 2, Sizes: []int{96, 192, 384}})
	if err != nil {
		t.Fatal(err)
	}
	fits := o.Tables[1]
	if len(fits.Rows) != len(scalingShapes) {
		t.Fatalf("expected one fit per shape, got %d", len(fits.Rows))
	}
	// Structured shapes scale linearly (high R²). Random families (walk,
	// polyomino) are heavily folded and gather far below the linear bound,
	// so only the Theorem 1 upper bound applies to them.
	structured := map[string]bool{"rectangle": true, "spiral": true, "comb": true, "serpentine": true}
	for _, row := range fits.Rows {
		var r2, slope float64
		if _, err := fmt.Sscanf(row[3], "%f", &r2); err != nil {
			t.Fatalf("bad R2 cell %q", row[3])
		}
		if _, err := fmt.Sscanf(row[1], "%f", &slope); err != nil {
			t.Fatalf("bad slope cell %q", row[1])
		}
		if structured[row[0]] && r2 < 0.9 {
			t.Errorf("shape %s: R2 = %v — not linear", row[0], r2)
		}
		// Theorem 1's worst-case constant is 2L + 1 = 27 rounds/robot.
		if slope > 27 {
			t.Errorf("shape %s: slope %v exceeds the theorem's bound", row[0], slope)
		}
	}
}

// TestParallelDeterminism is the harness's core contract: the rendered
// suite output is byte-identical regardless of worker count.
func TestParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("determinism sweep skipped in -short mode")
	}
	run := func(workers int) string {
		p := quickParams()
		p.Parallel = workers
		outs, err := All(p)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return Render(outs, false)
	}
	ref := run(1)
	for _, workers := range []int{2, 8} {
		if got := run(workers); got != ref {
			t.Errorf("suite output differs between -parallel 1 and -parallel %d", workers)
		}
	}
}

// TestOutcomeTasksCounted ensures every experiment reports its grid size,
// the denominator of gatherbench's throughput line.
func TestOutcomeTasksCounted(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite skipped in -short mode")
	}
	outs, err := All(quickParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range outs {
		if o.Tasks <= 0 {
			t.Errorf("%s: Tasks = %d, want > 0", o.ID, o.Tasks)
		}
	}
}

func TestE9AlwaysFindsGoodPairs(t *testing.T) {
	o, err := E9MergelessStructure(Params{Seed: 5, Trials: 3, Sizes: []int{128}})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range o.Notes {
		if strings.Contains(n, "WARNING") {
			t.Errorf("mergeless chain without good pair: %s", n)
		}
	}
}
