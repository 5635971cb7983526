package main

import (
	"bytes"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"gridgather/internal/core"
	"gridgather/internal/generate"
	"gridgather/internal/oracle"
	"gridgather/internal/sim"
)

// TestResumeBundleReplaysCleanScenario pins the -resume happy path: a
// bundle holding a healthy scenario replays through the conformance check
// and exits 0 (the recorded divergence — here none — does not reproduce).
// It runs on a bundle as it was written while the engine had a worker
// count, with a "workers" key beside the config and Config.Workers set,
// and on one written today.
func TestResumeBundleReplaysCleanScenario(t *testing.T) {
	ch, err := generate.Spiral(4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Workers = 4
	b := &sim.Bundle{
		Label:    "scenario 7 (test)",
		Scenario: ch,
		Config:   cfg,
		Strategy: core.StrategyPaper,
		Round:    -1,
	}
	dir := t.TempDir()
	current := filepath.Join(dir, "clean.bundle")
	if err := sim.WriteBundle(current, b); err != nil {
		t.Fatal(err)
	}
	legacy := filepath.Join(dir, "legacy.bundle")
	if err := os.WriteFile(legacy, legacyBundle(t, b, 4), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{current, legacy} {
		if code := resumeBundle(path); code != 0 {
			t.Fatalf("resumeBundle(%s) = %d, want 0", path, code)
		}
	}
}

// legacyBundle encodes b the way a build with an engine worker count did:
// the payload carries "workers" between "maxRounds" and "round", sealed in
// the same checksummed envelope.
func legacyBundle(t *testing.T, b *sim.Bundle, workers int) []byte {
	t.Helper()
	raw, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	old := bytes.Replace(raw, []byte(`,"round":`), []byte(`,"workers":`+strconv.Itoa(workers)+`,"round":`), 1)
	if bytes.Equal(old, raw) {
		t.Fatal("bundle payload has no round field to anchor the workers key")
	}
	env, err := json.Marshal(struct {
		Artifact string          `json:"artifact"`
		Version  int             `json:"version"`
		Checksum uint32          `json:"checksum"`
		Payload  json.RawMessage `json:"payload"`
	}{"gridgather-bundle", sim.BundleVersion, crc32.ChecksumIEEE(old), old})
	if err != nil {
		t.Fatal(err)
	}
	return env
}

// TestResumeBundleRejectsBadFiles pins the -resume error path: a missing
// file, arbitrary garbage, and a truncated real bundle must all exit with
// the distinct read-failure status (2), never be replayed as if valid.
func TestResumeBundleRejectsBadFiles(t *testing.T) {
	dir := t.TempDir()

	if code := resumeBundle(filepath.Join(dir, "does-not-exist.bundle")); code != 2 {
		t.Errorf("missing file: resumeBundle = %d, want 2", code)
	}

	garbage := filepath.Join(dir, "garbage.bundle")
	if err := os.WriteFile(garbage, []byte("not a bundle at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := resumeBundle(garbage); code != 2 {
		t.Errorf("garbage file: resumeBundle = %d, want 2", code)
	}

	ch, err := generate.Rectangle(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	good := &sim.Bundle{Label: "trunc", Scenario: ch, Config: core.DefaultConfig(), Strategy: core.StrategyPaper, Round: -1}
	data, err := good.Encode()
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{0, 1, len(data) / 2, len(data) - 1} {
		trunc := filepath.Join(dir, "trunc.bundle")
		if err := os.WriteFile(trunc, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if code := resumeBundle(trunc); code != 2 {
			t.Errorf("bundle truncated to %d bytes: resumeBundle = %d, want 2", cut, code)
		}
	}
}

// armed returns sp with oracle.FaultSkipMergeResolution armed in the
// naive model of the listed cells, from the given round. The fault breaks
// the model, not the engine, so an armed cell fails its check while its
// bundle, which records no fault, replays clean.
func armed(sp space, fromRound map[int]int) space {
	base := sp.cell
	sp.cell = func(i int) (cell, error) {
		c, err := base(i)
		if round, ok := fromRound[i]; ok {
			c.opts.Fault, c.opts.FaultRound = oracle.FaultSkipMergeResolution, round
		}
		return c, err
	}
	return sp
}

// checkFailure runs sp at 4 workers with a bundle path and checks the
// failure path for cell want: exit 1, a report that names the cell, its
// reproduce command and a shrunk witness, and a bundle that records the
// cell's label, seed and chain.
func checkFailure(t *testing.T, sp space, want cell, path string) {
	t.Helper()
	var out bytes.Buffer
	if code := run(&out, sp, 4, 0, true, path); code != 1 {
		t.Fatalf("run = %d, want 1\n%s", code, out.String())
	}
	report := out.String()
	label := want.name + " (" + want.desc + ")"
	if !strings.HasPrefix(report, label+": ") {
		t.Fatalf("report does not start with %q:\n%s", label, report)
	}
	for _, line := range []string{"\nreproduce: " + want.repro + "\n", "\nshrunk witness:\n"} {
		if !strings.Contains(report, line) {
			t.Fatalf("report lacks %q:\n%s", line, report)
		}
	}
	b, err := sim.ReadBundle(path)
	if err != nil {
		t.Fatal(err)
	}
	if b.Label != label || b.Seed != want.seed || b.Sched != want.opts.Sched || b.Strategy != want.opts.Strategy {
		t.Fatalf("bundle records %q seed %d %s %s, want %q seed %d %s %s",
			b.Label, b.Seed, b.Sched, b.Strategy, label, want.seed, want.opts.Sched, want.opts.Strategy)
	}
	if !reflect.DeepEqual(b.Scenario.Positions(), want.ch.Positions()) {
		t.Fatal("bundle records a different chain")
	}
}

// TestCampaignBundlesLowestFailure arms a model fault in two cells of a
// flag-built campaign. Every run at 4 workers must exit 1 and report,
// bundle and shrink the lower-indexed cell. The lower cell is held until
// the higher one has been built, and its fault arms ten rounds later on a
// larger chain, so the higher cell fails first: a runner that kept the
// first failure it saw would bundle the wrong one.
func TestCampaignBundlesLowestFailure(t *testing.T) {
	base, err := flagSpace(40, 1, 8, 96, "fsync", "paper")
	if err != nil {
		t.Fatal(err)
	}
	const lo, hi = 33, 35
	sp := armed(base, map[int]int{lo: 10, hi: 0})
	want, err := base.cell(lo)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for rep := 0; rep < 5; rep++ {
		hiBuilt := make(chan struct{})
		var once sync.Once
		gated := sp
		gated.cell = func(i int) (cell, error) {
			switch i {
			case lo:
				<-hiBuilt
			case hi:
				defer once.Do(func() { close(hiBuilt) })
			}
			return sp.cell(i)
		}
		checkFailure(t, gated, want, filepath.Join(dir, "run"+strconv.Itoa(rep)+".bundle"))
	}
}

// TestSpecCampaignBundlesFailure: a spec campaign fails like a flag-built
// one. One armed item is reported with its -spec reproduce command and
// shrunk, its bundle is written, and -resume reads that bundle and
// replays it clean (the fault lives in the model, not in the bundle).
func TestSpecCampaignBundlesFailure(t *testing.T) {
	base, err := specSpace("quick", 8, map[string]bool{"scenarios": true})
	if err != nil {
		t.Fatal(err)
	}
	const item = 5
	want, err := base.cell(item)
	if err != nil {
		t.Fatal(err)
	}
	if want.repro != "gatherfuzz -spec quick -scenarios 8 -only 5" {
		t.Fatalf("reproduce command %q", want.repro)
	}
	path := filepath.Join(t.TempDir(), "spec.bundle")
	checkFailure(t, armed(base, map[int]int{item: 0}), want, path)
	if code := resumeBundle(path); code != 0 {
		t.Fatalf("resumeBundle = %d, want 0", code)
	}
}

// TestOnlyPrintsTheCell pins -only's output for both spaces: the cell's
// name and axes, then the verdict.
func TestOnlyPrintsTheCell(t *testing.T) {
	flags, err := flagSpace(100_000, 1, 8, 128, "mix", "mix")
	if err != nil {
		t.Fatal(err)
	}
	stress, err := specSpace("stress", 100_000, map[string]bool{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		sp   space
		i    int
		want string
	}{
		{flags, 17, "scenario 17: family=lshape size=26 cfg=17 sched=rr:5 strategy=lintime seed=7985475341784103707 n=24\nok\n"},
		{stress, 5, "item 5: serpentine n=104 sched=rr:3 strategy=paper\nok\n"},
	} {
		var out bytes.Buffer
		if code := runOnly(&out, tc.sp, tc.i); code != 0 || out.String() != tc.want {
			t.Errorf("runOnly(%d) = %d\n%s\nwant 0\n%s", tc.i, code, out.String(), tc.want)
		}
	}
}
