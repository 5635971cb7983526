package main

import (
	"bytes"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"gridgather/internal/core"
	"gridgather/internal/generate"
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
