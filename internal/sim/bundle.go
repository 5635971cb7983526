package sim

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"

	"gridgather/internal/chain"
	"gridgather/internal/core"
	"gridgather/internal/sched"
)

// BundleVersion is the diagnostic-bundle format version this build writes
// and reads.
const BundleVersion = 1

// Bundle codec errors, mirroring the checkpoint ones.
var (
	// ErrBundleCorrupt marks a bundle that fails the envelope, checksum or
	// content validation.
	ErrBundleCorrupt = errors.New("sim: corrupt diagnostic bundle")
	// ErrBundleVersion marks a bundle written by a different format
	// version.
	ErrBundleVersion = errors.New("sim: unsupported diagnostic bundle version")
)

// Bundle is a replayable diagnostic record of one failed run: everything a
// later process needs to reproduce the failure deterministically — the
// start configuration, the full engine parameterisation, the failing round
// and rendered error, and (when one was taken before the failure) an
// encoded checkpoint to resume from instead of replaying from round zero.
// The fuzz harness writes one per failing campaign cell and replays it via
// `gatherfuzz -resume` (DESIGN.md §11).
type Bundle struct {
	// Label is free-form provenance: the campaign name, the grid cell, the
	// fixture — whatever identifies where the failure came from.
	Label string `json:"label,omitempty"`
	// Seed is the deterministic task seed the scenario was generated from
	// (parallel.TaskSeed), when one applies.
	Seed int64 `json:"seed,omitempty"`
	// Scenario is the start configuration. Its JSON form is the chain
	// codec's (positions only), which re-validates the closed-chain
	// invariants on decode.
	Scenario *chain.Chain `json:"scenario"`
	// Config, Strategy, Sched and MaxRounds reproduce the failing engine
	// exactly. Bundles written while the engine had a worker count also
	// carry a "workers" key, which decoding ignores.
	Config    core.Config       `json:"config"`
	Strategy  core.StrategyName `json:"strategy"`
	Sched     sched.Config      `json:"sched"`
	MaxRounds int               `json:"maxRounds,omitempty"`
	// Round is the round the failure surfaced in, -1 when unknown.
	Round int `json:"round"`
	// Err is the rendered failure message.
	Err string `json:"err"`
	// Checkpoint, when non-empty, is an encoded Checkpoint taken at the
	// last safe round boundary before the failure; DecodeCheckpoint +
	// Restore resume from it directly.
	Checkpoint []byte `json:"checkpoint,omitempty"`
}

// Encode seals the bundle into the same CRC-protected envelope checkpoints
// use, under its own artefact tag.
func (b *Bundle) Encode() ([]byte, error) {
	return sealEnvelope(artifactBundle, BundleVersion, b)
}

// DecodeBundle opens an encoded bundle, verifying envelope, version,
// checksum and the scenario chain's invariants.
func DecodeBundle(data []byte) (*Bundle, error) {
	payload, err := openEnvelope(data, artifactBundle, BundleVersion, ErrBundleCorrupt, ErrBundleVersion)
	if err != nil {
		return nil, err
	}
	b := new(Bundle)
	if err := json.Unmarshal(payload, b); err != nil {
		return nil, fmt.Errorf("%w: payload: %v", ErrBundleCorrupt, err)
	}
	if b.Scenario == nil {
		return nil, fmt.Errorf("%w: no scenario", ErrBundleCorrupt)
	}
	return b, nil
}

// WriteBundle encodes the bundle to path, via a temporary file and rename
// so a crash mid-write never leaves a half bundle under the final name.
func WriteBundle(path string, b *Bundle) error {
	data, err := b.Encode()
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// ReadBundle reads and decodes the bundle at path.
func ReadBundle(path string) (*Bundle, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return DecodeBundle(data)
}
