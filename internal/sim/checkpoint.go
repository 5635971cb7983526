package sim

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"

	"gridgather/internal/chain"
	"gridgather/internal/core"
	"gridgather/internal/sched"
)

// CheckpointVersion is the checkpoint format version this build writes and
// reads. Decoding any other version fails with ErrCheckpointVersion —
// checkpoints are short-lived resume artefacts, not an archival format, so
// there is no cross-version migration.
const CheckpointVersion = 1

// Checkpoint codec errors. Both carry enough context in the wrapped message
// to tell a truncated file from a flipped byte from a version skew.
var (
	// ErrCheckpointCorrupt marks a checkpoint that fails any integrity
	// layer: the JSON envelope, the CRC over the payload, or the semantic
	// validation Restore performs (chain ring walk, run registry, scheduler
	// replay length).
	ErrCheckpointCorrupt = errors.New("sim: corrupt checkpoint")
	// ErrCheckpointVersion marks a checkpoint written by a different format
	// version.
	ErrCheckpointVersion = errors.New("sim: unsupported checkpoint version")
)

// Checkpoint is the complete resumable state of an Engine at a round
// boundary: run Restore on it and the resumed engine finishes with the
// byte-identical Result an uninterrupted run would have produced
// (DESIGN.md §11). Engine.Checkpoint captures one; Encode and
// DecodeCheckpoint move it through the CRC-sealed envelope shared with
// Bundle.
type Checkpoint struct {
	// The semantic run parameters. Runtime-only knobs — Observer,
	// CheckInvariants, wall-clock limits — are deliberately absent: they
	// belong to the resuming process and are supplied to Restore via its
	// Options. The retired Options.Workers never reaches Config, so the
	// same run checkpoints to the same bytes whatever it was set to.
	Config         core.Config       `json:"config"`
	Strategy       core.StrategyName `json:"strategy"`
	Sched          sched.Config      `json:"sched"`
	MaxRounds      int               `json:"maxRounds,omitempty"`
	WatchdogFactor int               `json:"watchdogFactor"`
	WatchdogSlack  int               `json:"watchdogSlack"`

	// Chain and Strat are the simulated state proper: the SoA chain and
	// the strategy's cross-round state (run registry, round counter, ID
	// wells).
	Chain chain.Snapshot        `json:"chain"`
	Strat core.StrategySnapshot `json:"strat"`

	// SchedLens lists, for every executed non-FSYNC round, the chain
	// length its activation set was drawn for. Stochastic schedulers
	// advance math/rand state that cannot be serialised directly, but the
	// Scheduler contract (internal/sched) makes that state a pure function
	// of the (round, length) call sequence — Restore replays the sequence
	// and lands on the identical state. Empty under FSYNC.
	SchedLens []int `json:"schedLens,omitempty"`

	// Result is the accounting accumulated so far (an honest partial
	// result: Rounds/FinalLen/Pairs are sealed as of the checkpoint
	// round), Tracker the pair accounting behind it, and MergeGap the
	// current merge-free streak feeding LongestMergeGap.
	Result   Result       `json:"result"`
	MergeGap int          `json:"mergeGap,omitempty"`
	Tracker  trackerState `json:"tracker"`

	// StallStreak is the no-progress round streak feeding the stall
	// detector (sim.go): serialised so a resumed non-FSYNC run reaches its
	// ErrStalled verdict at exactly the round the uninterrupted run would
	// have. Zero (and absent) on FSYNC checkpoints and on checkpoints
	// written before the detector existed.
	StallStreak int `json:"stallStreak,omitempty"`
}

// Checkpoint captures the engine's complete state at the current round
// boundary. It refuses on a poisoned engine (after a recovered round
// panic): the chain may be mid-mutation and must never leak into a resume
// artefact. The checkpoint shares no memory with the engine — both sides
// may keep running or mutating freely.
func (e *Engine) Checkpoint() (*Checkpoint, error) {
	if e.broken != nil {
		return nil, fmt.Errorf("sim: refusing to checkpoint a poisoned engine: %w", e.broken)
	}
	res := e.res
	res.StartsByKind = copyCountMap(e.res.StartsByKind)
	res.EndsByReason = copyCountMap(e.res.EndsByReason)
	res.Rounds = e.alg.Round()
	res.FinalLen = e.Chain().Len()
	res.Pairs = e.tracker.finish()
	return &Checkpoint{
		Config:         e.opts.Config,
		Strategy:       e.opts.Strategy,
		Sched:          e.opts.Sched,
		MaxRounds:      e.opts.MaxRounds,
		WatchdogFactor: e.opts.WatchdogFactor,
		WatchdogSlack:  e.opts.WatchdogSlack,
		Chain:          e.Chain().Snapshot(),
		Strat:          e.alg.Snapshot(),
		SchedLens:      append([]int(nil), e.schedLens...),
		Result:         res,
		MergeGap:       e.mergeGap,
		Tracker:        e.tracker.snapshot(),
		StallStreak:    e.stallStreak,
	}, nil
}

// Restore rebuilds an engine from a checkpoint. The checkpoint supplies
// every semantic parameter (config, strategy, scheduler, watchdog budget);
// opts contributes only the runtime-side knobs — CheckInvariants, Observer,
// MaxWallTime — so the same checkpoint can resume with invariant
// checking switched on without changing the simulated outcome. Every
// structural claim the checkpoint makes is re-validated from scratch; a
// checkpoint that decodes but lies is rejected with ErrCheckpointCorrupt.
func Restore(cp *Checkpoint, opts Options) (*Engine, error) {
	ch, err := chain.FromSnapshot(cp.Chain)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCheckpointCorrupt, err)
	}
	if cp.Result.InitialLen < ch.Len() || cp.Result.InitialLen < 2 {
		return nil, fmt.Errorf("%w: initial length %d with %d robots alive", ErrCheckpointCorrupt, cp.Result.InitialLen, ch.Len())
	}
	alg, err := core.RestoreStrategy(cp.Strategy, ch, cp.Config, cp.Strat)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCheckpointCorrupt, err)
	}
	schd, err := sched.New(cp.Sched)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCheckpointCorrupt, err)
	}
	if schd.FullySync() {
		if len(cp.SchedLens) != 0 {
			return nil, fmt.Errorf("%w: %d scheduler rounds recorded for a fully synchronous scheduler", ErrCheckpointCorrupt, len(cp.SchedLens))
		}
	} else {
		if len(cp.SchedLens) != cp.Strat.Round {
			return nil, fmt.Errorf("%w: %d scheduler rounds recorded, %d rounds executed", ErrCheckpointCorrupt, len(cp.SchedLens), cp.Strat.Round)
		}
		var buf []bool
		for round, n := range cp.SchedLens {
			if n < 2 || n > cp.Result.InitialLen {
				return nil, fmt.Errorf("%w: scheduler round %d drawn for impossible chain length %d", ErrCheckpointCorrupt, round, n)
			}
			if cap(buf) < n {
				buf = make([]bool, n)
			}
			schd.Activate(round, buf[:n])
		}
	}
	tracker := newPairTracker(cp.Config.RunPeriod)
	if err := tracker.restore(cp.Tracker); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCheckpointCorrupt, err)
	}
	if cp.StallStreak < 0 || cp.StallStreak > cp.Strat.Round {
		return nil, fmt.Errorf("%w: stall streak %d after %d rounds", ErrCheckpointCorrupt, cp.StallStreak, cp.Strat.Round)
	}

	eopts := Options{
		Config:          cp.Config,
		Strategy:        cp.Strategy,
		MaxRounds:       cp.MaxRounds,
		WatchdogFactor:  cp.WatchdogFactor,
		WatchdogSlack:   cp.WatchdogSlack,
		CheckInvariants: opts.CheckInvariants,
		Observer:        opts.Observer,
		Sched:           cp.Sched,
		MaxWallTime:     opts.MaxWallTime,
	}
	if eopts.WatchdogFactor <= 0 {
		eopts.WatchdogFactor = DefaultWatchdogFactor
	}
	if eopts.WatchdogSlack <= 0 {
		eopts.WatchdogSlack = DefaultWatchdogSlack
	}

	res := cp.Result
	res.Strategy = cp.Strategy
	res.StartsByKind = copyCountMap(cp.Result.StartsByKind)
	res.EndsByReason = copyCountMap(cp.Result.EndsByReason)

	return &Engine{
		alg:         alg,
		opts:        eopts,
		res:         res,
		tracker:     tracker,
		sched:       schd,
		mergeGap:    cp.MergeGap,
		schedLens:   append([]int(nil), cp.SchedLens...),
		stallStreak: cp.StallStreak,
	}, nil
}

// Encode seals the checkpoint into its on-disk form: a versioned JSON
// envelope whose payload is protected by a CRC-32, so every single-byte
// corruption — in the payload via the checksum, in the envelope via the
// JSON and version checks — is detected at decode time rather than
// surfacing as a subtly wrong resume.
func (cp *Checkpoint) Encode() ([]byte, error) {
	return sealEnvelope(artifactCheckpoint, CheckpointVersion, cp)
}

// DecodeCheckpoint opens an encoded checkpoint. It verifies the envelope,
// version and checksum; the semantic validation happens in Restore.
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	payload, err := openEnvelope(data, artifactCheckpoint, CheckpointVersion, ErrCheckpointCorrupt, ErrCheckpointVersion)
	if err != nil {
		return nil, err
	}
	cp := new(Checkpoint)
	if err := json.Unmarshal(payload, cp); err != nil {
		return nil, fmt.Errorf("%w: payload: %v", ErrCheckpointCorrupt, err)
	}
	return cp, nil
}

// WriteCheckpoint encodes the checkpoint to path, via a temporary file and
// rename so a crash mid-write never leaves a torn checkpoint under the
// final name — the previous complete checkpoint at path survives intact.
func WriteCheckpoint(path string, cp *Checkpoint) error {
	data, err := cp.Encode()
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// ReadCheckpoint reads and decodes the checkpoint at path.
func ReadCheckpoint(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return DecodeCheckpoint(data)
}

// The envelope artefact tags.
const (
	artifactCheckpoint = "gridgather-checkpoint"
	artifactBundle     = "gridgather-bundle"
)

// envelope is the outer frame shared by Checkpoint and Bundle: an artefact
// tag (so the two cannot be confused for each other), a format version, and
// a CRC-32 (IEEE) over the raw payload bytes.
type envelope struct {
	Artifact string          `json:"artifact"`
	Version  int             `json:"version"`
	Checksum uint32          `json:"checksum"`
	Payload  json.RawMessage `json:"payload"`
}

// sealEnvelope marshals the payload and wraps it with tag, version and
// checksum.
func sealEnvelope(artifact string, version int, payload any) ([]byte, error) {
	raw, err := json.Marshal(payload)
	if err != nil {
		return nil, err
	}
	return json.Marshal(envelope{
		Artifact: artifact,
		Version:  version,
		Checksum: crc32.ChecksumIEEE(raw),
		Payload:  raw,
	})
}

// openEnvelope verifies the frame and returns the payload bytes. The two
// error values parameterise the artefact's own sentinel errors.
func openEnvelope(data []byte, artifact string, version int, errCorrupt, errVersion error) (json.RawMessage, error) {
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, fmt.Errorf("%w: envelope: %v", errCorrupt, err)
	}
	if env.Artifact != artifact {
		return nil, fmt.Errorf("%w: artefact tag %q, want %q", errCorrupt, env.Artifact, artifact)
	}
	if env.Version != version {
		return nil, fmt.Errorf("%w: version %d, this build reads version %d", errVersion, env.Version, version)
	}
	if len(env.Payload) == 0 {
		return nil, fmt.Errorf("%w: empty payload", errCorrupt)
	}
	if sum := crc32.ChecksumIEEE(env.Payload); sum != env.Checksum {
		return nil, fmt.Errorf("%w: payload checksum %08x, envelope says %08x", errCorrupt, sum, env.Checksum)
	}
	return env.Payload, nil
}

// copyCountMap deep-copies a counter map so checkpoints and engines never
// share mutable state.
func copyCountMap[K comparable](m map[K]int) map[K]int {
	out := make(map[K]int, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}
