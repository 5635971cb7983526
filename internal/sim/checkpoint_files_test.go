package sim_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"gridgather/internal/core"
	"gridgather/internal/generate"
	"gridgather/internal/sched"
	"gridgather/internal/sim"
)

// TestCheckpointFilesFromOlderEncoder holds the checkpoint format to files
// an older build wrote (testdata/checkpoints, never regenerated): the
// polyomino_300_seed5 start configuration under the paper strategy and
// lintime, each under fsync and random:p=0.5:seed=3, checkpointed at round
// 40 — lintime under fsync gathers at round 15, so that file is taken at
// round 10. Each file must decode and restore, re-encode to identical
// bytes, and run on to the Result and error of the uninterrupted run. A
// change that fails it changed a persisted byte or the state a checkpoint
// restores to.
func TestCheckpointFilesFromOlderEncoder(t *testing.T) {
	for _, tc := range []struct {
		file     string
		strategy core.StrategyName
		sched    string
		round    int
	}{
		{"polyomino300_seed5_paper_fsync.ckpt", core.StrategyPaper, "fsync", 40},
		{"polyomino300_seed5_paper_random.ckpt", core.StrategyPaper, "random:p=0.5:seed=3", 40},
		{"polyomino300_seed5_lintime_fsync.ckpt", core.StrategyLinTime, "fsync", 10},
		{"polyomino300_seed5_lintime_random.ckpt", core.StrategyLinTime, "random:p=0.5:seed=3", 40},
	} {
		t.Run(tc.file, func(t *testing.T) {
			sc, err := sched.Parse(tc.sched)
			if err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(filepath.Join("testdata", "checkpoints", tc.file))
			if err != nil {
				t.Fatal(err)
			}
			cp, err := sim.DecodeCheckpoint(data)
			if err != nil {
				t.Fatal(err)
			}
			if cp.Strategy != tc.strategy || cp.Sched != sc || cp.Strat.Round != tc.round {
				t.Fatalf("file holds %s under %s at round %d, want %s under %s at round %d",
					cp.Strategy, cp.Sched, cp.Strat.Round, tc.strategy, sc, tc.round)
			}
			e, err := sim.Restore(cp, sim.Options{})
			if err != nil {
				t.Fatal(err)
			}
			again, err := e.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			reencoded, err := again.Encode()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(reencoded, data) {
				t.Fatalf("restored checkpoint re-encodes to different bytes\ngot:  %s\nwant: %s", reencoded, data)
			}

			ch, err := generate.RandomPolyomino(300, rand.New(rand.NewSource(5)))
			if err != nil {
				t.Fatal(err)
			}
			want, wantErr := sim.Gather(ch, sim.Options{Strategy: tc.strategy, Sched: sc})
			got, gotErr := e.Run()
			if g, w := fmt.Sprint(gotErr), fmt.Sprint(wantErr); g != w {
				t.Fatalf("resumed run ended with %s, the uninterrupted one with %s", g, w)
			}
			gotJSON, err := json.Marshal(got)
			if err != nil {
				t.Fatal(err)
			}
			wantJSON, err := json.Marshal(want)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotJSON, wantJSON) {
				t.Errorf("resumed run diverged from the uninterrupted one\ngot:  %s\nwant: %s", gotJSON, wantJSON)
			}
		})
	}
}
