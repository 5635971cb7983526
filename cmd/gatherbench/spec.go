package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"

	"gridgather/internal/analysis"
	"gridgather/internal/workload"
)

// specModeMain runs a declarative workload campaign (-spec): the spec's
// items expand deterministically, every item runs through the engine, and
// the per-family aggregate table plus the campaign digest print on stdout
// (byte-reproducible for a given spec, like the experiment tables).
// -spec-trace additionally records the full campaign as an NDJSON trace
// that -spec-replay re-verifies later.
func specModeMain(specArg, tracePath string, workers int, csv bool, outPath string, quiet bool) int {
	sp, err := workload.Load(specArg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gatherbench:", err)
		return 1
	}
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	start := time.Now()
	recs, err := workload.Execute(ctx, sp, workers)
	elapsed := time.Since(start)
	if err != nil {
		if errors.Is(err, context.Canceled) {
			stopSignals()
			fmt.Fprintln(os.Stderr, "gatherbench: interrupted")
			return exitInterrupted
		}
		fmt.Fprintln(os.Stderr, "gatherbench:", err)
		return 1
	}

	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gatherbench:", err)
			return 1
		}
		werr := workload.WriteTrace(f, recs)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fmt.Fprintln(os.Stderr, "gatherbench:", werr)
			return 1
		}
		fmt.Fprintf(os.Stderr, "gatherbench: wrote %d-record trace to %s\n", len(recs), tracePath)
	}

	text, err := renderSpecReport(sp, recs, csv)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gatherbench:", err)
		return 1
	}
	if !quiet {
		fmt.Fprintf(os.Stderr, "gatherbench: %d items in %s (%.1f items/s)\n",
			len(recs), elapsed.Round(time.Millisecond), float64(len(recs))/elapsed.Seconds())
	}
	if outPath == "" {
		fmt.Print(text)
		return 0
	}
	if err := os.WriteFile(outPath, []byte(text), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "gatherbench:", err)
		return 1
	}
	fmt.Printf("wrote %s\n", outPath)
	return 0
}

// renderSpecReport aggregates a campaign per (family, strategy) cell and
// appends the campaign digest — the same SHA-256 the determinism goldens
// pin, so two machines can compare campaigns by one line.
func renderSpecReport(sp workload.Spec, recs []workload.Record, csv bool) (string, error) {
	items := make([]workload.Item, len(recs))
	for i, r := range recs {
		items[i] = r.Item
	}
	digest, err := workload.ItemsDigest(items)
	if err != nil {
		return "", err
	}

	type cell struct {
		items, gathered, dnf int
		rounds, ns           analysis.Series
	}
	cells := map[string]*cell{}
	var keys []string
	for _, r := range recs {
		key := r.Item.Family + " / " + r.Item.Strategy.String()
		c := cells[key]
		if c == nil {
			c = &cell{}
			cells[key] = c
			keys = append(keys, key)
		}
		c.items++
		c.ns.AddInt(r.Item.N)
		if r.Gathered {
			c.gathered++
			c.rounds.AddInt(r.Result.Rounds)
		} else {
			c.dnf++
		}
	}
	sort.Strings(keys)

	tbl := analysis.NewTable("family / strategy", "items", "n (mean)", "gathered", "DNF", "rounds", "rounds/n")
	for _, key := range keys {
		c := cells[key]
		roundsCell, perN := "—", "—"
		if c.gathered > 0 {
			roundsCell = fmt.Sprintf("%.0f ± %.0f", c.rounds.Mean(), c.rounds.Std())
			perN = fmt.Sprintf("%.3f", c.rounds.Mean()/c.ns.Mean())
		}
		tbl.AddRow(key,
			fmt.Sprintf("%d", c.items),
			fmt.Sprintf("%.0f", c.ns.Mean()),
			fmt.Sprintf("%d", c.gathered),
			fmt.Sprintf("%d", c.dnf),
			roundsCell, perN)
	}

	name := sp.Name
	if name == "" {
		name = "(unnamed)"
	}
	head := fmt.Sprintf("campaign %s: %d items, seed %d, digest %s\n\n", name, len(recs), sp.Seed, digest)
	if csv {
		return head + tbl.CSV(), nil
	}
	return head + tbl.Markdown(), nil
}

// specReplayMain re-verifies a recorded campaign trace (-spec-replay):
// every item re-runs from its self-contained scenario bytes and the fresh
// result must match the recorded one byte-for-byte (verdict and Result
// JSON). Exit status: 0 on a verified trace, 1 on divergence, 2 on an
// unreadable trace.
func specReplayMain(path string, workers int) int {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gatherbench:", err)
		return 2
	}
	recs, err := workload.ReadTrace(f)
	f.Close()
	if err != nil {
		fmt.Fprintln(os.Stderr, "gatherbench:", err)
		return 2
	}
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	if err := workload.Replay(ctx, recs, workers); err != nil {
		if errors.Is(err, context.Canceled) {
			stopSignals()
			fmt.Fprintln(os.Stderr, "gatherbench: interrupted")
			return exitInterrupted
		}
		fmt.Println(err)
		return 1
	}
	fmt.Printf("trace %s: %d records verified\n", path, len(recs))
	return 0
}
