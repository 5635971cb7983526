package main

import (
	"fmt"
	"slices"
	"strings"

	"gridgather/internal/oracle"
	"gridgather/internal/workload"
)

// presetList names the embedded workload presets for the -spec flag help.
func presetList() string { return strings.Join(workload.PresetNames(), ", ") }

// specConflicts are the flags that define the raw-flag config space; a
// spec campaign owns those axes, so setting both is a contradiction the
// harness refuses rather than silently resolving.
var specConflicts = []string{"seed", "min-size", "max-size", "sched", "strategy"}

// specSpace is the campaign a workload spec declares (-spec). Item i
// expands deterministically from the spec bytes (workload.ExpandItem), so
// the campaign is a pure function of the spec and any item reruns alone
// with -only. set names the flags given on the command line: an explicit
// -scenarios overrides the spec's item count (CI slices trim a long
// campaign, soak runs extend it), and a flag of the raw space is refused.
func specSpace(arg string, scenarios int, set map[string]bool) (space, error) {
	for _, name := range specConflicts {
		if set[name] {
			return space{}, fmt.Errorf("-%s conflicts with -spec (the spec owns that axis)", name)
		}
	}
	sp, err := workload.Load(arg)
	if err != nil {
		return space{}, err
	}
	repro := "gatherfuzz -spec " + arg
	if set["scenarios"] {
		sp.Items = scenarios
		if err := sp.Validate(); err != nil {
			return space{}, err
		}
		repro += fmt.Sprintf(" -scenarios %d", scenarios)
	}
	families := workload.ShapeNames()
	return space{
		n:      sp.Items,
		unit:   "items",
		header: fmt.Sprintf("gatherfuzz: spec %s, %d items, seed %d", sp.Name, sp.Items, sp.Seed),
		cell: func(i int) (cell, error) {
			it, err := sp.ExpandItem(i)
			if err != nil {
				return cell{}, err
			}
			ch, err := it.Chain()
			if err != nil {
				return cell{}, fmt.Errorf("item %d: rebuilding scenario: %w", i, err)
			}
			return cell{
				name:   fmt.Sprintf("item %d", i),
				desc:   fmt.Sprintf("%s n=%d sched=%s strategy=%s", it.Family, it.N, it.Sched, it.Strategy),
				repro:  fmt.Sprintf("%s -only %d", repro, i),
				family: slices.Index(families, it.Family),
				seed:   it.Seed,
				ch:     ch,
				cfg:    it.EffectiveConfig(),
				opts:   oracle.Options{Sched: it.Sched, Strategy: it.Strategy},
			}, nil
		},
	}, nil
}
