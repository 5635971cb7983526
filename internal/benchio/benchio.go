package benchio

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// Schema identifies the report layout; bump on incompatible changes.
const Schema = 1

// Entry is one pinned benchmark's recorded result.
type Entry struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	// Metrics carries benchmark-specific extras (rounds, tasks_per_sec);
	// encoding/json sorts the keys, keeping the output deterministic.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Report is one PR's snapshot of the pinned benchmark subset.
type Report struct {
	Schema int `json:"schema"`
	// Label names the snapshot (e.g. "PR2").
	Label string `json:"label"`
	// GOMAXPROCS, NumCPU and GoVersion name the host the entries were
	// measured on, so timings from different hosts are not read as a
	// trend. Absent in snapshots older than the fields; Compare ignores
	// them.
	GOMAXPROCS int      `json:"gomaxprocs,omitempty"`
	NumCPU     int      `json:"num_cpu,omitempty"`
	GoVersion  string   `json:"go_version,omitempty"`
	Entries    []Entry  `json:"entries"`
	Notes      []string `json:"notes,omitempty"`
}

// Sort orders the entries by name, the canonical committed form.
func (r *Report) Sort() {
	sort.Slice(r.Entries, func(i, j int) bool { return r.Entries[i].Name < r.Entries[j].Name })
}

// Entry returns the named entry, or nil.
func (r *Report) Entry(name string) *Entry {
	for i := range r.Entries {
		if r.Entries[i].Name == name {
			return &r.Entries[i]
		}
	}
	return nil
}

// Encode renders the report as indented, trailing-newline JSON, sorted.
func Encode(r *Report) ([]byte, error) {
	r.Sort()
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// Write encodes the report to path.
func Write(path string, r *Report) error {
	data, err := Encode(r)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// Read decodes a report from path.
func Read(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("benchio: decoding %s: %w", path, err)
	}
	if r.Schema != Schema {
		return nil, fmt.Errorf("benchio: %s has schema %d, this build reads %d", path, r.Schema, Schema)
	}
	return &r, nil
}

// BytesSlack is the absolute bytes/op slack of Compare: entries that
// allocate (nearly) nothing still pick up a few hundred bytes per op from
// the runtime's own bookkeeping, so the relative tolerance alone would make
// them flake.
const BytesSlack = 4096

// Compare checks a freshly measured report against the committed one and
// returns human-readable violations (empty = pass). It flags staleness —
// the two reports pin different benchmark sets — and allocation
// regressions: a fresh allocs/op above committed*(1+tol)+1 (the +1 keeps
// zero-alloc entries comparable against measurement jitter) or a fresh
// bytes/op above committed*(1+tol)+BytesSlack. Timing fields are
// documentation, not contract, and are never compared.
func Compare(committed, fresh *Report, tol float64) []string {
	var violations []string
	for i := range committed.Entries {
		c := &committed.Entries[i]
		f := fresh.Entry(c.Name)
		if f == nil {
			violations = append(violations,
				fmt.Sprintf("stale: %q is recorded but no longer measured", c.Name))
			continue
		}
		if limit := c.AllocsPerOp*(1+tol) + 1; f.AllocsPerOp > limit {
			violations = append(violations,
				fmt.Sprintf("allocs/op regression on %q: %.1f measured vs %.1f recorded (limit %.1f)",
					c.Name, f.AllocsPerOp, c.AllocsPerOp, limit))
		}
		if limit := c.BytesPerOp*(1+tol) + BytesSlack; f.BytesPerOp > limit {
			violations = append(violations,
				fmt.Sprintf("bytes/op regression on %q: %.0f measured vs %.0f recorded (limit %.0f)",
					c.Name, f.BytesPerOp, c.BytesPerOp, limit))
		}
	}
	for i := range fresh.Entries {
		if committed.Entry(fresh.Entries[i].Name) == nil {
			violations = append(violations,
				fmt.Sprintf("stale: %q is measured but not recorded — regenerate the committed report", fresh.Entries[i].Name))
		}
	}
	return violations
}
