package workload

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// -update regenerates the golden digests (go test ./internal/workload
// -run TestExpandGolden -update). Review the diff before committing: a
// changed digest means the expansion format or the seed-derivation rule
// changed, which invalidates every recorded campaign.
var update = flag.Bool("update", false, "rewrite the golden digests")

// TestExpandGolden pins the SHA-256 of the expanded campaign stream for
// the two committed spec fixtures, and asserts the stream is
// byte-identical when expansion fans out over 1, 4 and 8 workers — the
// determinism half of the spec contract (same spec bytes → same campaign
// at any parallelism). CI runs this under -race as well.
func TestExpandGolden(t *testing.T) {
	fixtures, err := filepath.Glob(filepath.Join("testdata", "*.yaml"))
	if err != nil || len(fixtures) == 0 {
		t.Fatalf("no spec fixtures in testdata (err=%v)", err)
	}
	for _, path := range fixtures {
		name := strings.TrimSuffix(filepath.Base(path), ".yaml")
		t.Run(name, func(t *testing.T) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			s, err := ParseSpec(data)
			if err != nil {
				t.Fatalf("ParseSpec(%s): %v", path, err)
			}
			var digests []string
			for _, workers := range []int{1, 4, 8} {
				items, err := s.Expand(context.Background(), workers)
				if err != nil {
					t.Fatalf("Expand(workers=%d): %v", workers, err)
				}
				d, err := ItemsDigest(items)
				if err != nil {
					t.Fatal(err)
				}
				digests = append(digests, d)
			}
			if digests[0] != digests[1] || digests[0] != digests[2] {
				t.Fatalf("expansion depends on worker count: %v", digests)
			}
			goldenPath := strings.TrimSuffix(path, ".yaml") + ".golden"
			if *update {
				if err := os.WriteFile(goldenPath, []byte(digests[0]+"\n"), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %s", goldenPath)
				return
			}
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatalf("reading golden (run with -update to record): %v", err)
			}
			if got := digests[0] + "\n"; got != string(want) {
				t.Fatalf("campaign stream digest changed:\n  got  %s  want %s(the expansion format or seed rule changed — every recorded campaign is invalidated; rerun with -update only if that is intended)", got, want)
			}
		})
	}
}

// TestExpandItemIndependence pins that expanding one item in isolation
// equals the same index out of a full expansion — the property gathersim
// -spec -item and the serve /campaign fan-out rely on.
func TestExpandItemIndependence(t *testing.T) {
	s := MustPreset("quick")
	all, err := s.Expand(context.Background(), 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 7, len(all) - 1} {
		it, err := s.ExpandItem(i)
		if err != nil {
			t.Fatal(err)
		}
		a, err := EncodeItems([]Item{it})
		if err != nil {
			t.Fatal(err)
		}
		b, err := EncodeItems([]Item{all[i]})
		if err != nil {
			t.Fatal(err)
		}
		if string(a) != string(b) {
			t.Fatalf("item %d differs in isolation:\nalone: %s\nfull:  %s", i, a, b)
		}
	}
	if _, err := s.ExpandItem(-1); err == nil {
		t.Error("ExpandItem(-1) accepted")
	}
	if _, err := s.ExpandItem(s.Items); err == nil {
		t.Error("ExpandItem(Items) accepted")
	}
}

// TestExpandCoversMixes sanity-checks the weighted draws: over the stress
// preset every family, both strategies and several scheduler kinds
// actually occur, and stochastic schedulers carry item-derived seeds.
func TestExpandCoversMixes(t *testing.T) {
	s := MustPreset("stress")
	items, err := s.Expand(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	families := map[string]int{}
	strategies := map[string]int{}
	seededScheds := 0
	for _, it := range items {
		families[it.Family]++
		strategies[it.Strategy.String()]++
		if it.Sched.Seed != 0 {
			seededScheds++
		}
		if it.N < 4 {
			t.Fatalf("item %d built a chain of %d robots", it.Index, it.N)
		}
	}
	for _, shape := range ShapeNames() {
		if families[shape] == 0 {
			t.Errorf("family %s never drawn in %d items", shape, len(items))
		}
	}
	if strategies["paper"] == 0 || strategies["lintime"] == 0 {
		t.Errorf("strategy mix not covered: %v", strategies)
	}
	if seededScheds == 0 {
		t.Error("no stochastic scheduler received an item-derived seed")
	}
}
