package sched

import (
	"errors"
	"fmt"
	"testing"
)

// drive steps a scheduler through rounds of a fixed-size chain and returns
// the activation history.
func drive(t *testing.T, c Config, n, rounds int) [][]bool {
	t.Helper()
	s, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	hist := make([][]bool, rounds)
	for r := 0; r < rounds; r++ {
		hist[r] = make([]bool, n)
		s.Activate(r, hist[r])
	}
	return hist
}

func TestFSYNCActivatesEveryone(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !s.FullySync() || s.MinActivationRate(64) != 1 {
		t.Fatalf("zero config must be FSYNC: %s", s.Name())
	}
	for _, round := range []int{0, 1, 17} {
		active := make([]bool, 9)
		s.Activate(round, active)
		for i, a := range active {
			if !a {
				t.Fatalf("round %d: robot %d not activated under FSYNC", round, i)
			}
		}
	}
}

// TestRoundRobinWindow pins the contiguous sliding window: ceil(n/K)
// robots per round, every robot activated within any K consecutive window
// positions, and — the livelock-critical property — every contiguous group
// of window size fully activated together within n rounds.
func TestRoundRobinWindow(t *testing.T) {
	const n, k = 20, 3
	window := (n + k - 1) / k
	hist := drive(t, Config{Kind: RoundRobin, K: k}, n, n)
	for r, active := range hist {
		count := 0
		for _, a := range active {
			if a {
				count++
			}
		}
		if count != window {
			t.Fatalf("round %d: %d active, want window %d", r, count, window)
		}
	}
	// Every window-sized contiguous group must be simultaneously active in
	// some round of a full cycle.
	for startIdx := 0; startIdx < n; startIdx++ {
		found := false
		for _, active := range hist {
			all := true
			for j := 0; j < window; j++ {
				if !active[(startIdx+j)%n] {
					all = false
					break
				}
			}
			if all {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("contiguous group at %d (len %d) never fully activated in %d rounds — straight merge patterns there would livelock",
				startIdx, window, n)
		}
	}
}

// TestBoundedAdversarySleepBound: no robot may sleep more than K
// consecutive rounds, whatever the coin flips say.
func TestBoundedAdversarySleepBound(t *testing.T) {
	const n, k, rounds = 33, 3, 400
	hist := drive(t, Config{Kind: BoundedAdversary, K: k, P: 0.3, Seed: 7}, n, rounds)
	sleeps := make([]int, n)
	slept := false
	for r, active := range hist {
		for i, a := range active {
			if a {
				sleeps[i] = 0
				continue
			}
			slept = true
			sleeps[i]++
			if sleeps[i] > k {
				t.Fatalf("robot %d slept %d consecutive rounds at round %d (bound %d)", i, sleeps[i], r, k)
			}
		}
	}
	if !slept {
		t.Fatal("adversary with p=0.3 never let a robot sleep — not adversarial at all")
	}
}

// TestDeterminism: equal configs produce identical activation sequences,
// for every kind — the contract every downstream reproducibility guarantee
// rests on.
func TestDeterminism(t *testing.T) {
	for _, c := range []Config{
		{Kind: RoundRobin, K: 4},
		{Kind: BoundedAdversary, K: 2, P: 0.4, Seed: 3},
		{Kind: Random, P: 0.6, Seed: 3},
	} {
		t.Run(c.String(), func(t *testing.T) {
			a := drive(t, c, 24, 100)
			b := drive(t, c, 24, 100)
			for r := range a {
				for i := range a[r] {
					if a[r][i] != b[r][i] {
						t.Fatalf("round %d robot %d: %v vs %v", r, i, a[r][i], b[r][i])
					}
				}
			}
		})
	}
}

// TestRandomRate: the Bernoulli scheduler's empirical activation rate must
// track P (within generous sampling slack), and different seeds must give
// different streams.
func TestRandomRate(t *testing.T) {
	const n, rounds = 50, 400
	on := 0
	hist := drive(t, Config{Kind: Random, P: 0.7, Seed: 1}, n, rounds)
	for _, active := range hist {
		for _, a := range active {
			if a {
				on++
			}
		}
	}
	rate := float64(on) / float64(n*rounds)
	if rate < 0.65 || rate > 0.75 {
		t.Fatalf("empirical activation rate %.3f, want ~0.7", rate)
	}
	other := drive(t, Config{Kind: Random, P: 0.7, Seed: 2}, n, rounds)
	same := true
	for r := range hist {
		for i := range hist[r] {
			if hist[r][i] != other[r][i] {
				same = false
			}
		}
	}
	if same {
		t.Fatal("seeds 1 and 2 produced identical streams")
	}
}

// TestParseRoundTrip: Config.String output must parse back to the same
// config, and the documented flag forms must all be accepted.
func TestParseRoundTrip(t *testing.T) {
	for _, c := range []Config{
		{Kind: FSYNC},
		{Kind: RoundRobin, K: 4},
		{Kind: BoundedAdversary, K: 2, P: 0.25, Seed: 9},
		{Kind: Random, P: 0.8, Seed: 5},
	} {
		got, err := Parse(c.String())
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.String(), err)
		}
		if got.normalized() != c.normalized() {
			t.Errorf("round trip %q -> %+v, want %+v", c.String(), got, c)
		}
	}
	for flagStr, want := range map[string]Config{
		"fsync":               {Kind: FSYNC},
		"rr:4":                {Kind: RoundRobin, K: 4},
		"roundrobin:2":        {Kind: RoundRobin, K: 2},
		"bounded:3":           {Kind: BoundedAdversary, K: 3},
		"bounded:2:p=0.25":    {Kind: BoundedAdversary, K: 2, P: 0.25},
		"random:p=0.9:seed=4": {Kind: Random, P: 0.9, Seed: 4},
		"RANDOM:p=0.5":        {Kind: Random, P: 0.5},
	} {
		got, err := Parse(flagStr)
		if err != nil {
			t.Errorf("Parse(%q): %v", flagStr, err)
			continue
		}
		if got != want {
			t.Errorf("Parse(%q) = %+v, want %+v", flagStr, got, want)
		}
	}
	// Inapplicable, duplicate, or malformed parameters must be rejected,
	// never silently dropped or reinterpreted.
	for _, bad := range []string{
		"fsync:3", "rr:0", "rr:x", "random:2", "random:p=0", "random:p=1.5",
		"wibble", "bounded:1:q=2",
		"rr:3:p=0.2", "rr:3:seed=9", "rr:2:4", "fsync:p=0.5",
		"bounded:2:p=0.5:p=0.7", "random:seed=1:seed=2", "bounded:2:3",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
}

// TestValidateMatchesNew pins Config.Validate to New over valid and
// invalid descriptions: the same error, sentinel included, and a nil
// error exactly when New builds a scheduler.
func TestValidateMatchesNew(t *testing.T) {
	for _, c := range []Config{
		{}, {Kind: RoundRobin}, {Kind: RoundRobin, K: 5}, {Kind: RoundRobin, K: -1},
		{Kind: BoundedAdversary}, {Kind: BoundedAdversary, K: 2, P: 1, Seed: 3},
		{Kind: BoundedAdversary, K: -2}, {Kind: BoundedAdversary, P: 1.5}, {Kind: BoundedAdversary, P: -0.5},
		{Kind: Random}, {Kind: Random, P: 0.7, Seed: 9}, {Kind: Random, P: 2}, {Kind: Random, P: -1},
		{Kind: Kind(9)},
	} {
		err := c.Validate()
		s, newErr := New(c)
		if fmt.Sprint(err) != fmt.Sprint(newErr) {
			t.Errorf("%+v: Validate() = %v, New() = %v", c, err, newErr)
		}
		if (err == nil) != (s != nil) {
			t.Errorf("%+v: Validate() = %v but New built %v", c, err, s)
		}
		for _, sentinel := range []error{ErrBadKind, ErrBadParam} {
			if errors.Is(err, sentinel) != errors.Is(newErr, sentinel) {
				t.Errorf("%+v: Validate() = %v and New() = %v differ on %v", c, err, newErr, sentinel)
			}
		}
	}
}

// TestSchedulerNameIsCanonicalConfig pins the Name contract: Name returns
// the Config.String form the scheduler was built from, so Parse(Name())
// reconstructs an equivalent scheduler (seed included).
func TestSchedulerNameIsCanonicalConfig(t *testing.T) {
	for _, c := range []Config{
		{Kind: FSYNC},
		{Kind: RoundRobin, K: 4},
		{Kind: BoundedAdversary, K: 2, P: 0.25, Seed: 9},
		{Kind: Random, P: 0.8, Seed: 5},
	} {
		s, err := New(c)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := s.Name(), c.String(); got != want {
			t.Errorf("Name() = %q, want the canonical config %q", got, want)
		}
		back, err := Parse(s.Name())
		if err != nil {
			t.Fatalf("Parse(Name() = %q): %v", s.Name(), err)
		}
		if back.normalized() != c.normalized() {
			t.Errorf("Parse(Name()) = %+v, want %+v", back, c)
		}
	}
}

// TestMinActivationRate pins the watchdog-scaling rates.
func TestMinActivationRate(t *testing.T) {
	for _, tc := range []struct {
		c    Config
		want float64
	}{
		{Config{Kind: FSYNC}, 1},
		{Config{Kind: RoundRobin, K: 4}, 0.25},
		{Config{Kind: BoundedAdversary, K: 3, P: 0.5}, 0.25},
		{Config{Kind: Random, P: 0.3}, 0.3},
	} {
		s, err := New(tc.c)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.MinActivationRate(128); got != tc.want {
			t.Errorf("%s: rate %g, want %g", tc.c, got, tc.want)
		}
	}
}

// TestKindString keeps Kind.String in sync with the Parse vocabulary.
func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		FSYNC: "fsync", RoundRobin: "rr", BoundedAdversary: "bounded", Random: "random",
	} {
		if got := fmt.Sprint(k); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

// BenchmarkBoundedAdversaryActivate times one 128-robot round of the
// bounded adversary, the scheduler of the campaign's bounded items.
func BenchmarkBoundedAdversaryActivate(b *testing.B) {
	s, err := New(Config{Kind: BoundedAdversary, K: 3, P: 0.5, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	active := make([]bool, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Activate(i, active)
	}
}
