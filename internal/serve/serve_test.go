package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"gridgather/internal/core"
	"gridgather/internal/generate"
	"gridgather/internal/sched"
	"gridgather/internal/sim"
)

// newTestServer boots a Server behind httptest and tears both down in
// order (listener first, so no request can race the drain).
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return s, ts
}

// submit POSTs a spec and decodes the jobView, returning the HTTP status.
func submit(t *testing.T, ts *httptest.Server, spec JobSpec) (jobView, int) {
	t.Helper()
	raw, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var v jobView
	if resp.StatusCode < 300 {
		if err := json.Unmarshal(body, &v); err != nil {
			t.Fatalf("submit response %q: %v", body, err)
		}
	} else {
		v.Error = string(body)
	}
	return v, resp.StatusCode
}

// postRaw POSTs body verbatim and returns the status and response bytes.
func postRaw(t *testing.T, ts *httptest.Server, path string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

// getJSON decodes a GET response into out and returns the status code.
func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("GET %s -> %q: %v", url, body, err)
		}
	}
	return resp.StatusCode
}

// waitStatus polls a job until it reaches want, failing on any other
// terminal status or on timeout.
func waitStatus(t *testing.T, ts *httptest.Server, id, want string) jobView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		var v jobView
		getJSON(t, ts.URL+"/jobs/"+id, &v)
		if v.Status == want {
			return v
		}
		terminal := v.Status != StatusQueued && v.Status != StatusRunning
		if terminal || time.Now().After(deadline) {
			t.Fatalf("job %s: status %q (error %q), want %q", id, v.Status, v.Error, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func getStats(t *testing.T, ts *httptest.Server) Stats {
	t.Helper()
	var st Stats
	getJSON(t, ts.URL+"/stats", &st)
	return st
}

// TestSubmitRunCacheHit is the centerpiece acceptance test: submitting
// the same job twice runs the engine exactly once. The second submission
// must answer inline with the byte-identical pinned result, and the
// server's engine-round counter — incremented by every round any engine
// in the process executes — must not move at all.
func TestSubmitRunCacheHit(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	spec := JobSpec{Shape: "spiral", Size: 80}

	v1, code := submit(t, ts, spec)
	if code != http.StatusAccepted {
		t.Fatalf("first submit: status %d", code)
	}
	if v1.Cached {
		t.Fatal("first submit claims a cache hit")
	}
	done := waitStatus(t, ts, v1.ID, StatusDone)
	if len(done.Result) == 0 {
		t.Fatal("terminal job has no result")
	}
	st1 := getStats(t, ts)
	if st1.EngineRounds == 0 {
		t.Fatal("engine-round counter never moved during the first run")
	}

	v2, code := submit(t, ts, spec)
	if code != http.StatusOK {
		t.Fatalf("re-submit: status %d, want 200 cache hit", code)
	}
	if !v2.Cached {
		t.Fatal("re-submit not served from cache")
	}
	if !bytes.Equal(done.Result, v2.Result) {
		t.Fatalf("cached result differs from the pinned one:\n%s\nvs\n%s", done.Result, v2.Result)
	}
	st2 := getStats(t, ts)
	if st2.EngineRounds != st1.EngineRounds {
		t.Fatalf("cache hit stepped the engine: %d rounds before, %d after", st1.EngineRounds, st2.EngineRounds)
	}
	if st2.CacheHits != 1 {
		t.Fatalf("CacheHits = %d, want 1", st2.CacheHits)
	}

	// The result is also addressable by content, without a job id.
	var byKey jobView
	if code := getJSON(t, ts.URL+"/results/"+v1.Key, &byKey); code != http.StatusOK {
		t.Fatalf("GET /results/{key}: status %d", code)
	}
	if !bytes.Equal(byKey.Result, done.Result) {
		t.Fatal("result by key differs from result by job id")
	}

	// And the pinned bytes decode to a gathered sim.Result.
	var res sim.Result
	if err := json.Unmarshal(done.Result, &res); err != nil {
		t.Fatal(err)
	}
	if !res.Gathered || res.FinalLen > 4 {
		t.Fatalf("cached result is not a gathering: %+v", res)
	}
}

// mustKey computes a spec's cache key through the exported derivation.
func mustKey(t *testing.T, spec JobSpec) string {
	t.Helper()
	k, err := CacheKey(spec)
	if err != nil {
		t.Fatalf("CacheKey(%+v): %v", spec, err)
	}
	return k
}

// TestCacheKeyPerturbations pins the key's sensitivity: every field that
// can change simulation bytes changes the key (a single perturbation of
// seed, scheduler, strategy, round budget or one scenario byte misses),
// and so does the retired workers value, which stays in the key so that
// addresses stay stable; spellings of the same content collide (hit).
func TestCacheKeyPerturbations(t *testing.T) {
	base := JobSpec{Shape: "walk", Size: 64, Seed: 1}
	kb := mustKey(t, base)

	// Identical and equivalent spellings hit.
	if k := mustKey(t, JobSpec{Shape: "walk", Size: 64, Seed: 1}); k != kb {
		t.Fatal("identical spec produced a different key")
	}
	alias := base
	alias.Strategy = "paper"
	if k := mustKey(t, alias); k != kb {
		t.Fatal(`strategy "paper" and "" are the same strategy but key differently`)
	}
	withDefaults := base
	withDefaults.Config = core.DefaultConfig()
	if k := mustKey(t, withDefaults); k != kb {
		t.Fatal("explicit default config keys differently from the zero config")
	}

	// Single-field perturbations miss — and miss each other.
	perturbed := map[string]JobSpec{
		"generator-seed": {Shape: "walk", Size: 64, Seed: 2},
		"sched-kind":     {Shape: "walk", Size: 64, Seed: 1, Sched: sched.Config{Kind: sched.RoundRobin, K: 2}},
		"sched-seed":     {Shape: "walk", Size: 64, Seed: 1, Sched: sched.Config{Kind: sched.Random, Seed: 7}},
		"strategy":       {Shape: "walk", Size: 64, Seed: 1, Strategy: core.StrategyLinTime},
		"workers":        {Shape: "walk", Size: 64, Seed: 1, Workers: 2},
		"max-rounds":     {Shape: "walk", Size: 64, Seed: 1, MaxRounds: 777},
	}
	seen := map[string]string{"base": kb}
	for name, spec := range perturbed {
		k := mustKey(t, spec)
		for other, ok := range seen {
			if k == ok {
				t.Errorf("perturbation %q collides with %q", name, other)
			}
		}
		seen[name] = k
	}

	// Scenario bytes: the key addresses the decoded chain. Swapping two
	// adjacent distinct steps keeps the walk closed but reshapes it — a
	// one-byte-sized change, a different chain, a different key. Setting
	// bits FromBytes ignores (only the low two select a direction) leaves
	// the chain — and therefore the key — unchanged.
	ch, err := generate.Rectangle(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	raw := generate.ToBytes(ch)
	k1 := mustKey(t, JobSpec{Scenario: raw})
	if k := mustKey(t, JobSpec{Scenario: append([]byte(nil), raw...)}); k != k1 {
		t.Fatal("identical scenario bytes produced a different key")
	}
	swapped := append([]byte(nil), raw...)
	i := bytes.IndexFunc(swapped[1:], func(r rune) bool { return byte(r) != swapped[0] })
	if i < 0 {
		t.Fatal("degenerate scenario: all steps equal")
	}
	swapped[i], swapped[i+1] = swapped[i+1], swapped[i]
	if k := mustKey(t, JobSpec{Scenario: swapped}); k == k1 {
		t.Fatal("one-byte scenario change did not change the key")
	}
	dressed := append([]byte(nil), raw...)
	dressed[0] |= 4 // same direction, different byte
	if k := mustKey(t, JobSpec{Scenario: dressed}); k != k1 {
		t.Fatal("non-semantic scenario byte bits leaked into the key")
	}
}

// TestCacheKeysPinned pins exact keys. A key is an address clients keep
// (GET /results/{key}), so any change to the key derivation, to the
// retired workers fold or to core.Config's JSON shows up here. The values
// were computed before the engine's worker count was retired.
func TestCacheKeysPinned(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec JobSpec
		want string
	}{
		{"walk", JobSpec{Shape: "walk", Size: 64, Seed: 1},
			"1f7b4f63d8524f41158602125e866b02d2795497467b6acc69186b30c5fa2d22"},
		{"walk-workers-1", JobSpec{Shape: "walk", Size: 64, Seed: 1, Workers: 1},
			"560278b99a77d446c35b6e65bf1e78f6d89850fe8e017b8512b66d96d5a9ffc1"},
		{"walk-workers-4", JobSpec{Shape: "walk", Size: 64, Seed: 1, Workers: 4},
			"24113505ab79a0394cd2737a11934bc95eb62f309e79fb49b30ba31e98033bf0"},
		{"walk-config-workers-2", JobSpec{Shape: "walk", Size: 64, Seed: 1,
			Config: core.Config{ViewingPathLength: 11, RunPeriod: 13, MaxMergeLen: 10, Workers: 2}},
			"61bc7f0a94d86f0f5008f30f2ed6b4bd4cf8403bb0c85f6c8bde8f0dccf5e25f"},
		{"lintime-spiral", JobSpec{Shape: "spiral", Size: 120, Strategy: core.StrategyLinTime},
			"ead497b3d5c7fc79ad48ba9c98fb772b0717bf87ca93248e34e1e4b688ec9453"},
		{"scenario-bytes", JobSpec{Scenario: []byte{0, 0, 0, 1, 1, 2, 2, 2, 3, 3}},
			"bba00d15b59b3b53f8a78467d5b387fd20f276e54259b6c8e5fa65f43554d832"},
	} {
		if got := mustKey(t, tc.spec); got != tc.want {
			t.Errorf("%s: key %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestAdmissionRejections pins the 400 wall: specs the engine would
// refuse are refused at the door with the typed errors' messages —
// including the E11 livelock rejection — and never reach the queue.
func TestAdmissionRejections(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for name, tc := range map[string]struct {
		spec JobSpec
		want string
	}{
		"livelock-config": {
			JobSpec{Shape: "rectangle", Size: 32,
				Config: core.Config{ViewingPathLength: 11, RunPeriod: 13, MaxMergeLen: 8}},
			sim.ErrLivelockConfig.Error(),
		},
		"empty-spec": {JobSpec{}, "scenario bytes or a shape"},
		"both-forms": {JobSpec{Scenario: []byte{0, 1}, Shape: "spiral", Size: 40}, "mutually exclusive"},
		"bad-shape":  {JobSpec{Shape: "klein-bottle", Size: 40}, "unknown shape"},
		"bad-config": {JobSpec{Shape: "spiral", Size: 40, Config: core.Config{ViewingPathLength: 3, RunPeriod: 1, MaxMergeLen: 1}}, core.ErrViewTooSmall.Error()},
	} {
		t.Run(name, func(t *testing.T) {
			v, code := submit(t, ts, tc.spec)
			if code != http.StatusBadRequest {
				t.Fatalf("status %d, want 400", code)
			}
			if !strings.Contains(v.Error, tc.want) {
				t.Fatalf("error %q does not mention %q", v.Error, tc.want)
			}
		})
	}

	// An unknown strategy cannot even be marshaled client-side (the
	// StrategyName codec refuses), so it goes over the wire raw.
	t.Run("bad-strategy", func(t *testing.T) {
		resp, err := http.Post(ts.URL+"/jobs", "application/json",
			strings.NewReader(`{"shape":"spiral","size":40,"strategy":"quantum"}`))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d, want 400", resp.StatusCode)
		}
		if !strings.Contains(string(body), "unknown strategy") {
			t.Fatalf("error %q does not mention the unknown strategy", body)
		}
	})
	if st := getStats(t, ts); st.EngineRounds != 0 || st.Entries != 0 {
		t.Fatalf("rejected jobs left state behind: %+v", st)
	}
}

// readStream fetches a job's SSE stream to completion.
func readStream(t *testing.T, ts *httptest.Server, id string) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + "/jobs/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream Content-Type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestStreamReplayByteIdentical pins the streaming contract: the SSE feed
// a live watcher receives — attached before the engine executed a single
// round — is byte for byte the feed a replay of the finished job serves,
// and the NDJSON replay carries the same trace with the sealed result as
// its final line.
func TestStreamReplayByteIdentical(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	hold := make(chan struct{})
	s.mu.Lock()
	s.testHold = hold
	s.mu.Unlock()

	spec := JobSpec{Shape: "spiral", Size: 80}
	v, code := submit(t, ts, spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	waitStatus(t, ts, v.ID, StatusRunning) // worker parked on the hold, zero rounds executed

	liveCh := make(chan []byte, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/jobs/" + v.ID + "/stream")
		if err != nil {
			liveCh <- nil
			return
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		liveCh <- body
	}()
	// Give the live watcher a moment to attach, then let the engine go.
	time.Sleep(20 * time.Millisecond)
	close(hold)

	live := <-liveCh
	if live == nil {
		t.Fatal("live stream failed")
	}
	done := waitStatus(t, ts, v.ID, StatusDone)

	replay := readStream(t, ts, v.ID)
	if !bytes.Equal(live, replay) {
		t.Fatalf("replay differs from live stream:\nlive:\n%s\nreplay:\n%s", live, replay)
	}
	if !bytes.Contains(live, []byte("event: result\n")) {
		t.Fatal("stream carries no terminal result event")
	}

	// NDJSON replay: one line per round, the sealed result last.
	resp, err := http.Get(ts.URL + "/results/" + v.Key + "/replay")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	nd, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSuffix(nd, []byte("\n")), []byte("\n"))
	if got := lines[len(lines)-1]; !bytes.Equal(got, done.Result) {
		t.Fatalf("NDJSON replay's last line is not the sealed result:\n%s\nvs\n%s", got, done.Result)
	}
	var res sim.Result
	if err := json.Unmarshal(done.Result, &res); err != nil {
		t.Fatal(err)
	}
	if rounds := len(lines) - 1; rounds != res.Rounds {
		t.Fatalf("NDJSON replay has %d round lines, result says %d rounds", rounds, res.Rounds)
	}
	if done.Rounds != res.Rounds {
		t.Fatalf("job view reports %d rounds, result says %d", done.Rounds, res.Rounds)
	}

	// Both feeds render the one contiguous trace log: every SSE data
	// event is the NDJSON line of the same round, in roundLine's encoding.
	var events [][]byte
	for _, ev := range bytes.Split(live, []byte("\n\n")) {
		if data, ok := bytes.CutPrefix(ev, []byte("data: ")); ok {
			events = append(events, data)
		}
	}
	if len(events) != res.Rounds {
		t.Fatalf("SSE stream has %d round events, result says %d rounds", len(events), res.Rounds)
	}
	for i, ev := range events {
		var rl roundLine
		if err := json.Unmarshal(ev, &rl); err != nil {
			t.Fatalf("round event %d: %v", i, err)
		}
		if again, _ := json.Marshal(rl); !bytes.Equal(ev, again) || !bytes.Equal(ev, lines[i]) {
			t.Fatalf("round %d: SSE %s, NDJSON %s, canonical %s", i, ev, lines[i], again)
		}
	}
}

// TestQueueFullRejected pins admission control: with one worker parked
// mid-job and a one-deep queue, a third distinct job is refused with 429
// — while a duplicate of the running one still coalesces instead of
// burning a queue slot.
func TestQueueFullRejected(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	hold := make(chan struct{})
	s.mu.Lock()
	s.testHold = hold
	s.mu.Unlock()

	spec := func(i int) JobSpec { return JobSpec{Shape: "spiral", Size: 80, MaxRounds: 100000 + i} }

	a, code := submit(t, ts, spec(0))
	if code != http.StatusAccepted {
		t.Fatalf("job a: status %d", code)
	}
	waitStatus(t, ts, a.ID, StatusRunning)

	if _, code := submit(t, ts, spec(1)); code != http.StatusAccepted {
		t.Fatalf("job b: status %d, want 202 (fills the queue)", code)
	}
	v, code := submit(t, ts, spec(2))
	if code != http.StatusTooManyRequests {
		t.Fatalf("job c: status %d, want 429", code)
	}
	if !strings.Contains(v.Error, "queue full") {
		t.Fatalf("429 body %q does not say the queue is full", v.Error)
	}
	dup, code := submit(t, ts, spec(0))
	if code != http.StatusAccepted || dup.ID != a.ID {
		t.Fatalf("duplicate of the running job: status %d id %s, want 202 coalesced onto %s", code, dup.ID, a.ID)
	}

	close(hold)
	waitStatus(t, ts, a.ID, StatusDone)
	if st := getStats(t, ts); st.Rejected != 1 || st.Coalesced != 1 {
		t.Fatalf("stats %+v, want exactly one rejection and one coalesce", st)
	}
}

// TestGracefulDrainSpoolsCheckpoint pins the shutdown path: Shutdown
// lands mid-run, the engine stops at a round boundary with status
// "cancelled", the cache slot is evicted (a cancellation is not a
// result), a resumable checkpoint appears in the spool directory — and
// resuming it finishes the run with exactly the result an uninterrupted
// run produces.
func TestGracefulDrainSpoolsCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s := New(Config{Workers: 1, SpoolDir: dir})
	ts := httptest.NewServer(s)
	defer ts.Close()

	started := make(chan struct{})
	var once sync.Once
	s.mu.Lock()
	s.testRoundHook = func() {
		once.Do(func() { close(started) })
		time.Sleep(2 * time.Millisecond) // stretch the run so the drain provably lands mid-flight
	}
	s.mu.Unlock()

	spec := JobSpec{Shape: "spiral", Size: 300}
	v, code := submit(t, ts, spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("drain did not complete: %v", err)
	}

	job := waitStatus(t, ts, v.ID, StatusCancelled)
	if job.Rounds == 0 {
		t.Fatal("cancelled before executing a single round; the hook should have guaranteed progress")
	}
	if _, code := submit(t, ts, spec); code != http.StatusServiceUnavailable {
		t.Fatalf("draining server accepted a job (status %d)", code)
	}
	if code := getJSON(t, ts.URL+"/results/"+v.Key, nil); code != http.StatusNotFound {
		t.Fatalf("cancelled run stayed in the cache (status %d)", code)
	}

	// The spooled checkpoint resumes to the same result an uninterrupted
	// run produces — the interruption is invisible in the bytes.
	cp, err := sim.ReadCheckpoint(filepath.Join(dir, v.Key+".ckpt"))
	if err != nil {
		t.Fatalf("spooled checkpoint: %v", err)
	}
	if cp.Strat.Round != job.Rounds {
		t.Fatalf("checkpoint at round %d, job reported %d trace lines", cp.Strat.Round, job.Rounds)
	}
	eng, err := sim.Restore(cp, spec.options())
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	ch, opts, err := spec.build()
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := sim.Gather(ch, opts)
	if err != nil {
		t.Fatal(err)
	}
	rj, _ := json.Marshal(resumed)
	fj, _ := json.Marshal(fresh)
	if !bytes.Equal(rj, fj) {
		t.Fatalf("resumed run diverged from the uninterrupted one:\n%s\nvs\n%s", rj, fj)
	}
}

// TestDNFResultsCache pins the other cacheable terminal state: a clean
// deterministic DNF (here the typed stall verdict of the lintime bugfix)
// is content too — the re-submission hits the cache with status "dnf" and
// the engine-round counter frozen.
func TestDNFResultsCache(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	ch, err := generate.Spiral(6)
	if err != nil {
		t.Fatal(err)
	}
	spec := JobSpec{
		Scenario: generate.ToBytes(ch),
		Strategy: core.StrategyLinTime,
		Sched:    sched.Config{Kind: sched.Random, Seed: 5},
	}
	v, code := submit(t, ts, spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	done := waitStatus(t, ts, v.ID, StatusDNF)
	if !strings.Contains(done.Error, "no progress") {
		t.Fatalf("DNF error %q is not the stall verdict", done.Error)
	}
	var res sim.Result
	if err := json.Unmarshal(done.Result, &res); err != nil {
		t.Fatal(err)
	}
	if res.Termination != core.TermStalled || res.Gathered {
		t.Fatalf("stalled DNF result: %+v", res)
	}
	st1 := getStats(t, ts)
	v2, code := submit(t, ts, spec)
	if code != http.StatusOK || !v2.Cached {
		t.Fatalf("DNF re-submit: status %d cached %v, want a 200 hit", code, v2.Cached)
	}
	if !bytes.Equal(v2.Result, done.Result) {
		t.Fatal("cached DNF result differs")
	}
	if st2 := getStats(t, ts); st2.EngineRounds != st1.EngineRounds {
		t.Fatal("DNF cache hit stepped the engine")
	}
}

// errorBody is a tiny sanity check used by the smoke battery in CI: every
// error path answers JSON with an "error" field. Exercised here so a
// handler regression fails locally before the workflow sees it.
func TestErrorBodiesAreJSON(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, url := range []string{
		ts.URL + "/jobs/nope",
		ts.URL + "/results/nope",
		ts.URL + "/results/nope/replay",
	} {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		var body map[string]string
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if err != nil || body["error"] == "" {
			t.Fatalf("GET %s: not a JSON error body (decode err %v, body %v)", url, err, body)
		}
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s: status %d, want 404", url, resp.StatusCode)
		}
	}
}

// roundLine is the reference encoding of one trace record: the SSE and
// NDJSON feeds must carry exactly the bytes json.Marshal gives for it.
type roundLine struct {
	Round  int `json:"round"`
	Len    int `json:"len"`
	Merges int `json:"merges"`
	Hops   int `json:"hops"`
}

// refLine encodes r through the reference encoder.
func refLine(t *testing.T, r roundRecord) []byte {
	t.Helper()
	line, err := json.Marshal(roundLine{Round: int(r.round), Len: int(r.chainLen), Merges: int(r.merges), Hops: int(r.hops)})
	if err != nil {
		t.Fatal(err)
	}
	return line
}

// TestRoundRecordRendering pins the record renderer to the reference
// encoder at zero, small values and each field's maximum, and the framed
// writer to the line-by-line rendering across several chunk boundaries.
func TestRoundRecordRendering(t *testing.T) {
	const top = math.MaxInt32
	for _, rec := range []roundRecord{
		{},
		{round: 1, chainLen: 4, hops: 2},
		{round: 57, chainLen: 131, merges: 3, hops: 96},
		{round: top},
		{chainLen: top},
		{merges: top},
		{hops: top},
		{top, top, top, top},
	} {
		if got, want := rec.appendJSON(nil), refLine(t, rec); !bytes.Equal(got, want) {
			t.Errorf("%+v renders %s, json.Marshal gives %s", rec, got, want)
		}
	}

	recs := make([]roundRecord, 500)
	for i := range recs {
		recs[i] = roundRecord{round: int32(i + 1), chainLen: int32(1000 - i), merges: int32(i % 3), hops: int32(7 * i)}
	}
	var want, got bytes.Buffer
	for _, rec := range recs {
		fmt.Fprintf(&want, "data: %s\n\n", refLine(t, rec))
	}
	if want.Len() < 3*renderChunk {
		t.Fatalf("%d bytes do not cross several %d-byte chunks", want.Len(), renderChunk)
	}
	if _, err := writeRounds(&got, nil, recs, "data: ", "\n\n"); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("writeRounds differs from rendering each line on its own")
	}
}

// TestBodyDigestHit pins the two hit paths: a byte-identical re-POST is
// answered through the body digest (bodyHits +1) without stepping the
// engine, with the same bytes a re-spelled body gets through the content
// key; the re-spelled body leaves bodyHits alone and is not indexed.
func TestBodyDigestHit(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	body := []byte(`{"shape":"spiral","size":80,"strategy":"lintime"}`)
	respelled := []byte("{ \"strategy\": \"lintime\",\n  \"size\": 80, \"shape\": \"spiral\" }\n")

	code, raw := postRaw(t, ts, "/jobs", body)
	var v jobView
	if err := json.Unmarshal(raw, &v); err != nil || code != http.StatusAccepted {
		t.Fatalf("first submit: status %d, %v: %s", code, err, raw)
	}
	waitStatus(t, ts, v.ID, StatusDone)
	st := getStats(t, ts)

	code, byBody := postRaw(t, ts, "/jobs", body)
	if code != http.StatusOK || !bytes.Contains(byBody, []byte(`"cached":true`)) {
		t.Fatalf("identical re-submit: status %d: %s", code, byBody)
	}
	st1 := getStats(t, ts)
	if st1.BodyHits != st.BodyHits+1 || st1.CacheHits != st.CacheHits+1 || st1.Submitted != st.Submitted+1 {
		t.Fatalf("identical re-submit: stats %+v after %+v, want one more submission, hit and body hit", st1, st)
	}
	if st1.EngineRounds != st.EngineRounds {
		t.Fatalf("body hit stepped the engine: %d rounds before, %d after", st.EngineRounds, st1.EngineRounds)
	}

	for i := 0; i < 2; i++ {
		code, byKey := postRaw(t, ts, "/jobs", respelled)
		if code != http.StatusOK {
			t.Fatalf("re-spelled submit %d: status %d: %s", i, code, byKey)
		}
		if !bytes.Equal(byKey, byBody) {
			t.Fatalf("re-spelled submit %d answers\n%s\nthe identical body got\n%s", i, byKey, byBody)
		}
		st2 := getStats(t, ts)
		if st2.BodyHits != st1.BodyHits || st2.CacheHits != st1.CacheHits+1+i || st2.EngineRounds != st1.EngineRounds {
			t.Fatalf("re-spelled submit %d: stats %+v after %+v, want a content-key hit only", i, st2, st1)
		}
	}
}

// TestBodyDigestCoalescesLiveJob pins the digest path on a live entry: an
// identical body coalesces onto the running job (202, same id), and only
// once that job is done does it become a body hit.
func TestBodyDigestCoalescesLiveJob(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	hold := make(chan struct{})
	s.mu.Lock()
	s.testHold = hold
	s.mu.Unlock()
	body := []byte(`{"shape":"spiral","size":80}`)

	code, raw := postRaw(t, ts, "/jobs", body)
	var first jobView
	if err := json.Unmarshal(raw, &first); err != nil || code != http.StatusAccepted {
		t.Fatalf("first submit: status %d, %v: %s", code, err, raw)
	}
	waitStatus(t, ts, first.ID, StatusRunning)
	code, raw = postRaw(t, ts, "/jobs", body)
	var dup jobView
	if err := json.Unmarshal(raw, &dup); err != nil || code != http.StatusAccepted || dup.ID != first.ID || dup.Cached {
		t.Fatalf("identical body on a live job: status %d id %q cached %v (%v), want 202 coalesced onto %s",
			code, dup.ID, dup.Cached, err, first.ID)
	}
	if st := getStats(t, ts); st.Coalesced != 1 || st.CacheHits != 0 || st.BodyHits != 0 {
		t.Fatalf("stats %+v, want one coalesce and no hits", st)
	}

	close(hold)
	waitStatus(t, ts, first.ID, StatusDone)
	if code, raw := postRaw(t, ts, "/jobs", body); code != http.StatusOK {
		t.Fatalf("identical body on the finished job: status %d: %s", code, raw)
	}
	if st := getStats(t, ts); st.BodyHits != 1 {
		t.Fatalf("stats %+v, want one body hit", st)
	}
}

// TestBodyDigestConcurrentSubmits races two spellings of one job from
// many clients, against its run and then against its finished entry:
// every submission lands on the one entry, the engine runs once, and in
// the second wave exactly the requests that repeat the creating body's
// bytes are body hits.
func TestBodyDigestConcurrentSubmits(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	spellings := [][]byte{[]byte(`{"shape":"spiral","size":120}`), []byte(`{"size":120,"shape":"spiral"}`)}
	const n = 16
	wave := func() []jobView {
		views := make([]jobView, n)
		var wg sync.WaitGroup
		for i := range views {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(spellings[i%2]))
				if err != nil {
					t.Error(err)
					return
				}
				defer resp.Body.Close()
				if err := json.NewDecoder(resp.Body).Decode(&views[i]); err != nil || resp.StatusCode >= 300 {
					t.Errorf("submit %d: status %d, %v", i, resp.StatusCode, err)
				}
			}(i)
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
		for i, v := range views {
			if v.ID != views[0].ID {
				t.Fatalf("submit %d landed on job %q, submit 0 on %q", i, v.ID, views[0].ID)
			}
		}
		return views
	}

	first := wave()
	done := waitStatus(t, ts, first[0].ID, StatusDone)
	st1 := getStats(t, ts)
	if st1.Submitted != n || st1.CacheHits+st1.Coalesced != n-1 || st1.EngineRounds != int64(done.Rounds) {
		t.Fatalf("first wave: stats %+v, want %d submissions on one %d-round run", st1, n, done.Rounds)
	}

	wave()
	st2 := getStats(t, ts)
	if st2.CacheHits != st1.CacheHits+n || st2.BodyHits != st1.BodyHits+n/2 || st2.EngineRounds != st1.EngineRounds {
		t.Fatalf("second wave: stats %+v after %+v, want %d hits, %d through the body digest", st2, st1, n, n/2)
	}
}

// TestBodyDigestDroppedOnEviction pins that the digest goes with its
// entry: once a MaxJobWall deadline evicts the entry, the identical body
// enqueues a fresh job instead of answering from the evicted one.
func TestBodyDigestDroppedOnEviction(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, MaxJobWall: 20 * time.Millisecond})
	s.mu.Lock()
	s.testRoundHook = func() { time.Sleep(2 * time.Millisecond) } // outlast the cap
	s.mu.Unlock()
	body := []byte(`{"shape":"spiral","size":300}`)

	code, raw := postRaw(t, ts, "/jobs", body)
	var first jobView
	if err := json.Unmarshal(raw, &first); err != nil || code != http.StatusAccepted {
		t.Fatalf("first submit: status %d, %v: %s", code, err, raw)
	}
	waitStatus(t, ts, first.ID, StatusDeadline)
	s.mu.Lock()
	indexed := len(s.bodies)
	s.mu.Unlock()
	if indexed != 0 {
		t.Fatalf("%d body digests outlived their evicted entry", indexed)
	}

	code, raw = postRaw(t, ts, "/jobs", body)
	var fresh jobView
	if err := json.Unmarshal(raw, &fresh); err != nil || code != http.StatusAccepted || fresh.ID == first.ID || fresh.Cached {
		t.Fatalf("identical body after eviction: status %d id %q cached %v (%v), want a fresh 202 job",
			code, fresh.ID, fresh.Cached, err)
	}
	if st := getStats(t, ts); st.BodyHits != 0 || st.CacheHits != 0 || st.Coalesced != 0 {
		t.Fatalf("stats %+v, want no hit of any kind", st)
	}
	waitStatus(t, ts, fresh.ID, StatusDeadline)
}

// TestBodyDigestSkipsRejectedBodies pins that only admitted bodies are
// indexed: a body that fails decoding or validation answers 400 every
// time it is sent and leaves no digest behind.
func TestBodyDigestSkipsRejectedBodies(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	for _, body := range []string{
		`{"shape":"spiral",`,
		`{"shape":"klein-bottle","size":40}`,
		`{"shape":"rectangle","size":32,"config":{"ViewingPathLength":11,"RunPeriod":13,"MaxMergeLen":8}}`,
	} {
		for i := 0; i < 2; i++ {
			if code, raw := postRaw(t, ts, "/jobs", []byte(body)); code != http.StatusBadRequest {
				t.Fatalf("%s, attempt %d: status %d, want 400: %s", body, i, code, raw)
			}
		}
	}
	s.mu.Lock()
	indexed := len(s.bodies)
	s.mu.Unlock()
	if st := getStats(t, ts); indexed != 0 || st.Submitted != 0 || st.BodyHits != 0 || st.Entries != 0 {
		t.Fatalf("rejected bodies left state behind: %d digests, stats %+v", indexed, st)
	}
}

// TestJobSizeCap pins the chain-size cap of the shape form: a Size at
// MaxJobSize builds, one above it answers 400 with ErrBadJob before any
// chain is generated and admits nothing, for a deterministic and a seeded
// family.
func TestJobSizeCap(t *testing.T) {
	for _, shape := range []string{"rectangle", "polyomino"} {
		at := JobSpec{Shape: shape, Size: MaxJobSize, Seed: 3}
		if _, err := CacheKey(at); err != nil {
			t.Fatalf("%s at the cap: %v", shape, err)
		}
		above := JobSpec{Shape: shape, Size: MaxJobSize + 1, Seed: 3}
		if _, err := CacheKey(above); !errors.Is(err, ErrBadJob) {
			t.Fatalf("%s one above the cap: err %v, want ErrBadJob", shape, err)
		}
	}
	_, ts := newTestServer(t, Config{Workers: 1})
	for _, body := range []string{
		fmt.Sprintf(`{"shape":"rectangle","size":%d}`, MaxJobSize+1),
		fmt.Sprintf(`{"shape":"polyomino","size":%d,"seed":3}`, MaxJobSize+1),
		`{"shape":"polyomino","size":100000}`,
		`{"shape":"rectangle","size":2000000000}`,
	} {
		code, raw := postRaw(t, ts, "/jobs", []byte(body))
		if code != http.StatusBadRequest || !bytes.Contains(raw, []byte(ErrBadJob.Error())) {
			t.Fatalf("%s: status %d: %s, want 400 naming ErrBadJob", body, code, raw)
		}
	}
	if st := getStats(t, ts); st.Submitted != 0 || st.Entries != 0 {
		t.Fatalf("oversize chains admitted something: %+v", st)
	}
}

// TestOversizeJobBodyRejected pins the POST /jobs body cap: a valid job
// padded with whitespace past maxBodyBytes answers 413 and admits
// nothing, while the same job padded to exactly the cap is accepted.
func TestOversizeJobBodyRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	job := []byte(`{"shape":"spiral","size":40}`)
	pad := func(n int) []byte { return append(bytes.Clone(job), bytes.Repeat([]byte(" "), n-len(job))...) }

	code, raw := postRaw(t, ts, "/jobs", pad(maxBodyBytes+1))
	if code != http.StatusRequestEntityTooLarge || !bytes.Contains(raw, []byte(ErrBadJob.Error())) {
		t.Fatalf("oversize body: status %d: %s, want 413 naming ErrBadJob", code, raw)
	}
	if st := getStats(t, ts); st.Submitted != 0 || st.Entries != 0 {
		t.Fatalf("oversize body admitted something: %+v", st)
	}
	if code, raw := postRaw(t, ts, "/jobs", pad(maxBodyBytes)); code != http.StatusAccepted {
		t.Fatalf("body at the cap: status %d: %s, want 202", code, raw)
	}
}
