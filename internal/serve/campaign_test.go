package serve

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"gridgather/internal/sim"
	"gridgather/internal/workload"
)

// campaignSpec is a 20-item declarative campaign small enough to run in
// milliseconds: deterministic generators under FSYNC, both strategies.
// Deterministic families repeat chains across items, so the campaign also
// exercises within-campaign deduplication (identical items share a cache
// entry and one engine run).
const campaignSpec = `name: camp-test
seed: 3
items: 20
families:
  - shape: spiral
    size: 48
  - shape: rectangle
    size: 40
strategies:
  - paper
  - lintime
`

// postCampaign POSTs a YAML spec body and decodes the campaignView.
func postCampaign(t *testing.T, ts *httptest.Server, body string) (campaignView, int, string) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/campaign", "application/yaml", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var v campaignView
	if resp.StatusCode < 300 {
		if err := json.Unmarshal(raw, &v); err != nil {
			t.Fatalf("campaign response %q: %v", raw, err)
		}
	}
	return v, resp.StatusCode, string(raw)
}

// waitCampaign polls a campaign until every item is terminal.
func waitCampaign(t *testing.T, ts *httptest.Server, id string) campaignView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		var v campaignView
		if code := getJSON(t, ts.URL+"/campaigns/"+id, &v); code != http.StatusOK {
			t.Fatalf("GET /campaigns/%s: status %d", id, code)
		}
		if v.Done {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign %s never finished: statuses %v", id, v.Statuses)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestCampaignRunAndCacheHit is the campaign acceptance test: a 20-item
// spec fans over the queue (deliberately deeper than QueueDepth, so the
// background feeder is on the hot path), every item reaches a terminal
// status, and re-POSTing the identical spec bytes answers entirely from
// the content-addressed cache — 200, every item cached, and the
// engine-round counter frozen.
func TestCampaignRunAndCacheHit(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 4})

	v1, code, raw := postCampaign(t, ts, campaignSpec)
	if code != http.StatusAccepted {
		t.Fatalf("first POST /campaign: status %d, body %s", code, raw)
	}
	if v1.Items != 20 || len(v1.Jobs) != 20 {
		t.Fatalf("campaign admitted %d items (%d job rows), want 20", v1.Items, len(v1.Jobs))
	}
	if v1.Name != "camp-test" {
		t.Fatalf("campaign name %q", v1.Name)
	}

	done := waitCampaign(t, ts, v1.ID)
	for _, j := range done.Jobs {
		if j.Status != StatusDone && j.Status != StatusDNF {
			t.Fatalf("item %d ended %q, want done or dnf", j.Index, j.Status)
		}
	}
	st1 := getStats(t, ts)
	if st1.EngineRounds == 0 {
		t.Fatal("campaign ran without stepping the engine")
	}
	if st1.Submitted != 20 {
		t.Fatalf("Submitted = %d, want 20", st1.Submitted)
	}

	// Every item's result is addressable by its content key, like any
	// hand-submitted job.
	var byKey jobView
	if code := getJSON(t, ts.URL+"/results/"+done.Jobs[0].Key, &byKey); code != http.StatusOK {
		t.Fatalf("GET /results/{key} for a campaign item: status %d", code)
	}
	if len(byKey.Result) == 0 {
		t.Fatal("campaign item result is empty")
	}

	// The re-POST: same spec bytes, zero engine rounds.
	v2, code, raw := postCampaign(t, ts, campaignSpec)
	if code != http.StatusOK {
		t.Fatalf("re-POST /campaign: status %d, body %s — want 200 all-cached", code, raw)
	}
	if !v2.Done {
		t.Fatal("re-POST campaign not terminal at admission")
	}
	for _, j := range v2.Jobs {
		if !j.Cached {
			t.Fatalf("re-POST item %d not served from cache (status %q)", j.Index, j.Status)
		}
	}
	st2 := getStats(t, ts)
	if st2.EngineRounds != st1.EngineRounds {
		t.Fatalf("campaign cache hit stepped the engine: %d rounds before, %d after", st1.EngineRounds, st2.EngineRounds)
	}
	if st2.CacheHits < 20 {
		t.Fatalf("CacheHits = %d, want >= 20 (every re-POSTed item)", st2.CacheHits)
	}
}

// TestCampaignRejections pins the campaign 400 wall: unparseable YAML,
// unknown spec fields, the typed E11 livelock rejection, and an item
// count past the per-request cap are all refused with JSON errors before
// anything reaches the queue.
func TestCampaignRejections(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for name, tc := range map[string]struct{ body, want string }{
		"not-yaml":      {"{{{", "invalid spec"},
		"unknown-field": {"seed: 1\nitems: 2\nbogus: 1\nfamilies:\n  - shape: walk\n    size: 32\n", "unknown field"},
		"bad-shape":     {"seed: 1\nitems: 2\nfamilies:\n  - shape: klein-bottle\n    size: 32\n", "unknown shape"},
		"livelock": {
			"seed: 1\nitems: 2\nconfig:\n  view: 11\n  period: 13\n  mergelen: 8\nfamilies:\n  - shape: walk\n    size: 32\n",
			sim.ErrLivelockConfig.Error(),
		},
		"too-many-items": {"seed: 1\nitems: 100000\nfamilies:\n  - shape: walk\n    size: 32\n", "at most"},
	} {
		t.Run(name, func(t *testing.T) {
			_, code, raw := postCampaign(t, ts, tc.body)
			if code != http.StatusBadRequest {
				t.Fatalf("status %d, want 400 (body %s)", code, raw)
			}
			if !strings.Contains(raw, tc.want) {
				t.Fatalf("error %q does not mention %q", raw, tc.want)
			}
		})
	}
	if st := getStats(t, ts); st.EngineRounds != 0 || st.Entries != 0 {
		t.Fatalf("rejected campaigns left state behind: %+v", st)
	}
	if code := getJSON(t, ts.URL+"/campaigns/nope", nil); code != http.StatusNotFound {
		t.Fatalf("GET /campaigns/nope: status %d, want 404", code)
	}
}

// TestCampaignDrainSpoolsCheckpoints pins the mid-campaign drain: with a
// long-running campaign in flight, Shutdown cancels every item at a round
// boundary, the interrupted runs spool per-item resume checkpoints, and a
// draining server refuses new campaigns with 503.
func TestCampaignDrainSpoolsCheckpoints(t *testing.T) {
	dir := t.TempDir()
	s := New(Config{Workers: 1, SpoolDir: dir})
	ts := httptest.NewServer(s)
	defer ts.Close()

	started := make(chan struct{})
	var once sync.Once
	s.mu.Lock()
	s.testRoundHook = func() {
		once.Do(func() { close(started) })
		time.Sleep(2 * time.Millisecond) // stretch the runs so the drain lands mid-campaign
	}
	s.mu.Unlock()

	spec := "name: camp-drain\nseed: 5\nitems: 3\nfamilies:\n  - shape: spiral\n    size: 300\n"
	v, code, raw := postCampaign(t, ts, spec)
	if code != http.StatusAccepted {
		t.Fatalf("POST /campaign: status %d, body %s", code, raw)
	}
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("drain did not complete: %v", err)
	}

	var after campaignView
	getJSON(t, ts.URL+"/campaigns/"+v.ID, &after)
	if after.Statuses[StatusCancelled] == 0 {
		t.Fatalf("drained campaign has no cancelled items: %v", after.Statuses)
	}
	for _, j := range after.Jobs {
		if j.Status == StatusRunning || j.Status == StatusQueued {
			t.Fatalf("item %d still %q after Shutdown returned", j.Index, j.Status)
		}
	}

	// At least the mid-run item spooled a resumable checkpoint named by its
	// content key.
	spooled := 0
	for _, j := range after.Jobs {
		path := filepath.Join(dir, j.Key+".ckpt")
		if _, err := os.Stat(path); err != nil {
			continue
		}
		if _, err := sim.ReadCheckpoint(path); err != nil {
			t.Fatalf("spooled checkpoint %s unreadable: %v", path, err)
		}
		spooled++
	}
	if spooled == 0 {
		t.Fatal("drain spooled no campaign checkpoints")
	}

	if _, code, _ := postCampaign(t, ts, spec); code != http.StatusServiceUnavailable {
		t.Fatalf("draining server accepted a campaign (status %d)", code)
	}
}

// TestOversizeCampaignBodyRejected pins the POST /campaign body cap: a
// valid spec padded with a comment past maxBodyBytes answers 413 and
// admits no campaign and no item.
func TestOversizeCampaignBodyRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	body := campaignSpec + "# " + strings.Repeat("x", maxBodyBytes)
	_, code, raw := postCampaign(t, ts, body)
	if code != http.StatusRequestEntityTooLarge || !strings.Contains(raw, workload.ErrBadSpec.Error()) {
		t.Fatalf("oversize campaign: status %d: %s, want 413 naming the spec error", code, raw)
	}
	if st := getStats(t, ts); st.Submitted != 0 || st.Entries != 0 {
		t.Fatalf("oversize campaign admitted items: %+v", st)
	}
	if code := getJSON(t, ts.URL+"/campaigns/c1", nil); code != http.StatusNotFound {
		t.Fatalf("GET /campaigns/c1 after the 413: status %d, want 404", code)
	}
}
