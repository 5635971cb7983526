package serve

import (
	"errors"
	"fmt"
	"net/http"

	"gridgather/internal/workload"
)

// maxCampaignItems bounds one POST /campaign expansion. The workload
// codec itself allows much larger campaigns (workload.MaxItems) for
// offline tools; a serving process fans a campaign over its bounded
// worker pool, so an oversized spec is a client error, not a queue bomb.
const maxCampaignItems = 4096

// campaign is one admitted POST /campaign: the expanded items' cache
// entries in item order, plus whether each was answered from the cache at
// admission. Entries are shared with the ordinary job maps — a campaign
// item is a job like any other, deduplicated by the same content address.
type campaign struct {
	id      string
	name    string
	entries []*entry
	cached  []bool
}

// campaignJobView is one item row of a campaign view.
type campaignJobView struct {
	Index  int    `json:"index"`
	JobID  string `json:"jobId"`
	Key    string `json:"key"`
	Status string `json:"status"`
	Cached bool   `json:"cached,omitempty"`
}

// campaignView is the JSON shape of POST /campaign and GET /campaigns/{id}.
type campaignView struct {
	ID       string            `json:"id"`
	Name     string            `json:"name,omitempty"`
	Items    int               `json:"items"`
	Statuses map[string]int    `json:"statuses"`
	Done     bool              `json:"done"`
	Jobs     []campaignJobView `json:"jobs"`
}

// campaignViewLocked renders a campaign. Callers hold s.mu.
func (s *Server) campaignViewLocked(c *campaign) campaignView {
	v := campaignView{
		ID:       c.id,
		Name:     c.name,
		Items:    len(c.entries),
		Statuses: map[string]int{},
		Jobs:     make([]campaignJobView, len(c.entries)),
		Done:     true,
	}
	for i, e := range c.entries {
		v.Statuses[e.status]++
		if !e.terminal() {
			v.Done = false
		}
		v.Jobs[i] = campaignJobView{Index: i, JobID: e.id, Key: e.key, Status: e.status, Cached: c.cached[i]}
	}
	return v
}

// itemJobSpec lowers one expanded workload item to the server's job wire
// form. The item is self-contained (Scenario carries the exact chain
// bytes), so the lowering is a field-by-field copy — the cache key of a
// campaign item equals the key of the identical hand-submitted job.
func itemJobSpec(it workload.Item) JobSpec {
	return JobSpec{
		Scenario:  it.Scenario,
		Config:    it.Config,
		Strategy:  it.Strategy,
		Sched:     it.Sched,
		MaxRounds: it.MaxRounds,
	}
}

// handleCampaign admits a whole declarative campaign in one request: the
// body is a workload spec in YAML, expanded deterministically into its
// item stream; every item is admitted through the same content-addressed
// cache as POST /jobs (terminal entries answer without touching the
// queue, live ones coalesce, new ones enqueue). Items beyond the queue's
// free space are fed by a background goroutine as workers drain it, so a
// campaign may be larger than QueueDepth; a drain cancels unfed items
// cleanly. 413 on a body over maxBodyBytes, 400 on any spec rejection
// (including the typed E11 livelock error), 503 while draining, 200 when
// the whole campaign was answered terminal at admission, 202 otherwise.
func (s *Server) handleCampaign(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r, workload.ErrBadSpec)
	if !ok {
		return
	}
	sp, err := workload.ParseSpec(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if sp.Items > maxCampaignItems {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("%w: campaign has %d items, this server accepts at most %d per request", workload.ErrBadSpec, sp.Items, maxCampaignItems))
		return
	}
	items, err := sp.Expand(r.Context(), 0)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// Lower and key every item before taking the lock: building chains and
	// hashing is pure CPU the admission critical section shouldn't hold.
	specs := make([]JobSpec, len(items))
	keys := make([]string, len(items))
	for i, it := range items {
		specs[i] = itemJobSpec(it)
		ch, opts, err := specs[i].build()
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("item %d: %w", i, err))
			return
		}
		if keys[i], err = cacheKey(ch, opts, specs[i].Workers); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("item %d: %w", i, err))
			return
		}
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, errors.New("serve: draining, not accepting campaigns"))
		return
	}
	s.campSeq++
	c := &campaign{
		id:      fmt.Sprintf("c%d", s.campSeq),
		name:    sp.Name,
		entries: make([]*entry, len(items)),
		cached:  make([]bool, len(items)),
	}
	var pending []*entry
	for i := range items {
		s.stats.Submitted++
		if e, ok := s.entries[keys[i]]; ok {
			// A repeated key inside the campaign lands here too: identical
			// items share one entry and one engine run.
			if e.terminal() {
				s.stats.CacheHits++
				c.cached[i] = true
			} else {
				s.stats.Coalesced++
			}
			c.entries[i] = e
			continue
		}
		s.seq++
		e := &entry{
			id:     fmt.Sprintf("j%d", s.seq),
			key:    keys[i],
			spec:   specs[i],
			status: StatusQueued,
			wake:   make(chan struct{}),
		}
		s.entries[e.key] = e
		s.jobs[e.id] = e
		c.entries[i] = e
		pending = append(pending, e)
	}
	s.campaigns[c.id] = c
	if len(pending) > 0 {
		// The Add happens under s.mu with draining known false, so Shutdown
		// (which sets draining under the same lock, then waits) cannot miss
		// this feeder.
		s.feeders.Add(1)
		go s.feedCampaign(pending)
	}
	view := s.campaignViewLocked(c)
	s.mu.Unlock()
	code := http.StatusAccepted
	if view.Done {
		code = http.StatusOK
	}
	writeJSON(w, code, view)
}

// feedCampaign pushes a campaign's new entries into the worker queue with
// blocking sends, so campaigns larger than QueueDepth drain through it as
// workers free slots. A drain cancels cleanly: items not yet handed to
// the queue seal as cancelled (the queue itself only closes after every
// feeder has returned — see Shutdown).
func (s *Server) feedCampaign(pending []*entry) {
	defer s.feeders.Done()
	for _, e := range pending {
		s.mu.Lock()
		draining := s.draining
		s.mu.Unlock()
		if draining {
			s.seal(e, nil, StatusCancelled, errors.New("serve: draining before the item started"))
			continue
		}
		select {
		case s.queue <- e:
		case <-s.ctx.Done():
			s.seal(e, nil, StatusCancelled, errors.New("serve: draining before the item started"))
		}
	}
}

// handleCampaignGet reports a campaign's live progress: per-item statuses
// and the aggregate rollup. Poll until done, then fetch each item's
// result by key.
func (s *Server) handleCampaignGet(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	c, ok := s.campaigns[r.PathValue("id")]
	if !ok {
		s.mu.Unlock()
		writeError(w, http.StatusNotFound, fmt.Errorf("serve: unknown campaign %q", r.PathValue("id")))
		return
	}
	view := s.campaignViewLocked(c)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, view)
}
