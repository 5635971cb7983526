package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"gridgather/internal/chain"
	"gridgather/internal/core"
	"gridgather/internal/parallel"
	"gridgather/internal/sim"
	"gridgather/internal/workload"
)

// Job lifecycle statuses. done and dnf are the deterministic terminal
// states — their results stay in the cache forever; failed, cancelled and
// deadline are evicted, because they describe this process's runtime, not
// the simulation's content.
const (
	StatusQueued    = "queued"
	StatusRunning   = "running"
	StatusDone      = "done"      // gathered
	StatusDNF       = "dnf"       // clean deterministic DNF: watchdog or stall verdict
	StatusFailed    = "failed"    // engine error (invariant, panic, bad state)
	StatusCancelled = "cancelled" // server drain stopped the run at a round boundary
	StatusDeadline  = "deadline"  // the per-job wall-clock cap expired
)

// Config tunes a Server. The zero value is usable: two workers, a
// sixteen-deep queue, no wall-clock cap, no spool directory.
type Config struct {
	// Workers is the size of the job worker pool — how many engines run
	// concurrently. Defaults to 2. This is inter-job parallelism; each
	// engine steps its rounds on one goroutine.
	Workers int
	// QueueDepth bounds the number of admitted-but-unstarted jobs. A
	// submission that would exceed it is refused with 429 — backpressure
	// belongs at admission, not in an unbounded queue. Defaults to 16.
	QueueDepth int
	// MaxJobWall, when positive, caps each job's wall-clock run time via
	// the engine's MaxWallTime option; an expired job ends with status
	// "deadline" and is evicted from the cache (wall-clock verdicts are
	// about this machine, not the simulation).
	MaxJobWall time.Duration
	// SpoolDir, when set, receives a checkpoint artifact (<key>.ckpt)
	// for every run the drain or the wall-clock cap stopped, so a later
	// process can resume it with sim.ReadCheckpoint + sim.Restore.
	SpoolDir string
}

// maxBodyBytes caps the POST /jobs and POST /campaign bodies: 1 MiB, the
// workload codec's own spec limit, so every spec the codec accepts fits,
// and thousands of times any job body. An oversize body answers 413
// before anything is decoded or admitted.
const maxBodyBytes = workload.MaxSpecBytes

// entry is one cache slot: the job bound to a cache key, its live trace,
// and — once terminal — its sealed result. Identical submissions coalesce
// onto one entry whether it is queued, running or finished; the entry is
// the unit of both deduplication and streaming.
type entry struct {
	id  string
	key string
	// body is the SHA-256 of the POST /jobs body that created the entry,
	// its key in Server.bodies. Campaign items have no body of their own
	// and leave it zero; seal drops the index slot only if it points back
	// at this entry.
	body   [sha256.Size]byte
	spec   JobSpec
	status string
	errMsg string
	// trace is the append-only round trace, one fixed-width record per
	// executed round; its length is the entry's round count. Readers
	// snapshot the slice under the server mutex and then read lock-free:
	// appends only write past the published length, so a snapshot stays
	// valid. seal copies it to its exact length, so a finished entry
	// retains no append slack.
	trace []roundRecord
	// result is the sealed sim.Result JSON, set exactly once when the
	// entry reaches a terminal status.
	result []byte
	// wake is closed and replaced on every append or status change — a
	// broadcast that costs nothing when nobody streams.
	wake chan struct{}
}

func (e *entry) terminal() bool {
	switch e.status {
	case StatusDone, StatusDNF, StatusFailed, StatusCancelled, StatusDeadline:
		return true
	}
	return false
}

// cacheable reports whether the entry's terminal state is a pure function
// of the job content. Gathered runs and clean DNFs are; anything decided
// by this process's wall-clock or failures is not.
func (e *entry) cacheable() bool {
	return e.status == StatusDone || e.status == StatusDNF
}

// Stats is the GET /stats payload: the counters the cache tests assert
// against. EngineRounds is the instrumented engine-step counter — the sum
// of rounds actually executed by this process — so "a cache hit steps the
// engine zero times" is a measurable claim, not a belief.
//
// CacheHits counts every submission answered from a finished entry;
// BodyHits counts the subset found through the body digest, byte-identical
// re-submissions that skipped decoding and the chain rebuild.
type Stats struct {
	Submitted    int   `json:"submitted"`
	CacheHits    int   `json:"cacheHits"`
	BodyHits     int   `json:"bodyHits"`
	Coalesced    int   `json:"coalesced"`
	Rejected     int   `json:"rejected"`
	EngineRounds int64 `json:"engineRounds"`
	Entries      int   `json:"entries"`
	Draining     bool  `json:"draining"`
}

// Server is the gathering-as-a-service HTTP handler: a bounded worker
// pool draining a job queue, a content-addressed result cache, and the
// streaming machinery over both. Build one with New, mount it anywhere
// (it implements http.Handler), and stop it with Shutdown.
type Server struct {
	cfg Config
	mux *http.ServeMux

	ctx         context.Context
	cancel      context.CancelFunc
	queue       chan *entry
	workersDone chan struct{}

	// feeders counts live campaign feeder goroutines (blocking queue
	// senders); Shutdown waits for them before closing the queue, so a
	// feeder can never send on a closed channel.
	feeders sync.WaitGroup

	mu      sync.Mutex
	entries map[string]*entry // cache key -> entry (evicted on non-cacheable end)
	// bodies maps the SHA-256 of a creating POST /jobs body to its entry:
	// at most one digest per entry, dropped when seal evicts the entry, so
	// it never outgrows entries and never points at an evicted slot.
	bodies    map[[sha256.Size]byte]*entry
	jobs      map[string]*entry // job id -> entry (never evicted; ids stay resolvable)
	campaigns map[string]*campaign
	seq       int
	campSeq   int
	draining  bool
	stats     Stats

	// testHold, when non-nil, gates every worker between dequeuing a job
	// and running it: runJob publishes StatusRunning, then blocks until
	// the channel yields. Tests use it to pin a worker mid-job so queue
	// overflow (429) and drain behaviour become deterministic.
	testHold chan struct{}
	// testRoundHook, when non-nil, runs after every observed round —
	// tests use it to slow a job down so Shutdown provably lands mid-run.
	testRoundHook func()
}

// New builds a Server and starts its worker pool. The pool runs until
// Shutdown closes the queue.
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 16
	}
	s := &Server{
		cfg:         cfg,
		mux:         http.NewServeMux(),
		queue:       make(chan *entry, cfg.QueueDepth),
		workersDone: make(chan struct{}),
		entries:     make(map[string]*entry),
		bodies:      make(map[[sha256.Size]byte]*entry),
		jobs:        make(map[string]*entry),
		campaigns:   make(map[string]*campaign),
	}
	s.ctx, s.cancel = context.WithCancel(context.Background())
	s.mux.HandleFunc("POST /jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /jobs/{id}", s.handleJob)
	s.mux.HandleFunc("GET /jobs/{id}/stream", s.handleStream)
	s.mux.HandleFunc("POST /campaign", s.handleCampaign)
	s.mux.HandleFunc("GET /campaigns/{id}", s.handleCampaignGet)
	s.mux.HandleFunc("GET /results/{key}", s.handleResult)
	s.mux.HandleFunc("GET /results/{key}/replay", s.handleReplay)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	go func() {
		defer close(s.workersDone)
		// ForEach with workers == n pins one goroutine per pool slot;
		// each loops over the shared queue until Shutdown closes it.
		_ = parallel.ForEach(cfg.Workers, cfg.Workers, func(int) error {
			for e := range s.queue {
				s.runJob(e)
			}
			return nil
		})
	}()
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Shutdown drains the server: submissions start answering 503, running
// engines are cancelled at their next round boundary through the
// RunContext path — each spools a resume checkpoint when SpoolDir is set —
// and the queue closes so idle workers exit. The close waits for campaign
// feeders first (they hold blocking sends on the queue; the cancelled
// context unblocks them and their unfed items seal as cancelled), so the
// queue is provably send-free when it closes. It returns once every
// worker has finished, or with ctx's error if the caller's patience runs
// out first.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	s.mu.Unlock()
	s.cancel()
	if !already {
		s.feeders.Wait()
		close(s.queue)
	}
	select {
	case <-s.workersDone:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// broadcastLocked wakes every waiting streamer. Callers hold s.mu.
func (s *Server) broadcastLocked(e *entry) {
	if e.wake != nil {
		close(e.wake)
	}
	e.wake = make(chan struct{})
}

// runJob executes one admitted entry on a pool worker: rebuild the chain
// (the spec was validated at admission), run the engine under the server
// context and the wall-clock cap, publish each round as a trace record, and
// seal the terminal status. Non-cacheable ends evict the cache slot and
// spool a checkpoint for resumption.
func (s *Server) runJob(e *entry) {
	s.mu.Lock()
	e.status = StatusRunning
	s.broadcastLocked(e)
	hold := s.testHold
	hook := s.testRoundHook
	s.mu.Unlock()
	if hold != nil {
		<-hold
	}

	ch, opts, err := e.spec.build()
	if err != nil {
		// Unreachable after admission; seal it as failed rather than panic.
		s.seal(e, nil, StatusFailed, err)
		return
	}
	opts.MaxWallTime = s.cfg.MaxJobWall
	opts.Observer = sim.ObserverFunc(func(_ *chain.Chain, rep core.RoundReport) {
		rec := roundRecord{
			round:    int32(rep.Round),
			chainLen: int32(rep.ChainLen),
			merges:   int32(rep.Merges()),
			hops:     int32(rep.MergeHops + rep.RunnerHops + rep.StartHops),
		}
		s.mu.Lock()
		e.trace = append(e.trace, rec)
		s.broadcastLocked(e)
		s.mu.Unlock()
		if hook != nil {
			hook()
		}
	})
	engine, err := sim.NewEngine(ch, opts)
	if err != nil {
		s.seal(e, nil, StatusFailed, err)
		return
	}
	res, err := engine.RunContext(s.ctx)

	s.mu.Lock()
	s.stats.EngineRounds += int64(res.Rounds)
	s.mu.Unlock()

	switch {
	case err == nil && res.Gathered:
		s.seal(e, &res, StatusDone, nil)
	case errors.Is(err, sim.ErrWatchdog), errors.Is(err, sim.ErrStalled):
		// Deterministic clean DNFs: the verdict is part of the content,
		// so it caches exactly like a gathered result.
		s.seal(e, &res, StatusDNF, err)
	case errors.Is(err, context.Canceled):
		s.spool(e, engine)
		s.seal(e, &res, StatusCancelled, err)
	case errors.Is(err, sim.ErrDeadline):
		s.spool(e, engine)
		s.seal(e, &res, StatusDeadline, err)
	default:
		s.seal(e, &res, StatusFailed, err)
	}
}

// spool writes the engine's checkpoint to SpoolDir as <key>.ckpt so an
// interrupted run can be resumed by a later process. Best effort: a
// poisoned engine or a full disk must not take the drain down with it.
func (s *Server) spool(e *entry, engine *sim.Engine) {
	if s.cfg.SpoolDir == "" {
		return
	}
	cp, err := engine.Checkpoint()
	if err != nil {
		return
	}
	_ = sim.WriteCheckpoint(filepath.Join(s.cfg.SpoolDir, e.key+".ckpt"), cp)
}

// seal publishes an entry's terminal state: result JSON (when the run
// produced one), status, error text, cache eviction (with the entry's
// body digest) for non-cacheable ends, and the final wake broadcast.
func (s *Server) seal(e *entry, res *sim.Result, status string, err error) {
	var sealed []byte
	if res != nil {
		sealed, _ = json.Marshal(res)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	e.status = status
	e.result = sealed
	e.trace = slices.Clone(e.trace)
	if err != nil {
		e.errMsg = err.Error()
	}
	if !e.cacheable() {
		delete(s.entries, e.key)
		if s.bodies[e.body] == e {
			delete(s.bodies, e.body)
		}
	}
	s.broadcastLocked(e)
}

// jobView is the JSON shape of GET /jobs/{id} and of submissions.
type jobView struct {
	ID     string          `json:"id"`
	Key    string          `json:"key"`
	Status string          `json:"status"`
	Rounds int             `json:"rounds"`
	Cached bool            `json:"cached,omitempty"`
	Error  string          `json:"error,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
}

// viewLocked renders an entry. Callers hold s.mu.
func (s *Server) viewLocked(e *entry, cached bool) jobView {
	return jobView{
		ID:     e.id,
		Key:    e.key,
		Status: e.status,
		Rounds: len(e.trace),
		Cached: cached,
		Error:  e.errMsg,
		Result: json.RawMessage(e.result),
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	// Error text quotes the typed sentinels verbatim ("k+1 <= V"); HTML
	// escaping would mangle them for the curl audience this serves.
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// readBody reads a POST body under the maxBodyBytes cap. An oversize
// body answers 413 and a failed read 400, both wrapping bad, the
// endpoint's typed rejection; it reports false once such a reply is sent.
func readBody(w http.ResponseWriter, r *http.Request, bad error) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err == nil {
		return body, true
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		writeError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("%w: body exceeds %d bytes", bad, tooBig.Limit))
	} else {
		writeError(w, http.StatusBadRequest, fmt.Errorf("%w: reading body: %v", bad, err))
	}
	return nil, false
}

// handleSubmit is admission control. A body byte-identical to the one
// that created an entry still in the cache is answered from that entry
// through its SHA-256 alone, with no decode and no chain rebuild. Any other body is
// decoded and validated (400 on any typed rejection, including
// ErrLivelockConfig) and keyed by its built chain, so every spelling of
// one job shares one slot. Either way a terminal cacheable entry answers
// inline without touching the queue and a live one coalesces; otherwise
// a draining server refuses (503) and a full queue rejects (429).
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r, ErrBadJob)
	if !ok {
		return
	}
	digest := sha256.Sum256(body)
	s.mu.Lock()
	if e, ok := s.bodies[digest]; ok {
		s.stats.Submitted++
		s.answerLocked(w, e, true)
		return
	}
	s.mu.Unlock()

	var spec JobSpec
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("%w: %v", ErrBadJob, err))
		return
	}
	ch, opts, err := spec.build()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	key, err := cacheKey(ch, opts, spec.Workers)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}

	s.mu.Lock()
	s.stats.Submitted++
	if e, ok := s.entries[key]; ok {
		s.answerLocked(w, e, false)
		return
	}
	if s.draining {
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, errors.New("serve: draining, not accepting jobs"))
		return
	}
	s.seq++
	e := &entry{
		id:     fmt.Sprintf("j%d", s.seq),
		key:    key,
		body:   digest,
		spec:   spec,
		status: StatusQueued,
		wake:   make(chan struct{}),
	}
	select {
	case s.queue <- e:
	default:
		s.stats.Rejected++
		s.mu.Unlock()
		writeError(w, http.StatusTooManyRequests, errors.New("serve: job queue full, retry later"))
		return
	}
	s.entries[key] = e
	s.bodies[digest] = e
	s.jobs[e.id] = e
	view := s.viewLocked(e, false)
	s.mu.Unlock()
	writeJSON(w, http.StatusAccepted, view)
}

// answerLocked replies to a submission that found its entry: 200 with
// the cached view when the entry is terminal, 202 coalesced onto it while
// it is live. byBody marks an entry found through the body digest.
// Callers hold s.mu; answerLocked releases it before writing.
func (s *Server) answerLocked(w http.ResponseWriter, e *entry, byBody bool) {
	code := http.StatusAccepted
	if e.terminal() {
		code = http.StatusOK
		s.stats.CacheHits++
		if byBody {
			s.stats.BodyHits++
		}
	} else {
		s.stats.Coalesced++
	}
	view := s.viewLocked(e, code == http.StatusOK)
	s.mu.Unlock()
	writeJSON(w, code, view)
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	e, ok := s.jobs[r.PathValue("id")]
	if !ok {
		s.mu.Unlock()
		writeError(w, http.StatusNotFound, fmt.Errorf("serve: unknown job %q", r.PathValue("id")))
		return
	}
	view := s.viewLocked(e, false)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, view)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	e, ok := s.entries[r.PathValue("key")]
	if !ok {
		s.mu.Unlock()
		writeError(w, http.StatusNotFound, fmt.Errorf("serve: no result for key %q", r.PathValue("key")))
		return
	}
	if !e.terminal() {
		view := s.viewLocked(e, false)
		s.mu.Unlock()
		writeJSON(w, http.StatusAccepted, view)
		return
	}
	view := s.viewLocked(e, true)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, view)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	st := s.stats
	st.Entries = len(s.entries)
	st.Draining = s.draining
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		writeError(w, http.StatusServiceUnavailable, errors.New("serve: draining"))
		return
	}
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte("ok\n"))
}
