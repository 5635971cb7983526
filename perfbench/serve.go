package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"time"

	"gridgather/internal/core"
	"gridgather/internal/generate"
	"gridgather/internal/serve"
	"gridgather/internal/sim"
)

// The serve workload: an in-process gatherd with one worker, driven by one
// client in a closed loop through Server.ServeHTTP, no sockets. Set-up
// primes a hot set of jobs, which is what a restart pays. Requests then
// run four cache hits to one miss: hits are Zipf-skewed over the hot set,
// misses are fresh FSYNC jobs of a few hundred robots followed through
// their SSE stream to the result event. With that mix p50 lands on the hit
// path and p90 inside the misses.

const (
	serveHotJobs       = 512
	serveHotSize       = 128 // hot jobs have 128..159 robots
	serveHotSpan       = 32
	serveMissSize      = 200 // misses have 200..399 robots
	serveMissSpan      = 200
	serveBlock         = 5   // requests per block: one miss, the rest hits
	serveBlocksPerPass = 100 // a pass is 500 requests
	serveZipfS         = 1.1
	serveZipfV         = 8
)

// serveStrategies weights the strategy of every job: three paper jobs to
// one lintime job.
var serveStrategies = []string{"paper", "paper", "paper", "lintime"}

// recorder is an in-memory http.ResponseWriter that also notes when the
// first body byte was written, which for an SSE stream is the first event.
type recorder struct {
	hdr   http.Header
	code  int
	body  bytes.Buffer
	first time.Time
}

func (r *recorder) Header() http.Header {
	if r.hdr == nil {
		r.hdr = http.Header{}
	}
	return r.hdr
}

func (r *recorder) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
}

func (r *recorder) Write(p []byte) (int, error) {
	if r.code == 0 {
		r.code = http.StatusOK
	}
	if r.first.IsZero() {
		r.first = time.Now()
	}
	return r.body.Write(p)
}

// Flush makes the recorder an http.Flusher, as the SSE handler expects.
func (r *recorder) Flush() {}

func (r *recorder) reset() {
	clear(r.hdr)
	r.code = 0
	r.body.Reset()
	r.first = time.Time{}
}

// hotJob is one primed job: its request body and the result bytes its
// priming run sealed, which every hit must return.
type hotJob struct {
	body []byte
	want []byte // `"result":` followed by the sealed result JSON
}

// serveState is the client's view of one server.
type serveState struct {
	srv         *serve.Server
	hot         []hotJob
	seen        map[string]bool // cache keys already submitted
	primeRounds int64
}

// serveFamilies are the seeded generator families: every draw of one is a
// fresh chain, so de-duplication never exhausts a family and the job mix
// stays the same however many misses a run sends.
var serveFamilies = []string{"histogram", "polyomino", "walk", "doubled"}

// drawJob draws a job not yet submitted — a family, a size in
// [size, size+span), a seed and a strategy — de-duplicated by cache key.
// A non-negative family index fixes the family; -1 draws it.
func (s *serveState) drawJob(rng *rand.Rand, family, size, span int) (serve.JobSpec, error) {
	for {
		strat, err := core.ParseStrategy(serveStrategies[rng.Intn(len(serveStrategies))])
		if err != nil {
			return serve.JobSpec{}, err
		}
		f := family
		if f < 0 {
			f = rng.Intn(len(serveFamilies))
		}
		spec := serve.JobSpec{
			Shape:    serveFamilies[f],
			Size:     size + rng.Intn(span),
			Seed:     rng.Int63(),
			Strategy: strat,
			Workers:  1,
		}
		key, err := serve.CacheKey(spec)
		if err != nil {
			return serve.JobSpec{}, err
		}
		if !s.seen[key] {
			s.seen[key] = true
			return spec, nil
		}
	}
}

// do sends one request through the handler.
func (s *serveState) do(w *recorder, req *http.Request) {
	w.reset()
	s.srv.ServeHTTP(w, req)
}

func newRequest(method, path string, body []byte) *http.Request {
	req, err := http.NewRequest(method, path, bytes.NewReader(body))
	if err != nil {
		panic(err) // the paths are built by this file
	}
	return req
}

// missResult is what a missed job's stream reports.
type missResult struct {
	latency  time.Duration
	first    time.Duration // POST to first SSE event
	sseBytes int
	result   []byte // the result event's payload
	res      sim.Result
}

// runJob submits a job that must miss the cache and follows its stream to
// the result event. The latency covers the POST, decoding its reply and
// the whole stream.
func (s *serveState) runJob(post, stream *recorder, body []byte, t *tracer, unit int) (missResult, error) {
	var m missResult
	req := newRequest(http.MethodPost, "/jobs", body)
	t0 := time.Now()
	if t != nil {
		t.begin(spRequest, unit)
		t.begin(spHTTP, unit)
	}
	s.do(post, req)
	if t != nil {
		t.end()
	}
	var view struct {
		ID string `json:"id"`
	}
	err := json.Unmarshal(post.body.Bytes(), &view)
	if err != nil || post.code != http.StatusAccepted {
		if t != nil {
			t.end()
		}
		return m, fmt.Errorf("submit: status %d, %v: %s", post.code, err, post.body.Bytes())
	}
	if t != nil {
		t.begin(spStream, unit)
	}
	s.do(stream, newRequest(http.MethodGet, "/jobs/"+view.ID+"/stream", nil))
	m.latency = time.Since(t0)
	if t != nil {
		t.end()
		t.end()
	}
	m.first = stream.first.Sub(t0)
	m.sseBytes = stream.body.Len()

	const marker = "event: result\ndata: "
	sse := stream.body.Bytes()
	i := bytes.LastIndex(sse, []byte(marker))
	if stream.code != http.StatusOK || i < 0 || !bytes.HasSuffix(sse, []byte("\n\n")) {
		return m, fmt.Errorf("job %s: stream without a result event (status %d)", view.ID, stream.code)
	}
	m.result = bytes.Clone(sse[i+len(marker) : len(sse)-2])
	if err := json.Unmarshal(m.result, &m.res); err != nil {
		return m, fmt.Errorf("job %s: result event: %v", view.ID, err)
	}
	var status struct {
		Status string `json:"status"`
	}
	s.do(post, newRequest(http.MethodGet, "/jobs/"+view.ID, nil))
	if err := json.Unmarshal(post.body.Bytes(), &status); err != nil {
		return m, fmt.Errorf("job %s: status: %v", view.ID, err)
	}
	if status.Status != serve.StatusDone && status.Status != serve.StatusDNF {
		return m, fmt.Errorf("job %s ended %q", view.ID, status.Status)
	}
	return m, nil
}

// serveSetup starts a server and primes the hot set: it submits every hot
// job, follows the last one's stream to its result — the single worker
// runs jobs in submission order, so by then all have ended — and reads
// each job's sealed result.
func serveSetup(c config) (*serveState, error) {
	s := &serveState{
		srv:  serve.New(serve.Config{Workers: 1, QueueDepth: serveHotJobs}),
		seen: map[string]bool{},
	}
	if c.tr != nil {
		c.tr.begin(spPrime, 0)
		defer c.tr.end()
	}
	rng := rand.New(rand.NewSource(c.seed))
	var w recorder
	ids := make([]string, serveHotJobs)
	for j := range ids {
		// Hot job j is of family j mod 4, so the most requested jobs
		// cover every family at every seed.
		spec, err := s.drawJob(rng, j%len(serveFamilies), serveHotSize, serveHotSpan)
		if err != nil {
			return s, err
		}
		body, err := json.Marshal(spec)
		if err != nil {
			return s, err
		}
		s.do(&w, newRequest(http.MethodPost, "/jobs", body))
		var view struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(w.body.Bytes(), &view); err != nil || w.code != http.StatusAccepted {
			return s, fmt.Errorf("priming: submit: status %d, %v: %s", w.code, err, w.body.Bytes())
		}
		ids[j] = view.ID
		s.hot = append(s.hot, hotJob{body: body})
	}
	s.do(&w, newRequest(http.MethodGet, "/jobs/"+ids[len(ids)-1]+"/stream", nil))
	for j, id := range ids {
		s.do(&w, newRequest(http.MethodGet, "/jobs/"+id, nil))
		var view struct {
			Status string          `json:"status"`
			Result json.RawMessage `json:"result"`
		}
		if err := json.Unmarshal(w.body.Bytes(), &view); err != nil {
			return s, fmt.Errorf("priming: job %s: %v", id, err)
		}
		var res sim.Result
		if err := json.Unmarshal(view.Result, &res); err != nil ||
			(view.Status != serve.StatusDone && view.Status != serve.StatusDNF) {
			return s, fmt.Errorf("priming: job %s ended %q (%v)", id, view.Status, err)
		}
		s.primeRounds += int64(res.Rounds)
		s.hot[j].want = append([]byte(`"result":`), view.Result...)
	}
	runtime.GC()
	return s, nil
}

func shutdown(srv *serve.Server) error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	return srv.Shutdown(ctx)
}

// stats reads GET /stats.
func (s *serveState) stats(w *recorder) (serve.Stats, error) {
	var st serve.Stats
	s.do(w, newRequest(http.MethodGet, "/stats", nil))
	if err := json.Unmarshal(w.body.Bytes(), &st); err != nil {
		return st, fmt.Errorf("stats: %v", err)
	}
	return st, nil
}

func runServe(c config) (*outcome, error) {
	out := &outcome{}
	var s *serveState
	for rep := 0; rep < setupReps; rep++ {
		if s != nil {
			if err := shutdown(s.srv); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		if c.tr != nil {
			c.tr.begin(spSetup, rep)
		}
		var err error
		s, err = serveSetup(c)
		if c.tr != nil {
			c.tr.end()
		}
		if err != nil {
			if s != nil {
				_ = shutdown(s.srv) // already failing; the set-up error is the one to report
			}
			return nil, err
		}
		out.setup = append(out.setup, time.Since(start))
	}
	defer func() {
		if err := shutdown(s.srv); err != nil {
			out.problem("shutting the server down: %v", err)
		}
	}()
	heap, err := newHeapPeak()
	if err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewSource(c.seed + 1))
	zipf := rand.NewZipf(rng, serveZipfS, serveZipfV, serveHotJobs-1)
	var post, stream recorder
	var hits, misses, missRounds int64
	var hitNS, missNS, firstNS, engineNS int64
	var first struct{ hits, misses, rounds, robotRounds, sseBytes, cacheHits, engineRounds int64 }
	out.units = make([]time.Duration, 0, 1<<16)
	digest := newDigest()
	gc := newGCCPU()
	gc0, cpu0 := gc.read()
	unit := 0
	start := time.Now()
	for pass := 0; timedPhase(c, start, pass); pass++ {
		for b := 0; b < serveBlocksPerPass; b++ {
			missAt := rng.Intn(serveBlock)
			for k := 0; k < serveBlock; k++ {
				out.attempted++
				if k != missAt {
					job := s.hot[zipf.Uint64()]
					if c.tr != nil {
						shadowDecodeKey(c.tr, job.body, unit)
					}
					req := newRequest(http.MethodPost, "/jobs", job.body)
					t0 := time.Now()
					if c.tr != nil {
						c.tr.begin(spRequest, unit)
						c.tr.begin(spHTTP, unit)
					}
					s.do(&post, req)
					lat := time.Since(t0)
					if c.tr != nil {
						c.tr.end()
						c.tr.end()
					}
					out.units = append(out.units, lat)
					hits++
					hitNS += int64(lat)
					if post.code != http.StatusOK || !bytes.Contains(post.body.Bytes(), []byte(`"cached":true`)) ||
						!bytes.Contains(post.body.Bytes(), job.want) {
						out.fail("hit %d: status %d, reply does not carry the primed result", unit, post.code)
					}
					if pass == 0 {
						digest.add(post.body.Bytes())
					}
				} else {
					spec, err := s.drawJob(rng, -1, serveMissSize, serveMissSpan)
					if err != nil {
						return nil, err
					}
					body, err := json.Marshal(spec)
					if err != nil {
						return nil, err
					}
					m, err := s.runJob(&post, &stream, body, c.tr, unit)
					if err != nil {
						out.fail("miss %d: %v", unit, err)
						unit++
						continue
					}
					out.units = append(out.units, m.latency)
					misses++
					missNS += int64(m.latency)
					firstNS += int64(m.first)
					missRounds += int64(m.res.Rounds)
					out.robotRounds += float64(m.res.InitialLen) * float64(m.res.Rounds)
					if pass == 0 {
						digest.add(stream.body.Bytes())
						first.misses++
						first.rounds += int64(m.res.Rounds)
						first.robotRounds += int64(m.res.InitialLen) * int64(m.res.Rounds)
						first.sseBytes += int64(m.sseBytes)
					}
					if c.tr != nil {
						ns, err := missTwin(c.tr, spec, m.result, unit)
						if err != nil {
							out.fail("miss %d: %v", unit, err)
						}
						engineNS += ns
					}
				}
				unit++
			}
		}
		// The server only accumulates: it retains the most at a pass end.
		heap.force()
		if pass == 0 {
			first.hits = hits
			st, err := s.stats(&post)
			if err != nil {
				return nil, err
			}
			first.cacheHits = int64(st.CacheHits)
			first.engineRounds = st.EngineRounds
		}
		out.passes++
	}
	out.wall = time.Since(start)
	out.peakHeap = heap.peak
	gc1, cpu1 := gc.read()
	retained := heap.force()

	st, err := s.stats(&post)
	if err != nil {
		return nil, err
	}
	if st.EngineRounds != s.primeRounds+missRounds {
		out.fail("/stats engine rounds %d != priming %d + misses %d: hits stepped the engine",
			st.EngineRounds, s.primeRounds, missRounds)
	}
	if int64(st.CacheHits) != hits {
		out.fail("/stats cache hits %d != %d hits sent", st.CacheHits, hits)
	}
	checkPin(out, c.seed, "serve", digest.hex())
	out.count("hits", first.hits)
	out.count("misses", first.misses)
	out.count("rounds", first.rounds)
	out.count("robot_rounds", first.robotRounds)
	out.count("sse_bytes", first.sseBytes)
	out.count("cache_hits", first.cacheHits)
	out.count("engine_rounds", first.engineRounds)
	if c.tr == nil {
		return out, nil
	}
	t := c.tr
	hitUS := float64(hitNS) / float64(hits) / 1e3
	missEngineMS := float64(engineNS) / float64(misses) / 1e6
	out.layer = map[string]float64{
		"runtime.gc_cpu_share":     (gc1 - gc0) / (cpu1 - cpu0),
		"serve.decode_us":          t.meanUS(spDecode),
		"serve.key_us":             t.meanUS(spKey),
		"serve.hit_us":             hitUS,
		"serve.hit_rest_us":        hitUS - t.meanUS(spDecode) - t.meanUS(spKey),
		"serve.first_event_ms":     float64(firstNS) / float64(misses) / 1e6,
		"serve.miss_engine_ms":     missEngineMS,
		"serve.miss_overhead_ms":   float64(missNS)/float64(misses)/1e6 - missEngineMS,
		"serve.sse_bytes_per_miss": float64(first.sseBytes) / float64(first.misses),
		"serve.retained_heap_mb":   float64(retained) / 1e6,
		"serve.cache_hit_ratio":    float64(st.CacheHits) / float64(st.Submitted),
		"serve.engine_rounds":      float64(st.EngineRounds),
	}
	return out, nil
}

// shadowDecodeKey times the two reads a submission starts with, on the
// hit's own body: the JobSpec decode as handleSubmit does it, and the
// cache key derivation.
func shadowDecodeKey(t *tracer, body []byte, unit int) {
	var spec serve.JobSpec
	t.begin(spDecode, unit)
	err := json.NewDecoder(bytes.NewReader(body)).Decode(&spec)
	t.end()
	if err != nil {
		return
	}
	t.begin(spKey, unit)
	_, _ = serve.CacheKey(spec) // the hit itself reports any error
	t.end()
}

// missTwin runs a missed job's simulation directly through sim.Gather,
// timing the engine alone, and checks the server sealed the same result.
func missTwin(t *tracer, spec serve.JobSpec, sealed []byte, unit int) (int64, error) {
	ch, err := generate.Named(spec.Shape, spec.Size, rand.New(rand.NewSource(spec.Seed)))
	if err != nil {
		return 0, err
	}
	t.begin(spMissEngine, unit)
	t0 := time.Now()
	res, err := sim.Gather(ch, sim.Options{Strategy: spec.Strategy, Workers: spec.Workers})
	ns := int64(time.Since(t0))
	t.end()
	if err != nil {
		return ns, fmt.Errorf("direct run: %v", err)
	}
	raw, err := json.Marshal(res)
	if err != nil {
		return ns, err
	}
	if !bytes.Equal(raw, sealed) {
		return ns, fmt.Errorf("server result differs from the direct sim.Gather result")
	}
	return ns, nil
}
