package benchdefs

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"gridgather/internal/serve"
)

// ServeCacheHit measures the serving layer's centerpiece: answering an
// identical re-submission from the content-addressed result cache. The
// job is simulated exactly once off-timer; every iteration then POSTs the
// body that created it through the full HTTP handler stack and must get
// the pinned result back without the engine stepping at all. A
// byte-identical body is found through its SHA-256, so the cost measured
// is body read + SHA-256 + lookup + encode, the price a hot cache pays per
// repeated request.
func ServeCacheHit(b *testing.B) {
	serveCacheHit(b, []byte(serveHitBody), 1)
}

// ServeCacheHitRespelled is the same hit reached by a re-spelled body
// (the fields reordered) that no body digest knows: the cost measured is
// body read + SHA-256 + decode + chain rebuild + content key + lookup +
// encode, the price of every hit whose bytes differ from the creating
// body's.
func ServeCacheHitRespelled(b *testing.B) {
	serveCacheHit(b, []byte(`{"size":120,"shape":"spiral"}`), 0)
}

// serveHitBody is the body that creates the benchmarks' cache entry.
const serveHitBody = `{"shape":"spiral","size":120}`

// serveCacheHit primes the spiral job with serveHitBody, then times
// POSTs of body, each of which must be a 200 cache hit; bodyHitsPerOp
// (1 or 0) is checked against /stats afterwards, so each case provably
// measures the hit path it names.
func serveCacheHit(b *testing.B, body []byte, bodyHitsPerOp int) {
	s := serve.New(serve.Config{Workers: 1})
	defer func() {
		if err := s.Shutdown(context.Background()); err != nil {
			b.Error(err)
		}
	}()
	post := func(body []byte) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/jobs", bytes.NewReader(body)))
		return w
	}
	if w := post([]byte(serveHitBody)); w.Code != http.StatusAccepted {
		b.Fatalf("warm-up submit: status %d: %s", w.Code, w.Body)
	}
	deadline := time.Now().Add(time.Minute)
	for {
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/jobs/j1", nil))
		var v struct{ Status string }
		if err := json.Unmarshal(w.Body.Bytes(), &v); err != nil {
			b.Fatal(err)
		}
		if v.Status == serve.StatusDone {
			break
		}
		if v.Status != serve.StatusQueued && v.Status != serve.StatusRunning {
			b.Fatalf("warm-up job ended %q: %s", v.Status, w.Body)
		}
		if time.Now().After(deadline) {
			b.Fatal("warm-up job did not finish in time")
		}
		time.Sleep(time.Millisecond)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if w := post(body); w.Code != http.StatusOK {
			b.Fatalf("iteration %d: status %d (want a 200 cache hit): %s", i, w.Code, w.Body)
		}
	}
	b.StopTimer()
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/stats", nil))
	var st serve.Stats
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		b.Fatal(err)
	}
	if st.CacheHits != b.N || st.BodyHits != bodyHitsPerOp*b.N {
		b.Fatalf("%d iterations made %d cache hits, %d through the body digest; want %d body hits",
			b.N, st.CacheHits, st.BodyHits, bodyHitsPerOp*b.N)
	}
}
