package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// BenchmarkTrajectory runs this package's entries of the pinned benchmark
// trajectory (BENCH_*.json, internal/benchio): answering a re-submission
// from the content-addressed result cache (DESIGN.md §12), each
// sub-benchmark named by its entry.
//
// body=identical POSTs the body that created the entry, which the body
// digest index finds through its SHA-256: the cost is body read + SHA-256
// + lookup + encode, the price a hot cache pays per repeated request.
// body=respelled is the same hit reached by a re-spelled body (the fields
// reordered) that no body digest knows: body read + SHA-256 + decode +
// chain rebuild + content key + lookup + encode, the price of every hit
// whose bytes differ from the creating body's.
func BenchmarkTrajectory(b *testing.B) {
	b.Run("ServeCacheHit/body=identical", func(b *testing.B) {
		benchServeCacheHit(b, []byte(serveHitBody), 1)
	})
	b.Run("ServeCacheHit/body=respelled", func(b *testing.B) {
		benchServeCacheHit(b, []byte(`{"size":120,"shape":"spiral"}`), 0)
	})
}

// serveHitBody is the body that creates the benchmarks' cache entry.
const serveHitBody = `{"shape":"spiral","size":120}`

// benchServeCacheHit simulates the spiral job of serveHitBody exactly once
// off-timer, then times POSTs of body through the full HTTP handler
// stack, each of which must be a 200 cache hit without the engine
// stepping; bodyHitsPerOp (1 or 0) is checked against /stats afterwards,
// so each case provably measures the hit path it names.
func benchServeCacheHit(b *testing.B, body []byte, bodyHitsPerOp int) {
	s := New(Config{Workers: 1})
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
		if v.Status == StatusDone {
			break
		}
		if v.Status != StatusQueued && v.Status != StatusRunning {
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
	var st Stats
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		b.Fatal(err)
	}
	if st.CacheHits != b.N || st.BodyHits != bodyHitsPerOp*b.N {
		b.Fatalf("%d iterations made %d cache hits, %d through the body digest; want %d body hits",
			b.N, st.CacheHits, st.BodyHits, bodyHitsPerOp*b.N)
	}
}
