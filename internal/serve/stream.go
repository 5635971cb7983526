package serve

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
)

// handleStream is the SSE trace feed for a job: every executed round is
// one "data:" event, and a terminal entry closes with a "result" event
// carrying the sealed result JSON (or the error text for result-less
// ends). Live runs and finished ones go through the same loop — a replay
// of a cached job is byte-identical to the stream a live watcher saw, by
// construction rather than by careful bookkeeping: both render the same
// append-only line log through the same writer.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	e, ok := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("serve: unknown job %q", r.PathValue("id")))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	flusher, _ := w.(http.Flusher)

	sent := 0 // trace bytes already streamed
	for {
		s.mu.Lock()
		pending := e.trace[sent:]
		terminal := e.terminal()
		result := e.result
		errMsg := e.errMsg
		wake := e.wake
		s.mu.Unlock()

		for len(pending) > 0 {
			end := bytes.IndexByte(pending, '\n')
			if _, err := fmt.Fprintf(w, "data: %s\n\n", pending[:end]); err != nil {
				return
			}
			pending = pending[end+1:]
			sent += end + 1
		}
		if terminal {
			payload := result
			if payload == nil {
				payload = []byte(fmt.Sprintf("%q", errMsg))
			}
			_, _ = fmt.Fprintf(w, "event: result\ndata: %s\n\n", payload)
			if flusher != nil {
				flusher.Flush()
			}
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
		select {
		case <-wake:
		case <-r.Context().Done():
			return
		}
	}
}

// handleReplay is the NDJSON form of a finished trace: one round record
// per line, then the sealed result as the final line. Unlike the SSE
// stream it refuses live entries — NDJSON has no event framing to signal
// "more coming", so a partial replay would be indistinguishable from a
// complete one.
func (s *Server) handleReplay(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	e, ok := s.entries[r.PathValue("key")]
	if !ok {
		s.mu.Unlock()
		writeError(w, http.StatusNotFound, fmt.Errorf("serve: no result for key %q", r.PathValue("key")))
		return
	}
	if !e.terminal() {
		s.mu.Unlock()
		writeError(w, http.StatusConflict, errors.New("serve: job still running; use the SSE stream"))
		return
	}
	trace := e.trace
	result := e.result
	s.mu.Unlock()

	w.Header().Set("Content-Type", "application/x-ndjson")
	if _, err := w.Write(trace); err != nil {
		return
	}
	if result != nil {
		_, _ = fmt.Fprintf(w, "%s\n", result)
	}
}
