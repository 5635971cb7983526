package serve

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
)

// roundRecord is one trace record, appended per executed round: four
// int32s, 16 bytes, against ~42 for the NDJSON line it renders to. Each
// field is bounded by the chain length or the round count, far below 2^31
// for any chain a process can hold.
type roundRecord struct {
	round, chainLen, merges, hops int32
}

// appendJSON appends the record's JSON line, without a newline: exactly
// the bytes json.Marshal gives for the same four ints under the keys
// round, len, merges and hops, in that order.
func (r roundRecord) appendJSON(b []byte) []byte {
	b = append(b, `{"round":`...)
	b = strconv.AppendInt(b, int64(r.round), 10)
	b = append(b, `,"len":`...)
	b = strconv.AppendInt(b, int64(r.chainLen), 10)
	b = append(b, `,"merges":`...)
	b = strconv.AppendInt(b, int64(r.merges), 10)
	b = append(b, `,"hops":`...)
	b = strconv.AppendInt(b, int64(r.hops), 10)
	return append(b, '}')
}

// renderChunk is how many rendered bytes writeRounds gathers per Write,
// so a long trace never becomes one buffer.
const renderChunk = 4096

// writeRounds renders recs to w, each JSON line framed by prefix and
// suffix, batching lines in buf and writing about renderChunk bytes at a
// time. It returns buf so a caller that renders repeatedly reuses it.
func writeRounds(w io.Writer, buf []byte, recs []roundRecord, prefix, suffix string) ([]byte, error) {
	buf = buf[:0]
	for i, r := range recs {
		buf = append(buf, prefix...)
		buf = r.appendJSON(buf)
		buf = append(buf, suffix...)
		if len(buf) >= renderChunk || i == len(recs)-1 {
			if _, err := w.Write(buf); err != nil {
				return buf, err
			}
			buf = buf[:0]
		}
	}
	return buf, nil
}

// handleStream is the SSE trace feed for a job: every executed round is
// one "data:" event, and a terminal entry closes with a "result" event
// carrying the sealed result JSON (or the error text for result-less
// ends). Live runs and finished ones go through the same loop — a replay
// of a cached job is byte-identical to the stream a live watcher saw, by
// construction rather than by careful bookkeeping: both render the same
// append-only record log through the same writer.
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

	var buf []byte
	sent := 0 // trace records already streamed
	for {
		s.mu.Lock()
		pending := e.trace[sent:]
		terminal := e.terminal()
		result := e.result
		errMsg := e.errMsg
		wake := e.wake
		s.mu.Unlock()

		var err error
		if buf, err = writeRounds(w, buf, pending, "data: ", "\n\n"); err != nil {
			return
		}
		sent += len(pending)
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
	if _, err := writeRounds(w, nil, trace, "", "\n"); err != nil {
		return
	}
	if result != nil {
		_, _ = fmt.Fprintf(w, "%s\n", result)
	}
}
