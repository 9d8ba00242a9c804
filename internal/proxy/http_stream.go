package proxy

import (
	"context"
	"encoding/json"
	"net/http"

	"repro/internal/llm"
)

// StreamDone is the payload of the terminal "done" SSE event: the
// settled Answer on the wire — the fully assembled text plus the
// accounting a non-streamed call would return, so a streaming client
// needs no second request to learn what it paid.
type StreamDone struct {
	Text       string  `json:"text"`
	Model      string  `json:"model"`
	Source     string  `json:"source"`
	Tier       int     `json:"tier"`
	Confidence float64 `json:"confidence"`
	CostMicro  int64   `json:"cost_micro_usd"`
	ElapsedMS  float64 `json:"elapsed_ms"`
	TraceID    string  `json:"trace_id,omitempty"`
	Chunks     int     `json:"chunks"`
}

// streamBatch is how many ready chunks the SSE handler takes from the
// call's log in one round of its locks.
const streamBatch = 32

// serveStream handles POST /v1/complete with "stream": true. Events:
//
//	event: chunk   data: Chunk            (repeated, in order)
//	event: done    data: StreamDone       (terminal, success)
//	event: error   data: ErrorBody        (terminal, failure after headers)
//
// Errors before the first chunk (shed, bad upstream) are still reported
// as ordinary HTTP error envelopes; once the 200 + text/event-stream
// header is out, failures become "error" events.
//
// One rule decides when bytes leave: the handler flushes exactly when its
// next read of the chunk log would block, and after the terminal event —
// never with a chunk already waiting, never parked on unflushed bytes. A
// paced or slow upstream gets one flush per chunk; an upstream that runs
// ahead of the socket, or a follower replaying a log that already has
// entries, gets one per ready batch, and the status line and headers ride
// with the first of them. net/http's own 4 KiB buffer bounds a batch.
func (p *Proxy) serveStream(w http.ResponseWriter, ctx context.Context, req llm.Request) {
	if _, ok := w.(http.Flusher); !ok {
		writeError(w, http.StatusInternalServerError, "internal", "streaming unsupported: response writer cannot flush", false)
		return
	}
	s, err := p.openStream(ctx, req)
	if s == nil {
		completionError(w, err)
		return
	}
	defer s.Close()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	writeEvents(w, s)
}

// writeEvents is serveStream's write path: s's chunks as they become
// ready, then the terminal event. A failed write or flush means the
// client went away: it returns, and the caller's Close accounts the
// cancel without touching the coalesced cohort. Flushing through the
// ResponseController is what reports that failure at the flush.
func writeEvents(w http.ResponseWriter, s *clientStream) {
	rc := http.NewResponseController(w)
	var (
		ready [streamBatch]Chunk
		buf   = make([]byte, 0, 1024)
		ok    bool
	)
events:
	for {
		batch, wait, err := s.poll(ready[:0])
		if err != nil {
			// io.EOF or the terminal error — Answer reports which.
			break
		}
		if wait != nil {
			if rc.Flush() != nil {
				return
			}
			if s.park(wait) != nil {
				break
			}
			continue
		}
		buf = buf[:0]
		for i := range batch {
			if buf, ok = appendChunkEvent(buf, &batch[i]); !ok {
				s.fail(errUnencodable)
				break events
			}
		}
		if _, err := w.Write(buf); err != nil {
			return
		}
	}
	ans, err := s.Answer()
	if err == nil {
		buf, ok = appendDoneEvent(buf[:0], &StreamDone{
			Text:       ans.Text,
			Model:      ans.Model,
			Source:     ans.Source,
			Tier:       ans.Tier,
			Confidence: ans.Confidence,
			CostMicro:  int64(ans.Cost),
			ElapsedMS:  elapsedMS(ans),
			TraceID:    ans.Trace,
			Chunks:     ans.Chunks,
		})
		if !ok {
			err = errUnencodable
		}
	}
	if err != nil {
		_, body := errorBodyFor(err)
		data, _ := json.Marshal(body) // two strings and a bool: cannot fail
		buf = append(buf[:0], "event: error\ndata: "...)
		buf = append(buf, data...)
		buf = append(buf, "\n\n"...)
	}
	// The request is already accounted; a client that left before its
	// terminal event changes nothing.
	w.Write(buf)
	rc.Flush()
}
